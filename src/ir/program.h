/**
 * @file
 * Whole programs: a set of functions plus memory image and code layout.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/function.h"
#include "ir/types.h"

namespace msc {
namespace ir {

/**
 * A whole program.
 *
 * Memory is a flat array of 64-bit words; Load/Store effective
 * addresses are word indices. `initData` seeds the low words of memory
 * before execution. `layout()` assigns each static instruction a
 * 4-byte code address (functions laid out sequentially) so that
 * instruction-cache behaviour can be modeled realistically.
 */
struct Program
{
    /** Code address of the first laid-out instruction. */
    static constexpr uint64_t CODE_BASE = 0x1000;

    std::string name;
    std::vector<Function> functions;
    FuncId entry = 0;

    /** Flat data memory size in 64-bit words. */
    size_t memWords = 1u << 22;

    /** Initial contents of memory words [0, initData.size()). */
    std::vector<int64_t> initData;

    Function &function(FuncId f) { return functions[f]; }
    const Function &function(FuncId f) const { return functions[f]; }

    const BasicBlock &
    block(BlockRef b) const
    {
        return functions[b.func].blocks[b.block];
    }

    const Instruction &
    inst(InstRef i) const
    {
        return functions[i.func].blocks[i.block].insts[i.index];
    }

    /** Looks a function up by name; returns nullptr when absent. */
    Function *findFunction(const std::string &fname);
    const Function *findFunction(const std::string &fname) const;

    /** Total static instruction count across all functions. */
    size_t
    numInsts() const
    {
        size_t n = 0;
        for (const auto &f : functions)
            n += f.numInsts();
        return n;
    }

    /** Recomputes CFG edges in every function. */
    void
    computeCfg()
    {
        for (auto &f : functions)
            f.computeCfg();
    }

    /**
     * Assigns 4-byte code addresses to all instructions. Must be
     * called after the program is final; instruction addresses are
     * then available via instAddr().
     */
    void layout();

    /** True once layout() has run. */
    bool hasLayout() const { return !_blockAddr.empty(); }

    /** Code address of the given instruction (layout() required). */
    uint64_t
    instAddr(FuncId f, BlockId b, uint32_t idx) const
    {
        return _blockAddr[f][b] + 4ull * idx;
    }

    uint64_t
    instAddr(InstRef r) const
    {
        return instAddr(r.func, r.block, r.index);
    }

  private:
    /** Per-function, per-block base code addresses. */
    std::vector<std::vector<uint64_t>> _blockAddr;
};

} // namespace ir
} // namespace msc
