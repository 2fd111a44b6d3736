#include "arch/taskstream.h"

#include <stdexcept>
#include <string>

namespace msc {
namespace arch {

using namespace ir;
using namespace tasksel;

size_t
TaskStream::bytes() const
{
    return insts.capacity() * sizeof(DynInst) +
        statics.capacity() * sizeof(StaticInst) +
        tasks.capacity() * sizeof(DynTask);
}

void
checkStreamLimits(uint64_t dyn_insts, uint64_t static_insts)
{
    if (dyn_insts > UINT32_MAX)
        throw std::runtime_error(
            "task stream: trace of " + std::to_string(dyn_insts) +
            " instructions exceeds the 32-bit instruction index");
    if (static_insts > UINT32_MAX)
        throw std::runtime_error(
            "task stream: program of " + std::to_string(static_insts) +
            " static instructions exceeds the 32-bit static index");
}

namespace {

/** Row of the instruction at code address @p pc. */
inline uint64_t
staticIndex(uint64_t pc)
{
    return (pc - Program::CODE_BASE) / 4;
}

/** One decoded row per static instruction, indexed by code address. */
std::vector<StaticInst>
decodeStatics(const TaskPartition &part)
{
    const Program &prog = *part.prog;
    if (!prog.hasLayout())
        throw std::runtime_error("task stream: program has no code layout");
    const size_t n = prog.numInsts();
    std::vector<StaticInst> out(n);
    std::vector<RegId> regs;
    for (FuncId f = 0; f < prog.functions.size(); ++f) {
        const Function &fn = prog.functions[f];
        for (BlockId b = 0; b < fn.blocks.size(); ++b) {
            const BasicBlock &bb = fn.blocks[b];
            for (uint32_t i = 0; i < bb.insts.size(); ++i) {
                const InstRef ref{f, b, i};
                const uint64_t pc = prog.instAddr(ref);
                const uint64_t s = staticIndex(pc);
                // layout() packs code contiguously from CODE_BASE, so
                // every row is hit exactly once (pc is never 0).
                if (pc < Program::CODE_BASE || s >= n || out[s].pc != 0)
                    throw std::runtime_error(
                        "task stream: code layout is not dense");
                const Instruction &inst = bb.insts[i];
                StaticInst &si = out[s];
                si.ref = ref;
                si.pc = pc;
                si.fwdSafe = part.fwdSafe[f][b][i];
                regs.clear();
                inst.uses(regs);
                for (RegId r : regs)
                    si.srcs |= cfg::regBit(r);
                regs.clear();
                inst.defs(regs);
                for (RegId r : regs)
                    if (r != REG_ZERO)
                        si.dsts |= cfg::regBit(r);
                si.fu = inst.info().fu;
                si.latency = inst.info().latency;
                si.isLoad = inst.isLoad();
                si.isStore = inst.isStore();
                si.isCondBranch = inst.isCondBranch();
            }
        }
    }
    return out;
}

} // anonymous namespace

TaskStream
cutTasks(const profile::Trace &trace, const TaskPartition &part)
{
    const Program &prog = *part.prog;
    TaskStream out;
    if (trace.entries.empty())
        return out;

    checkStreamLimits(trace.entries.size(), prog.numInsts());
    out.statics = decodeStatics(part);
    out.insts.reserve(trace.entries.size());

    unsigned depth = 0;           // Included-call nesting depth.

    for (const profile::TraceEntry &e : trace.entries) {
        BlockRef blk{e.ref.func, e.ref.block};

        if (e.ref.index == 0 && depth == 0) {
            TaskId tid = part.taskIdOf(blk);
            bool cut = out.tasks.empty() ||
                tid != out.tasks.back().staticTask ||
                part.tasks[tid].entry == blk.block;
            // Entering a non-entry block of the current task is
            // intra-task control flow: no cut.
            if (cut) {
                if (tid == INVALID_TASK)
                    throw std::runtime_error("trace block not in any task");
                if (part.tasks[tid].entry != blk.block)
                    throw std::runtime_error("dynamic entry into task middle");
                if (!out.tasks.empty()) {
                    // Record the successor of the closing task.
                    DynTask &cur = out.tasks.back();
                    const Task &st = part.tasks[cur.staticTask];
                    const InstRef last = out.stat(out.insts.back()).ref;
                    const Instruction &li = prog.inst(last);
                    TaskTarget actual;
                    if (li.op == Opcode::Ret) {
                        actual = {TargetKind::Return, {}};
                    } else {
                        actual = {TargetKind::Block,
                                  {blk.func, part.tasks[tid].entry}};
                    }
                    cur.actualKind = actual.kind;
                    cur.actualTargetIdx = st.targetIndex(actual);
                    cur.nextEntry = blk;
                    if (li.op == Opcode::Call) {
                        cur.endsInCall = true;
                        const BasicBlock &cb = prog.block(last.blockRef());
                        cur.callReturnSite = {last.func, cb.fallthrough};
                    }
                }
                DynTask &nt = out.tasks.emplace_back();
                nt.first = uint32_t(out.insts.size());
                nt.staticTask = tid;
            }
        }

        if (out.tasks.empty())
            throw std::runtime_error("trace does not begin at a task entry");
        const Instruction &inst = prog.inst(e.ref);
        DynTask &cur = out.tasks.back();
        if (inst.isControl())
            cur.ctlInsts++;
        cur.count++;
        out.insts.push_back(
            {uint32_t(staticIndex(prog.instAddr(e.ref))), e.taken,
             depth > 0, e.addr});

        if (inst.op == Opcode::Call) {
            if (depth > 0) {
                ++depth;  // Nested call within an included callee.
            } else if (part.callIncluded(blk)) {
                depth = 1;
            }
        } else if (inst.op == Opcode::Ret && depth > 0) {
            --depth;
        }
    }

    out.tasks.back().last = true;
    out.tasks.shrink_to_fit();
    return out;
}

} // namespace arch
} // namespace msc
