#include "ir/program.h"

namespace msc {
namespace ir {

Function *
Program::findFunction(const std::string &fname)
{
    for (auto &f : functions)
        if (f.name == fname)
            return &f;
    return nullptr;
}

const Function *
Program::findFunction(const std::string &fname) const
{
    for (const auto &f : functions)
        if (f.name == fname)
            return &f;
    return nullptr;
}

void
Program::layout()
{
    _blockAddr.assign(functions.size(), {});
    uint64_t addr = CODE_BASE;  // Page zero unmapped, as a linker would.
    for (const auto &f : functions) {
        auto &fAddrs = _blockAddr[f.id];
        fAddrs.resize(f.blocks.size(), 0);
        for (const auto &b : f.blocks) {
            fAddrs[b.id] = addr;
            addr += 4ull * b.insts.size();
        }
    }
}

} // namespace ir
} // namespace msc
