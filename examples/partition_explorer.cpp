/**
 * @file
 * Partition explorer: dump the task partition a heuristic produces
 * for any bundled workload.
 *
 *   ./partition_explorer [workload] [bb|cf|dd] [N]
 *
 * N, the targets tracked per task, is in [1, 64] as in a request.
 *
 * Prints every task with its blocks, exposed targets, create mask and
 * safe forward points — the compiler's entire hand-off to the
 * Multiscalar hardware.
 */

#include <cstdio>
#include <string>

#include "client/cli.h"
#include "ir/printer.h"
#include "pipeline/session.h"
#include "report/record.h"
#include "workloads/workload.h"

using namespace msc;

namespace {

const char *
kindName(tasksel::TargetKind k)
{
    return k == tasksel::TargetKind::Return ? "return" : "block";
}

std::string
maskToString(cfg::RegSet m)
{
    std::string s;
    for (unsigned r = 0; r < ir::NUM_REGS; ++r) {
        if (m & cfg::regBit(ir::RegId(r))) {
            if (!s.empty())
                s += ",";
            s += ir::regName(ir::RegId(r));
        }
    }
    return s.empty() ? "-" : s;
}

} // anonymous namespace

int
main(int argc, char **argv)
try {
    std::string name = argc > 1 ? argv[1] : "compress";
    tasksel::SelectionOptions sel;
    sel.strategy = report::strategyFromId(argc > 2 ? argv[2] : "dd");
    unsigned n = argc > 3 ? unsigned(client::parseUInt("N", argv[3], 64))
                          : 4;
    if (n == 0)
        throw std::runtime_error("N must be in [1, 64]");
    sel.maxTargets = n;
    pipeline::StageOptions o = pipeline::StageOptions::fromSelection(sel);

    // select() stops after the frontend: no trace, no timing model.
    pipeline::Session session(
        workloads::buildWorkload(name, workloads::Scale::Small));
    auto part = session.select(o);
    const tasksel::TaskPartition &partition = part->partition;
    const ir::Program &p = *part->transformed->prog;

    std::printf("workload %s (%s tasks, N=%u): %zu functions, "
                "%zu static insts, %zu tasks\n\n",
                name.c_str(), tasksel::strategyName(sel.strategy), n,
                p.functions.size(), p.numInsts(), partition.size());

    for (const auto &t : partition.tasks) {
        const ir::Function &f = p.functions[t.func];
        std::printf("task %-3u @%s entry bb%-3u (%u insts)\n", t.id,
                    f.name.c_str(), t.entry, t.staticInsts);
        std::printf("  blocks:");
        for (ir::BlockId b : t.blocks)
            std::printf(" bb%u", b);
        std::printf("\n  targets:");
        for (const auto &tg : t.targets) {
            if (tg.kind == tasksel::TargetKind::Return) {
                std::printf(" [return]");
            } else {
                std::printf(" [@%s bb%u]",
                            p.functions[tg.block.func].name.c_str(),
                            tg.block.block);
            }
            (void)kindName(tg.kind);
        }
        std::printf("\n  create mask: %s\n",
                    maskToString(t.createMask).c_str());
        // Safe forward points.
        for (ir::BlockId b : t.blocks) {
            const auto &bb = f.blocks[b];
            for (size_t i = 0; i < bb.insts.size(); ++i) {
                cfg::RegSet fwd = partition.fwdSafe[t.func][b][i];
                if (fwd) {
                    std::printf("  forward at bb%u[%zu] %-24s -> %s\n",
                                b, i,
                                ir::toString(bb.insts[i]).c_str(),
                                maskToString(fwd).c_str());
                }
            }
        }
    }

    if (!partition.includedCalls.empty()) {
        std::printf("\nincluded calls:");
        for (const auto &c : partition.includedCalls)
            std::printf(" @%s/bb%u", p.functions[c.func].name.c_str(),
                        c.block);
        std::printf("\n");
    }
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "partition_explorer: %s\n", e.what());
    return 1;
}
