/**
 * @file
 * Paired in-process A/B probe of arch::simulate, built and run by
 * scripts/abprobe.sh (docs/PERFORMANCE.md, "Trajectory workflow").
 *
 * The script compiles this file twice:
 *
 *  - with ABPROBE_OTHER, against another revision's headers and with
 *    -Darch=arch_proto, as the bridge into that revision's simulate
 *    (the macro renames its namespace, so both simulators link into
 *    one binary beside this tree's libraries);
 *  - without it, as the main program: every figure5 cell's trace is
 *    built once through this tree's pipeline::Session, then both
 *    trees' simulate run back to back on it, alternating which goes
 *    first, and every SimStats field is compared.
 *
 * The bridge passes this tree's TaskStream, SimConfig and SimStats by
 * address, so their headers must be the same in both trees; the
 * script checks that before it compiles anything.
 */

#ifdef ABPROBE_OTHER

#include "arch/processor.h"

namespace msc {
namespace abprobe {

void
simulateOther(const tasksel::TaskPartition &part, const void *tasks,
              const void *cfg, void *stats)
{
    *static_cast<arch::SimStats *>(stats) = arch::simulate(
        part, *static_cast<const arch::TaskStream *>(tasks),
        *static_cast<const arch::SimConfig *>(cfg));
}

} // namespace abprobe
} // namespace msc

#else

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/processor.h"
#include "bench_common.h"
#include "pipeline/session.h"
#include "report/record.h"
#include "workloads/workload.h"

namespace msc {
namespace abprobe {

void simulateOther(const tasksel::TaskPartition &part, const void *tasks,
                   const void *cfg, void *stats);

} // namespace abprobe
} // namespace msc

using namespace msc;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned REPS = 2;
constexpr uint64_t TRACE_INSTS = 250'000;  // figure5's full scale

// Every field is compared below; a field added to or removed from
// SimStats changes its size and stops the build here.
static_assert(sizeof(arch::SimStats) == 784,
              "SimStats changed: update differingField");

/** Name of the first SimStats field where @p a and @p b differ, or
 *  nullptr when every field is equal. */
const char *
differingField(const arch::SimStats &a, const arch::SimStats &b)
{
#define ABPROBE_FIELD(f)                                                      \
    if (!(a.f == b.f))                                                        \
        return #f;
    ABPROBE_FIELD(cycles)
    ABPROBE_FIELD(retiredInsts)
    ABPROBE_FIELD(retiredTasks)
    ABPROBE_FIELD(buckets.counts)
    ABPROBE_FIELD(idlePuCycles)
    ABPROBE_FIELD(taskPredictions)
    ABPROBE_FIELD(taskMispredictions)
    ABPROBE_FIELD(branchPredictions)
    ABPROBE_FIELD(branchMispredictions)
    ABPROBE_FIELD(memViolations)
    ABPROBE_FIELD(tasksSquashedCtrl)
    ABPROBE_FIELD(tasksSquashedMem)
    ABPROBE_FIELD(syncStallCycles)
    ABPROBE_FIELD(dynTasks)
    ABPROBE_FIELD(dynTaskInsts)
    ABPROBE_FIELD(dynTaskCtlInsts)
    ABPROBE_FIELD(measuredWindowSpan)
    ABPROBE_FIELD(l1iAccesses)
    ABPROBE_FIELD(l1iMisses)
    ABPROBE_FIELD(l1dAccesses)
    ABPROBE_FIELD(l1dMisses)
    ABPROBE_FIELD(arbOverflowStalls)
    ABPROBE_FIELD(extWaitByReg)
    ABPROBE_FIELD(puOccupiedCycles)
    ABPROBE_FIELD(eventSkippedCycles)
#undef ABPROBE_FIELD
    return nullptr;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string other = argc > 1 ? argv[1] : "other";
    std::vector<std::string> names = bench::intBenchmarks();
    for (const std::string &n : bench::fpBenchmarks())
        names.push_back(n);

    struct Variant
    {
        tasksel::Strategy strategy;
        bool size;
    };
    double thisSecs[REPS] = {}, otherSecs[REPS] = {};
    unsigned cells = 0, mismatches = 0;
    for (const std::string &name : names) {
        pipeline::Session session(
            workloads::buildWorkload(name, workloads::Scale::Full));
        std::vector<Variant> variants = {
            {tasksel::Strategy::BasicBlock, false},
            {tasksel::Strategy::ControlFlow, false},
            {tasksel::Strategy::DataDependence, false}};
        if (name == "compress" || name == "fpppp")
            variants.push_back({tasksel::Strategy::DataDependence, true});
        for (const Variant &v : variants) {
            for (bool ooo : {true, false}) {
                for (unsigned pus : {4u, 8u}) {
                    const report::RunSpec spec = report::makeSpec(
                        name, v.strategy, pus, ooo,
                        workloads::Scale::Full, TRACE_INSTS, v.size);
                    auto trace = session.trace(spec.opts);
                    const tasksel::TaskPartition &part =
                        trace->partition->partition;
                    const arch::SimConfig &cfg = spec.opts.config;
                    for (unsigned rep = 0; rep < REPS; ++rep) {
                        arch::SimStats mine, theirs;
                        auto runMine = [&] {
                            Clock::time_point t0 = Clock::now();
                            mine = arch::simulate(part, trace->tasks, cfg);
                            thisSecs[rep] += secondsSince(t0);
                        };
                        auto runTheirs = [&] {
                            Clock::time_point t0 = Clock::now();
                            abprobe::simulateOther(part, &trace->tasks,
                                                   &cfg, &theirs);
                            otherSecs[rep] += secondsSince(t0);
                        };
                        if ((cells + rep) % 2) {
                            runTheirs();
                            runMine();
                        } else {
                            runMine();
                            runTheirs();
                        }
                        if (const char *f = differingField(mine, theirs)) {
                            if (++mismatches <= 10)
                                std::printf("  mismatch: %s rep %u: %s\n",
                                            spec.id.c_str(), rep + 1, f);
                        }
                    }
                    ++cells;
                }
            }
        }
    }

    double mine = 0, theirs = 0;
    std::string perRep;
    for (unsigned rep = 0; rep < REPS; ++rep) {
        mine += thisSecs[rep];
        theirs += otherSecs[rep];
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%srep %u x%.3f",
                      rep ? ", " : "", rep + 1,
                      otherSecs[rep] / thisSecs[rep]);
        perRep += buf;
    }
    std::printf("abprobe: %u figure5 cells x %u reps, arch::simulate "
                "only, order alternating per cell\n",
                cells, REPS);
    std::printf("  %-10s %9.2f s\n", other.c_str(), theirs);
    std::printf("  %-10s %9.2f s\n", "this tree", mine);
    std::printf("  ratio      x%.3f (%s time / this tree's; %s)\n",
                theirs / mine, other.c_str(), perRep.c_str());
    std::printf("  SimStats   %u mismatches in %u cell runs\n",
                mismatches, cells * REPS);
    return mismatches ? 1 : 0;
}

#endif
