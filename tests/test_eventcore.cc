/**
 * @file
 * The cycle/event core equivalence contract (docs/PERFORMANCE.md).
 *
 * CoreMode::Event must be an invisible optimization: for any
 * (partition, task stream, SimConfig), every observable output —
 * every SimStats field, the Perfetto trace document, and the exact
 * simulated cycle at which a Governor budget trips — must be
 * byte-identical to CoreMode::Cycle. The one deliberate exception is
 * SimStats::eventSkippedCycles, the diagnostic that proves skipping
 * engaged at all. These tests drive arch::simulate directly (not
 * through pipeline::Session, whose artifact cache would hand the
 * second core the first core's cached result and make the comparison
 * vacuous — coreMode is deliberately absent from artifact keys).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/processor.h"
#include "arch/taskstream.h"
#include "fuzz/corpus.h"
#include "helpers.h"
#include "ir/verifier.h"
#include "obs/perfetto.h"
#include "profile/interpreter.h"
#include "profile/profiler.h"
#include "runtime/budget.h"
#include "tasksel/selector.h"
#include "workloads/workload.h"

#ifndef MSC_CORPUS_DIR
#error "MSC_CORPUS_DIR must point at the committed corpus directory"
#endif

using namespace msc;
using namespace msc::arch;
using tasksel::Strategy;

namespace {

struct Prepared
{
    ir::Program prog;
    tasksel::TaskPartition part;
    profile::Trace trace;
    TaskStream tasks;
};

Prepared
prepare(ir::Program p, Strategy s)
{
    Prepared out{std::move(p), {}, {}, {}};
    profile::Profile prof = profile::profileProgram(out.prog);
    tasksel::SelectionOptions opts;
    opts.strategy = s;
    out.part = tasksel::selectTasks(out.prog, prof, opts);
    profile::Interpreter in(out.prog);
    out.trace = in.trace();
    out.tasks = cutTasks(out.trace, out.part);
    return out;
}

/** Field-wise SimStats equality, excluding only eventSkippedCycles.
 *  Spelled out per field so a divergence names the culprit. */
void
expectStatsEqual(const SimStats &c, const SimStats &e,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(c.cycles, e.cycles);
    EXPECT_EQ(c.retiredInsts, e.retiredInsts);
    EXPECT_EQ(c.retiredTasks, e.retiredTasks);
    EXPECT_EQ(c.buckets.counts, e.buckets.counts);
    EXPECT_EQ(c.idlePuCycles, e.idlePuCycles);
    EXPECT_EQ(c.taskPredictions, e.taskPredictions);
    EXPECT_EQ(c.taskMispredictions, e.taskMispredictions);
    EXPECT_EQ(c.branchPredictions, e.branchPredictions);
    EXPECT_EQ(c.branchMispredictions, e.branchMispredictions);
    EXPECT_EQ(c.memViolations, e.memViolations);
    EXPECT_EQ(c.tasksSquashedCtrl, e.tasksSquashedCtrl);
    EXPECT_EQ(c.tasksSquashedMem, e.tasksSquashedMem);
    EXPECT_EQ(c.syncStallCycles, e.syncStallCycles);
    EXPECT_EQ(c.dynTasks, e.dynTasks);
    EXPECT_EQ(c.dynTaskInsts, e.dynTaskInsts);
    EXPECT_EQ(c.dynTaskCtlInsts, e.dynTaskCtlInsts);
    // Bit-exact: both cores sum the same integers in the same order.
    EXPECT_EQ(c.measuredWindowSpan, e.measuredWindowSpan);
    EXPECT_EQ(c.l1iAccesses, e.l1iAccesses);
    EXPECT_EQ(c.l1iMisses, e.l1iMisses);
    EXPECT_EQ(c.l1dAccesses, e.l1dAccesses);
    EXPECT_EQ(c.l1dMisses, e.l1dMisses);
    EXPECT_EQ(c.arbOverflowStalls, e.arbOverflowStalls);
    EXPECT_EQ(c.extWaitByReg, e.extWaitByReg);
    EXPECT_EQ(c.puOccupiedCycles, e.puOccupiedCycles);
}

/** Runs one prepared workload under both cores (with Perfetto sinks)
 *  and asserts the whole observable contract. */
void
expectCoresAgree(const Prepared &pr, SimConfig cfg,
                 const std::string &what)
{
    cfg.coreMode = CoreMode::Cycle;
    obs::PerfettoTraceWriter wc(cfg.numPUs, "eventcore");
    SimStats c = simulate(pr.part, pr.tasks, cfg, &wc, nullptr);

    cfg.coreMode = CoreMode::Event;
    obs::PerfettoTraceWriter we(cfg.numPUs, "eventcore");
    SimStats e = simulate(pr.part, pr.tasks, cfg, &we, nullptr);

    expectStatsEqual(c, e, what);
    EXPECT_EQ(c.eventSkippedCycles, 0u) << what;
    EXPECT_EQ(wc.str(), we.str()) << what << ": trace diverged";
}

} // anonymous namespace

TEST(EventCore, EventIsTheDefaultCore)
{
    EXPECT_EQ(SimConfig{}.coreMode, CoreMode::Event);
    EXPECT_EQ(SimConfig::paperConfig(4).coreMode, CoreMode::Event);
}

TEST(EventCore, CoreModeParsesAndNames)
{
    CoreMode m;
    ASSERT_TRUE(parseCoreMode("cycle", m));
    EXPECT_EQ(m, CoreMode::Cycle);
    ASSERT_TRUE(parseCoreMode("event", m));
    EXPECT_EQ(m, CoreMode::Event);
    EXPECT_FALSE(parseCoreMode("warp", m));
    EXPECT_STREQ(coreModeName(CoreMode::Cycle), "cycle");
    EXPECT_STREQ(coreModeName(CoreMode::Event), "event");
}

/** Hand-built programs x strategies x machine shapes. The configs
 *  cover out-of-order and in-order PUs, 1/4/8 PUs, and a starved ARB
 *  (overflow-stall paths). */
TEST(EventCore, HandBuiltProgramsAgree)
{
    struct Shape
    {
        const char *name;
        SimConfig cfg;
    };
    std::vector<Shape> shapes;
    shapes.push_back({"4pu/ooo", SimConfig::paperConfig(4, true)});
    shapes.push_back({"8pu/ino", SimConfig::paperConfig(8, false)});
    shapes.push_back({"1pu/ooo", SimConfig::paperConfig(1, true)});
    SimConfig starved = SimConfig::paperConfig(2, true);
    starved.arbEntriesPerPU = 2;
    shapes.push_back({"2pu/tiny-arb", starved});

    struct Prog
    {
        const char *name;
        ir::Program p;
    };
    std::vector<Prog> progs;
    progs.push_back({"loop", test::makeLoopProgram(80)});
    progs.push_back({"diamond", test::makeDiamondProgram(64)});
    progs.push_back({"call", test::makeCallProgram(48)});
    progs.push_back({"conflict", test::makeConflictProgram(64)});

    for (const auto &pg : progs) {
        for (Strategy s : {Strategy::BasicBlock, Strategy::ControlFlow,
                           Strategy::DataDependence}) {
            Prepared pr = prepare(pg.p, s);
            for (const auto &sh : shapes) {
                expectCoresAgree(pr, sh.cfg,
                                 std::string(pg.name) + "/" +
                                     std::to_string(int(s)) + "/" +
                                     sh.name);
            }
        }
    }
}

/** Two real workloads at test scale, all three paper strategies. */
TEST(EventCore, WorkloadsAgree)
{
    for (const char *name : {"compress", "tomcatv"}) {
        ir::Program p =
            workloads::buildWorkload(name, workloads::Scale::Small);
        for (Strategy s : {Strategy::BasicBlock, Strategy::ControlFlow,
                           Strategy::DataDependence}) {
            Prepared pr = prepare(p, s);
            expectCoresAgree(pr, SimConfig::paperConfig(4, true),
                             std::string(name) + "/4pu");
            expectCoresAgree(pr, SimConfig::paperConfig(8, false),
                             std::string(name) + "/8pu");
        }
    }
}

/** The event core must actually skip on a memory-bound workload —
 *  otherwise every equivalence above is vacuously testing the same
 *  stepping loop twice. */
TEST(EventCore, SkippingEngages)
{
    Prepared pr = prepare(test::makeLoopProgram(200),
                          Strategy::ControlFlow);
    SimConfig cfg = SimConfig::paperConfig(4, true);
    cfg.coreMode = CoreMode::Event;
    SimStats e = simulate(pr.part, pr.tasks, cfg);
    EXPECT_GT(e.eventSkippedCycles, 0u);
    EXPECT_LT(e.eventSkippedCycles, e.cycles);

    cfg.coreMode = CoreMode::Cycle;
    SimStats c = simulate(pr.part, pr.tasks, cfg);
    EXPECT_EQ(c.eventSkippedCycles, 0u);
}

/**
 * Governor cycle budgets must trip at the same simulated cycle in
 * both cores: the event core clamps its jumps to the budget cycle
 * and to pulse boundaries so administrative checks fire exactly
 * where the stepping core performs them.
 */
TEST(EventCore, GovernorBudgetTripsAtSameCycle)
{
    Prepared pr = prepare(test::makeLoopProgram(200),
                          Strategy::ControlFlow);
    SimConfig cfg = SimConfig::paperConfig(4, true);

    // Find the natural length, then budget to a fraction of it.
    cfg.coreMode = CoreMode::Cycle;
    uint64_t natural = simulate(pr.part, pr.tasks, cfg).cycles;
    ASSERT_GT(natural, 100u);

    runtime::ExecBudget budget;
    budget.maxSimCycles = natural / 2;

    auto tripCycle = [&](CoreMode m) -> std::string {
        SimConfig c = cfg;
        c.coreMode = m;
        runtime::Governor gov(budget);
        try {
            simulate(pr.part, pr.tasks, c, nullptr, &gov);
        } catch (const runtime::StageError &e) {
            return e.what();
        }
        return "(no trip)";
    };

    std::string cycleErr = tripCycle(CoreMode::Cycle);
    std::string eventErr = tripCycle(CoreMode::Event);
    EXPECT_NE(cycleErr, "(no trip)");
    // Identical rendered errors imply the same trip cycle: the
    // message embeds the observed cycle count.
    EXPECT_EQ(cycleErr, eventErr);
}

/** Every committed fuzz reproducer replays identically on both
 *  cores (the corpus is the regression net for core divergences). */
TEST(EventCore, FuzzCorpusAgrees)
{
    std::vector<std::string> files = fuzz::corpusFiles(MSC_CORPUS_DIR);
    ASSERT_FALSE(files.empty());
    for (const auto &f : files) {
        ir::Program p = fuzz::loadReproducer(f);
        std::string err;
        ASSERT_TRUE(ir::verify(p, &err)) << f << ": " << err;
        for (Strategy s :
             {Strategy::BasicBlock, Strategy::ControlFlow}) {
            Prepared pr = prepare(p, s);
            expectCoresAgree(pr, SimConfig::paperConfig(4, true), f);
        }
    }
}
