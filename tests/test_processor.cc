/**
 * @file
 * Tests of the dynamic task stream cutter and the full timing model.
 */

#include <gtest/gtest.h>

#include "arch/processor.h"
#include "arch/taskstream.h"
#include "helpers.h"
#include "profile/interpreter.h"
#include "profile/profiler.h"
#include "pipeline/session.h"
#include "tasksel/transforms.h"
#include "tasksel/selector.h"

using namespace msc;
using namespace msc::ir;
using namespace msc::arch;
using namespace msc::tasksel;

namespace {

struct Prepared
{
    Program prog;
    TaskPartition part;
    profile::Trace trace;
    std::vector<DynTask> tasks;
};

Prepared
prepare(Program p, Strategy s, bool size_heur = false)
{
    Prepared out{std::move(p), {}, {}, {}};
    profile::Profile prof = profile::profileProgram(out.prog);
    SelectionOptions opts;
    opts.strategy = s;
    opts.taskSizeHeuristic = size_heur;
    out.part = selectTasks(out.prog, prof, opts);
    profile::Interpreter in(out.prog);
    out.trace = in.trace();
    out.tasks = cutTasks(out.trace, out.part);
    return out;
}

} // anonymous namespace

TEST(TaskStream, ConcatenationEqualsTrace)
{
    auto pr = prepare(test::makeDiamondProgram(16),
                      Strategy::ControlFlow);
    size_t total = 0;
    for (const auto &t : pr.tasks)
        total += t.insts.size();
    EXPECT_EQ(total, pr.trace.size());
    // Order preserved.
    size_t k = 0;
    for (const auto &t : pr.tasks)
        for (const auto &di : t.insts)
            EXPECT_EQ(di.ref, pr.trace[k++].ref);
}

TEST(TaskStream, EveryTaskStartsAtItsEntry)
{
    auto pr = prepare(test::makeLoopProgram(20), Strategy::ControlFlow);
    for (const auto &t : pr.tasks) {
        const Task &st = pr.part.tasks[t.staticTask];
        EXPECT_EQ(t.insts.front().ref.block, st.entry);
        EXPECT_EQ(t.insts.front().ref.index, 0u);
        EXPECT_EQ(t.insts.front().ref.func, st.func);
    }
}

TEST(TaskStream, SuccessorTargetsResolve)
{
    auto pr = prepare(test::makeLoopProgram(20), Strategy::ControlFlow);
    for (size_t i = 0; i + 1 < pr.tasks.size(); ++i) {
        const DynTask &t = pr.tasks[i];
        EXPECT_FALSE(t.last);
        // Every non-final transition should be an exposed target of a
        // well-formed partition.
        EXPECT_GE(t.actualTargetIdx, 0) << "task " << i;
        EXPECT_EQ(t.nextEntry.block,
                  pr.part.tasks[pr.tasks[i + 1].staticTask].entry);
    }
    EXPECT_TRUE(pr.tasks.back().last);
}

TEST(TaskStream, BasicBlockTasksAreSingleBlocks)
{
    auto pr = prepare(test::makeDiamondProgram(8), Strategy::BasicBlock);
    for (const auto &t : pr.tasks) {
        BlockId b = t.insts.front().ref.block;
        for (const auto &di : t.insts)
            EXPECT_EQ(di.ref.block, b);
    }
}

TEST(TaskStream, IncludedCallStaysInCallerTask)
{
    auto pr = prepare(test::makeCallProgram(10, true),
                      Strategy::ControlFlow, /*size=*/true);
    ASSERT_EQ(pr.part.includedCalls.size(), 1u);
    // Callee instructions appear inside tasks whose static task
    // belongs to main.
    const Function *callee = pr.prog.findFunction("twice");
    for (const auto &t : pr.tasks) {
        bool has_callee = false;
        for (const auto &di : t.insts)
            if (di.ref.func == callee->id)
                has_callee = true;
        if (has_callee) {
            EXPECT_NE(pr.part.tasks[t.staticTask].func, callee->id)
                << "callee insts must ride in the caller's task";
        }
    }
}

TEST(TaskStream, NonIncludedCallSplitsTasks)
{
    auto pr = prepare(test::makeCallProgram(10, true),
                      Strategy::ControlFlow, /*size=*/false);
    const Function *callee = pr.prog.findFunction("twice");
    bool callee_task = false;
    for (const auto &t : pr.tasks) {
        if (pr.part.tasks[t.staticTask].func == callee->id) {
            callee_task = true;
            for (const auto &di : t.insts)
                EXPECT_EQ(di.ref.func, callee->id);
        }
    }
    EXPECT_TRUE(callee_task);
    // Call-ending tasks push a return site.
    bool saw_call_end = false;
    for (const auto &t : pr.tasks)
        if (t.endsInCall) {
            saw_call_end = true;
            EXPECT_TRUE(t.callReturnSite.valid());
        }
    EXPECT_TRUE(saw_call_end);
}

TEST(Simulate, RetiresEverything)
{
    auto pr = prepare(test::makeLoopProgram(30), Strategy::ControlFlow);
    SimStats s = simulate(pr.part, pr.tasks, SimConfig::paperConfig(4));
    EXPECT_EQ(s.retiredInsts, pr.trace.size());
    EXPECT_EQ(s.retiredTasks, pr.tasks.size());
    EXPECT_GT(s.cycles, 0u);
    EXPECT_GT(s.ipc(), 0.0);
}

TEST(Simulate, IpcBoundedByMachineWidth)
{
    auto pr = prepare(test::makeLoopProgram(100), Strategy::ControlFlow);
    SimConfig cfg = SimConfig::paperConfig(4);
    SimStats s = simulate(pr.part, pr.tasks, cfg);
    EXPECT_LE(s.ipc(), double(cfg.numPUs * cfg.issueWidth));
}

TEST(Simulate, MorePusHelpParallelLoop)
{
    // Iterations of the loop program are independent except the IV
    // and sum: more PUs must not hurt, and should help.
    Program p = test::makeLoopProgram(200);
    tasksel::hoistInductionVariables(p);
    auto pr = prepare(std::move(p), Strategy::ControlFlow);
    SimStats s1 = simulate(pr.part, pr.tasks, SimConfig::paperConfig(1));
    SimStats s4 = simulate(pr.part, pr.tasks, SimConfig::paperConfig(4));
    EXPECT_LT(s4.cycles, s1.cycles);
    EXPECT_GT(double(s1.cycles) / double(s4.cycles), 1.3);
}

TEST(Simulate, InOrderNoFasterThanOutOfOrder)
{
    auto pr = prepare(test::makeDiamondProgram(64),
                      Strategy::ControlFlow);
    SimStats ooo = simulate(pr.part, pr.tasks,
                            SimConfig::paperConfig(4, true));
    SimStats ino = simulate(pr.part, pr.tasks,
                            SimConfig::paperConfig(4, false));
    EXPECT_LE(ooo.cycles, ino.cycles + ino.cycles / 10);
}

TEST(Simulate, MemViolationsDetectedOnConflicts)
{
    // Loads of addresses stored by the immediately preceding task:
    // speculation must trip at least once before synchronization
    // kicks in.
    auto pr = prepare(test::makeConflictProgram(64),
                      Strategy::BasicBlock);
    SimStats s = simulate(pr.part, pr.tasks, SimConfig::paperConfig(4));
    EXPECT_EQ(s.retiredInsts, pr.trace.size());
    EXPECT_GT(s.memViolations, 0u);
    EXPECT_GT(s.tasksSquashedMem, 0u);
}

TEST(Simulate, SyncTableLimitsRepeatViolations)
{
    auto pr = prepare(test::makeConflictProgram(200),
                      Strategy::BasicBlock);
    SimStats s = simulate(pr.part, pr.tasks, SimConfig::paperConfig(4));
    // Without synchronization every iteration would violate (~200);
    // the sync table should cut that dramatically.
    EXPECT_LT(s.memViolations, 50u);
}

TEST(Simulate, BucketsCoverExecution)
{
    auto pr = prepare(test::makeDiamondProgram(64),
                      Strategy::ControlFlow);
    SimConfig cfg = SimConfig::paperConfig(4);
    SimStats s = simulate(pr.part, pr.tasks, cfg);
    // All buckets are populated sanely and the total is within the
    // machine's cycle envelope.
    EXPECT_GT(s.buckets.counts[size_t(CycleKind::Useful)], 0u);
    EXPECT_LE(s.buckets.total() + s.idlePuCycles,
              (s.cycles + 2) * cfg.numPUs + s.retiredTasks *
                  (cfg.taskStartOverhead + cfg.taskEndOverhead));
    EXPECT_GT(s.measuredWindowSpan, 0.0);
}

TEST(Simulate, DeterministicAcrossRuns)
{
    auto pr = prepare(test::makeRandomProgram(5, 2),
                      Strategy::ControlFlow);
    SimStats a = simulate(pr.part, pr.tasks, SimConfig::paperConfig(4));
    SimStats b = simulate(pr.part, pr.tasks, SimConfig::paperConfig(4));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.taskMispredictions, b.taskMispredictions);
    EXPECT_EQ(a.memViolations, b.memViolations);
}

TEST(Simulate, TaskOverheadScalesWithTaskCount)
{
    auto pr = prepare(test::makeLoopProgram(100), Strategy::BasicBlock);
    SimConfig cfg = SimConfig::paperConfig(4);
    SimStats s = simulate(pr.part, pr.tasks, cfg);
    EXPECT_EQ(s.buckets.counts[size_t(CycleKind::TaskEnd)],
              s.retiredTasks * cfg.taskEndOverhead);
}

TEST(Simulate, EmptyStreamIsFine)
{
    auto pr = prepare(test::makeLoopProgram(1), Strategy::BasicBlock);
    std::vector<DynTask> none;
    SimStats s = simulate(pr.part, none, SimConfig::paperConfig(4));
    EXPECT_EQ(s.cycles, 0u);
    EXPECT_EQ(s.retiredInsts, 0u);
}

TEST(Simulate, SingleTaskProgram)
{
    IRBuilder b("one");
    b.setEntry("main");
    auto &f = b.function("main");
    f.li(8, 1);
    f.li(9, 2);
    f.add(10, 8, 9);
    f.storeAbs(10, 0);
    f.halt();
    auto pr = prepare(b.build(), Strategy::ControlFlow);
    ASSERT_EQ(pr.tasks.size(), 1u);
    SimStats s = simulate(pr.part, pr.tasks, SimConfig::paperConfig(4));
    EXPECT_EQ(s.retiredTasks, 1u);
    EXPECT_EQ(s.retiredInsts, 5u);
    EXPECT_EQ(s.taskPredictions, 0u);
}

TEST(Runner, PipelineEndToEnd)
{
    tasksel::SelectionOptions sel;
    sel.strategy = Strategy::DataDependence;
    pipeline::StageOptions o = pipeline::StageOptions::fromSelection(sel);
    o.config = SimConfig::paperConfig(4);
    pipeline::StageResults r =
        pipeline::Session(test::makeLoopProgram(100)).runAll(o);
    EXPECT_GT(r.sim->stats.ipc(), 0.0);
    EXPECT_GT(r.trace->tasks.size(), 0u);
    EXPECT_GE(r.transformed->ivsHoisted, 1u);
}

TEST(Runner, PartitionOnlySkipsSimulation)
{
    pipeline::Session session(test::makeLoopProgram(50));
    pipeline::StageOptions o;
    EXPECT_FALSE(session.select(o)->partition.tasks.empty());
    EXPECT_EQ(
        session.cacheStats()[pipeline::StageKind::Simulate].computed,
        0u);
}
