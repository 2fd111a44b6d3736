/**
 * @file
 * Tests of the dynamic task stream cutter and the full timing model.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "arch/processor.h"
#include "arch/taskstream.h"
#include "fuzz/corpus.h"
#include "helpers.h"
#include "profile/interpreter.h"
#include "profile/profiler.h"
#include "pipeline/session.h"
#include "tasksel/transforms.h"
#include "tasksel/selector.h"
#include "workloads/workload.h"

using namespace msc;
using namespace msc::ir;
using namespace msc::arch;
using namespace msc::tasksel;

#ifndef MSC_CORPUS_DIR
#error "MSC_CORPUS_DIR must point at the committed corpus directory"
#endif

namespace {

struct Prepared
{
    Program prog;
    TaskPartition part;
    profile::Trace trace;
    TaskStream tasks;
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
    for (const auto &t : pr.tasks.tasks)
        total += t.size();
    EXPECT_EQ(total, pr.trace.size());
    // Order preserved.
    size_t k = 0;
    for (const auto &t : pr.tasks.tasks)
        for (const auto &di : pr.tasks.instsOf(t))
            EXPECT_EQ(pr.tasks.stat(di).ref, pr.trace[k++].ref);
}

TEST(TaskStream, EveryTaskStartsAtItsEntry)
{
    auto pr = prepare(test::makeLoopProgram(20), Strategy::ControlFlow);
    for (const auto &t : pr.tasks.tasks) {
        const Task &st = pr.part.tasks[t.staticTask];
        const InstRef first = pr.tasks.stat(pr.tasks.instsOf(t).front()).ref;
        EXPECT_EQ(first.block, st.entry);
        EXPECT_EQ(first.index, 0u);
        EXPECT_EQ(first.func, st.func);
    }
}

TEST(TaskStream, SuccessorTargetsResolve)
{
    auto pr = prepare(test::makeLoopProgram(20), Strategy::ControlFlow);
    const std::vector<DynTask> &tasks = pr.tasks.tasks;
    for (size_t i = 0; i + 1 < tasks.size(); ++i) {
        const DynTask &t = tasks[i];
        EXPECT_FALSE(t.last);
        // Every non-final transition should be an exposed target of a
        // well-formed partition.
        EXPECT_GE(t.actualTargetIdx, 0) << "task " << i;
        EXPECT_EQ(t.nextEntry.block,
                  pr.part.tasks[tasks[i + 1].staticTask].entry);
    }
    EXPECT_TRUE(tasks.back().last);
}

TEST(TaskStream, BasicBlockTasksAreSingleBlocks)
{
    auto pr = prepare(test::makeDiamondProgram(8), Strategy::BasicBlock);
    for (const auto &t : pr.tasks.tasks) {
        auto insts = pr.tasks.instsOf(t);
        BlockId b = pr.tasks.stat(insts.front()).ref.block;
        for (const auto &di : insts)
            EXPECT_EQ(pr.tasks.stat(di).ref.block, b);
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
    for (const auto &t : pr.tasks.tasks) {
        bool has_callee = false;
        for (const auto &di : pr.tasks.instsOf(t))
            if (pr.tasks.stat(di).ref.func == callee->id)
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
    for (const auto &t : pr.tasks.tasks) {
        if (pr.part.tasks[t.staticTask].func == callee->id) {
            callee_task = true;
            for (const auto &di : pr.tasks.instsOf(t))
                EXPECT_EQ(pr.tasks.stat(di).ref.func, callee->id);
        }
    }
    EXPECT_TRUE(callee_task);
    // Call-ending tasks push a return site.
    bool saw_call_end = false;
    for (const auto &t : pr.tasks.tasks)
        if (t.endsInCall) {
            saw_call_end = true;
            EXPECT_TRUE(t.callReturnSite.valid());
        }
    EXPECT_TRUE(saw_call_end);
}

namespace {

pipeline::StageOptions
stageOptions(Strategy s, uint64_t trace_insts)
{
    SelectionOptions sel;
    sel.strategy = s;
    pipeline::StageOptions o = pipeline::StageOptions::fromSelection(sel);
    o.trace.traceInsts = trace_insts;
    return o;
}

/**
 * Checks the cut stream of @p session under @p o against a fresh
 * interpreter trace: every TraceEntry rebuilds from the stream, pc and
 * the forward mask equal their IR formulas, and the task records tile
 * the instruction array.
 */
void
expectStreamRoundTrips(pipeline::Session &session,
                       const pipeline::StageOptions &o,
                       const std::string &what)
{
    SCOPED_TRACE(what);
    auto tt = session.trace(o);
    const TaskPartition &part = tt->partition->partition;
    const Program &prog = *part.prog;
    const TaskStream &ts = tt->tasks;
    profile::Interpreter interp(prog);
    profile::Trace trace = interp.trace(o.trace.traceInsts);

    ASSERT_EQ(ts.insts.size(), trace.size());
    ASSERT_EQ(ts.insts.capacity(), ts.insts.size());
    ASSERT_EQ(ts.statics.size(), prog.numInsts());

    uint64_t next = 0;
    for (const DynTask &t : ts.tasks) {
        ASSERT_EQ(t.first, next) << "gap or overlap";
        ASSERT_GT(t.count, 0u);
        next += t.count;
    }
    ASSERT_EQ(next, ts.insts.size());

    unsigned depth = 0;  // Included-call depth, as the cutter tracks it.
    for (size_t k = 0; k < trace.size(); ++k) {
        const profile::TraceEntry &e = trace[k];
        const DynInst &di = ts.insts[k];
        const StaticInst &si = ts.stat(di);
        ASSERT_EQ(si.ref, e.ref) << "entry " << k;
        ASSERT_EQ(di.addr, e.addr) << "entry " << k;
        ASSERT_EQ(di.taken, e.taken) << "entry " << k;
        ASSERT_EQ(si.pc, prog.instAddr(e.ref)) << "entry " << k;
        cfg::RegSet fwd = depth == 0
            ? part.fwdSafe[e.ref.func][e.ref.block][e.ref.index] : 0;
        ASSERT_EQ(ts.fwdMask(di), fwd) << "entry " << k;

        Opcode op = prog.inst(e.ref).op;
        if (op == Opcode::Call) {
            if (depth > 0)
                ++depth;
            else if (part.callIncluded(e.ref.blockRef()))
                depth = 1;
        } else if (op == Opcode::Ret && depth > 0) {
            --depth;
        }
    }
}

} // anonymous namespace

static_assert(sizeof(DynInst) == 16);

TEST(TaskStream, RoundTripsWorkloadTraces)
{
    for (const char *w : {"compress", "tomcatv", "go"}) {
        pipeline::Session session(
            workloads::buildWorkload(w, workloads::Scale::Small));
        for (Strategy s : {Strategy::BasicBlock, Strategy::ControlFlow,
                           Strategy::DataDependence}) {
            expectStreamRoundTrips(session, stageOptions(s, 100'000),
                                   std::string(w) + "/" +
                                       std::to_string(int(s)));
        }
    }
}

TEST(TaskStream, RoundTripsCorpusPrograms)
{
    std::vector<std::string> files = fuzz::corpusFiles(MSC_CORPUS_DIR);
    ASSERT_FALSE(files.empty());
    for (const auto &f : files) {
        pipeline::Session session(fuzz::loadReproducer(f));
        for (Strategy s : {Strategy::BasicBlock, Strategy::ControlFlow,
                           Strategy::DataDependence}) {
            expectStreamRoundTrips(session, stageOptions(s, 50'000),
                                   f + "/" + std::to_string(int(s)));
        }
    }
}

/** The stream's whole footprint, task records and static rows
 *  included, stays within 24 bytes per dynamic instruction. */
TEST(TaskStream, BytesPerInstructionBounded)
{
    pipeline::Session session(
        workloads::buildWorkload("compress", workloads::Scale::Full));
    auto tt = session.trace(stageOptions(Strategy::DataDependence,
                                         250'000));
    ASSERT_EQ(tt->traceInsts, 250'000u);
    double per_inst = double(tt->tasks.bytes()) / double(tt->traceInsts);
    EXPECT_LE(per_inst, 24.0);
    EXPECT_GE(tt->tasks.bytes(),
              tt->traceInsts * sizeof(DynInst) +
                  tt->tasks.tasks.size() * sizeof(DynTask));
}

TEST(TaskStream, LimitsRejectCountsBeyond32Bits)
{
    const uint64_t max = UINT32_MAX;
    EXPECT_NO_THROW(checkStreamLimits(max, max));
    try {
        checkStreamLimits(max + 1, 10);
        ADD_FAILURE() << "long trace accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("instruction index"),
                  std::string::npos) << e.what();
    }
    try {
        checkStreamLimits(10, max + 1);
        ADD_FAILURE() << "large program accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("static index"),
                  std::string::npos) << e.what();
    }
}

TEST(Simulate, RetiresEverything)
{
    auto pr = prepare(test::makeLoopProgram(30), Strategy::ControlFlow);
    SimStats s = simulate(pr.part, pr.tasks, SimConfig::paperConfig(4));
    EXPECT_EQ(s.retiredInsts, pr.trace.size());
    EXPECT_EQ(s.retiredTasks, pr.tasks.tasks.size());
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
    TaskStream none;
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
    ASSERT_EQ(pr.tasks.tasks.size(), 1u);
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
    EXPECT_GT(r.trace->tasks.tasks.size(), 0u);
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
