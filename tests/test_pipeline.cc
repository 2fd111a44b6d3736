/**
 * @file
 * Integration and property tests over the full pipeline: workloads x
 * strategies x configurations, partition invariants on random
 * programs, and the paper's qualitative orderings.
 */

#include <gtest/gtest.h>

#include "arch/taskstream.h"
#include "helpers.h"
#include "profile/interpreter.h"
#include "pipeline/session.h"
#include "tasksel/pverify.h"
#include "workloads/workload.h"

using namespace msc;
using namespace msc::tasksel;

namespace {

pipeline::StageResults
run(const ir::Program &p, Strategy s, unsigned pus = 4, bool ooo = true,
    bool size_heur = false)
{
    SelectionOptions sel;
    sel.strategy = s;
    sel.taskSizeHeuristic = size_heur;
    pipeline::StageOptions o = pipeline::StageOptions::fromSelection(sel);
    o.config = arch::SimConfig::paperConfig(pus, ooo);
    o.trace.traceInsts = 60'000;
    return pipeline::Session(p).runAll(o);
}

} // anonymous namespace

class PipelineTest
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{};

TEST_P(PipelineTest, CompletesAndRetiresTrace)
{
    auto [name, strat] = GetParam();
    ir::Program p = workloads::buildWorkload(name,
                                             workloads::Scale::Small);
    pipeline::StageResults r = run(p, Strategy(strat));
    EXPECT_GT(r.sim->stats.ipc(), 0.05);
    EXPECT_LE(r.sim->stats.ipc(), 8.0);
    EXPECT_GT(r.sim->stats.retiredTasks, 0u);
    EXPECT_GT(r.sim->stats.avgTaskSize(), 1.0);
    // The timing model retired exactly the functional trace.
    profile::Interpreter in(*r.transformed->prog);
    in.runQuiet(60'000);
    EXPECT_EQ(r.sim->stats.retiredInsts, in.instCount());
}

namespace {

std::string
pipelineName(
    const ::testing::TestParamInfo<std::tuple<const char *, int>> &info)
{
    static const char *sn[] = {"bb", "cf", "dd"};
    return std::string(std::get<0>(info.param)) + "_" +
           sn[std::get<1>(info.param)];
}

} // anonymous namespace

INSTANTIATE_TEST_SUITE_P(
    Suite, PipelineTest,
    ::testing::Combine(
        ::testing::Values("go", "m88ksim", "compress", "li", "ijpeg",
                          "perl", "vortex", "gcc", "tomcatv", "swim",
                          "su2cor", "hydro2d", "mgrid", "applu", "turb3d",
                          "apsi", "fpppp", "wave5"),
        ::testing::Values(0, 1, 2)),
    pipelineName);

class HeuristicOrdering : public ::testing::TestWithParam<const char *>
{};

TEST_P(HeuristicOrdering, MultiBlockTasksBeatBasicBlocks)
{
    // The paper's headline (Figure 5): the heuristics substantially
    // outperform basic-block tasks on every benchmark.
    ir::Program p = workloads::buildWorkload(GetParam(),
                                             workloads::Scale::Small);
    auto bb = run(p, Strategy::BasicBlock);
    auto cf = run(p, Strategy::ControlFlow);
    EXPECT_GT(cf.sim->stats.ipc(), bb.sim->stats.ipc() * 1.05)
        << "control-flow tasks must clearly beat basic-block tasks";
}

TEST_P(HeuristicOrdering, TaskSizesGrowWithHeuristics)
{
    // Table 1: control-flow and data-dependence tasks are larger than
    // basic-block tasks.
    ir::Program p = workloads::buildWorkload(GetParam(),
                                             workloads::Scale::Small);
    auto bb = run(p, Strategy::BasicBlock);
    auto cf = run(p, Strategy::ControlFlow);
    EXPECT_GT(cf.sim->stats.avgTaskSize(), bb.sim->stats.avgTaskSize());
}

TEST_P(HeuristicOrdering, WindowSpanGrowsWithHeuristics)
{
    // §4.3.4: heuristic tasks establish far larger windows.
    ir::Program p = workloads::buildWorkload(GetParam(),
                                             workloads::Scale::Small);
    auto bb = run(p, Strategy::BasicBlock, 8);
    auto dd = run(p, Strategy::DataDependence, 8);
    EXPECT_GT(dd.sim->stats.measuredWindowSpan,
              bb.sim->stats.measuredWindowSpan);
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, HeuristicOrdering,
    ::testing::Values("go", "m88ksim", "compress", "li", "ijpeg", "perl",
                      "tomcatv", "swim", "hydro2d", "applu", "fpppp",
                      "wave5"),
    [](const auto &info) { return std::string(info.param); });

TEST(HeuristicEffects, EightPusNoSlowerThanFour)
{
    for (const char *name : {"tomcatv", "m88ksim", "ijpeg"}) {
        ir::Program p = workloads::buildWorkload(
            name, workloads::Scale::Small);
        auto p4 = run(p, Strategy::ControlFlow, 4);
        auto p8 = run(p, Strategy::ControlFlow, 8);
        EXPECT_LE(p8.sim->stats.cycles, p4.sim->stats.cycles + p4.sim->stats.cycles / 20)
            << name;
    }
}

TEST(HeuristicEffects, SizeHeuristicGrowsCompressTasks)
{
    // "Only 129.compress and 145.fpppp respond to the task size
    // heuristic": for the compress analog the response is loop
    // unrolling that visibly grows tasks. (In this substrate the IPC
    // response is within noise of the strong DD baseline — see
    // EXPERIMENTS.md — so the mechanism, size growth at comparable
    // IPC, is what we pin down.)
    ir::Program p = workloads::buildWorkload("compress",
                                             workloads::Scale::Small);
    auto plain = run(p, Strategy::DataDependence, 4, true, false);
    auto sized = run(p, Strategy::DataDependence, 4, true, true);
    EXPECT_GE(sized.transformed->loopsUnrolled, 1u);
    EXPECT_GT(sized.sim->stats.avgTaskSize(), plain.sim->stats.avgTaskSize());
    EXPECT_GT(sized.sim->stats.ipc(), plain.sim->stats.ipc() * 0.9);
}

TEST(HeuristicEffects, SizeHeuristicIncludesFppppCalls)
{
    ir::Program p = workloads::buildWorkload("fpppp",
                                             workloads::Scale::Small);
    auto plain = run(p, Strategy::DataDependence, 4, true, false);
    auto sized = run(p, Strategy::DataDependence, 4, true, true);
    EXPECT_FALSE(sized.partition->partition.includedCalls.empty());
    EXPECT_GT(sized.sim->stats.avgTaskSize(),
              plain.sim->stats.avgTaskSize() * 1.5);
    EXPECT_GT(sized.sim->stats.ipc(), plain.sim->stats.ipc() * 0.9);
}

TEST(HeuristicEffects, WindowSpanFormulaTracksMeasurement)
{
    // §4.3.4: window span = sum TaskSize * Pred^i approximates the
    // measured concurrent window.
    ir::Program p = workloads::buildWorkload("swim",
                                             workloads::Scale::Small);
    auto r = run(p, Strategy::ControlFlow, 8);
    double formula = r.sim->stats.formulaWindowSpan(8);
    double measured = r.sim->stats.measuredWindowSpan;
    EXPECT_GT(measured, formula * 0.3);
    EXPECT_LT(measured, formula * 3.0);
}

class RandomPipeline : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(RandomPipeline, InvariantsHoldEndToEnd)
{
    uint64_t seed = GetParam();
    ir::Program p = test::makeRandomProgram(seed, 3);

    for (int strat = 0; strat < 3; ++strat) {
        SelectionOptions sel;
        sel.strategy = Strategy(strat);
        sel.taskSizeHeuristic = (seed % 2) == 0;
        sel.ddTerminateAtDependence = (seed % 3) == 0;
        pipeline::StageOptions o =
            pipeline::StageOptions::fromSelection(sel);
        o.config = arch::SimConfig::paperConfig(seed % 5 ? 4 : 8);
        o.trace.traceInsts = 30'000;
        pipeline::StageResults r = pipeline::Session(p).runAll(o);

        // Functional equivalence: the transformed program computes
        // the same checksum as the original.
        profile::Interpreter orig(p), xform(*r.transformed->prog);
        orig.runQuiet();
        xform.runQuiet();
        EXPECT_EQ(orig.mem(0), xform.mem(0)) << "seed " << seed;

        // Timing model retired the whole trace.
        profile::Interpreter again(*r.transformed->prog);
        again.runQuiet(30'000);
        EXPECT_EQ(r.sim->stats.retiredInsts, again.instCount());
        EXPECT_GT(r.sim->stats.ipc(), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipeline,
                         ::testing::Range<uint64_t>(1, 21));
