/**
 * @file
 * Tests for the pipeline::Session staged API and its content-addressed
 * artifact caches (docs/API.md):
 *
 *  - invalidation exactness: each option field re-runs exactly the
 *    stages that read it (SimConfig reuses the trace; strategy reuses
 *    transform + profile; loopThresh with the size heuristic off is
 *    inert);
 *  - compute-once semantics under concurrent stage calls;
 *  - on-disk cache: Profile and Partition artifacts round-trip
 *    losslessly and a fresh process-equivalent Session loads instead
 *    of recomputing;
 *  - sweep byte-determinism: cold vs warm SessionPool runs emit
 *    byte-identical msc.sweep documents, and the ISSUE acceptance
 *    grid (2 strategies x 4 SimConfigs) computes exactly 2 frontends.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "helpers.h"
#include "pipeline/pool.h"
#include "pipeline/session.h"
#include "report/record.h"
#include "report/sweep.h"
#include "workloads/workload.h"

using namespace msc;
using pipeline::CacheStats;
using pipeline::Session;
using pipeline::SessionConfig;
using pipeline::StageKind;
using pipeline::StageOptions;

namespace {

StageOptions
ddOptions()
{
    tasksel::SelectionOptions sel;
    sel.strategy = tasksel::Strategy::DataDependence;
    StageOptions o = StageOptions::fromSelection(sel);
    o.profile.profileInsts = 20'000;
    o.trace.traceInsts = 10'000;
    o.config = arch::SimConfig::paperConfig(2);
    return o;
}

uint64_t
computedAt(const Session &s, StageKind k)
{
    return s.cacheStats()[k].computed;
}

/** A unique fresh directory under the test binary's scratch space. */
std::string
freshCacheDir(const char *name)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        (std::string("msc-session-") + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

} // anonymous namespace

// ----------------------------------------------------- invalidation

TEST(SessionCache, SimConfigSweepReusesTrace)
{
    Session s(test::makeLoopProgram(200));
    StageOptions o = ddOptions();

    for (unsigned pus : {1u, 2u, 4u, 8u}) {
        o.config = arch::SimConfig::paperConfig(pus);
        s.simulate(o);
    }

    EXPECT_EQ(computedAt(s, StageKind::Transform), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Profile), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Select), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Trace), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Simulate), 4u);
    // The three warm sweeps hit the cached trace artifact.
    EXPECT_GE(s.cacheStats()[StageKind::Trace].hits, 3u);
}

TEST(SessionCache, RepeatedCallReturnsSameArtifact)
{
    Session s(test::makeLoopProgram(100));
    StageOptions o = ddOptions();
    auto a = s.simulate(o);
    auto b = s.simulate(o);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(computedAt(s, StageKind::Simulate), 1u);
}

TEST(SessionCache, StrategyInvalidatesExactlySelectionAndBelow)
{
    Session s(test::makeCallProgram(60));
    StageOptions o = ddOptions();
    auto dd = s.trace(o);

    o.sel.strategy = tasksel::Strategy::BasicBlock;
    auto bb = s.trace(o);

    EXPECT_NE(dd->key, bb->key);
    EXPECT_EQ(computedAt(s, StageKind::Transform), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Profile), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Select), 2u);
    EXPECT_EQ(computedAt(s, StageKind::Trace), 2u);
    // Both partitions alias the one shared transformed program.
    EXPECT_EQ(dd->partition->transformed.get(),
              bb->partition->transformed.get());
}

TEST(SessionCache, LoopThreshInvalidatesTransformWhenHeuristicOn)
{
    Session s(test::makeLoopProgram(100));
    tasksel::SelectionOptions sel;
    sel.taskSizeHeuristic = true;
    sel.loopThresh = 30;
    StageOptions o = StageOptions::fromSelection(sel);
    o.profile.profileInsts = 20'000;
    s.profile(o);

    sel.loopThresh = 60;
    StageOptions o2 = StageOptions::fromSelection(sel);
    o2.profile.profileInsts = 20'000;
    s.profile(o2);

    EXPECT_EQ(computedAt(s, StageKind::Transform), 2u);
    EXPECT_EQ(computedAt(s, StageKind::Profile), 2u);
}

TEST(SessionCache, InertKnobsAreCanonicalizedOutOfTheKey)
{
    Session s(test::makeLoopProgram(100));
    StageOptions o = ddOptions();          // taskSizeHeuristic off
    s.trace(o);

    // With the size heuristic off, loopThresh and callThresh are
    // never read, so changing them must not miss any cache.
    o.sel.loopThresh = 99;
    o.transform.loopThresh = 99;
    o.sel.callThresh = 99;
    s.trace(o);
    // verifyPartition gates a check, not a result: also not hashed.
    o.verifyPartition = false;
    s.trace(o);

    EXPECT_EQ(computedAt(s, StageKind::Transform), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Profile), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Select), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Trace), 1u);
}

TEST(SessionCache, TraceInstsInvalidatesOnlyTraceAndSim)
{
    Session s(test::makeLoopProgram(100));
    StageOptions o = ddOptions();
    s.simulate(o);
    o.trace.traceInsts = 5'000;
    s.simulate(o);

    EXPECT_EQ(computedAt(s, StageKind::Select), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Trace), 2u);
    EXPECT_EQ(computedAt(s, StageKind::Simulate), 2u);
}

TEST(SessionCache, ComputeOnceUnderConcurrency)
{
    Session s(test::makeLoopProgram(500));
    StageOptions o = ddOptions();

    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i)
        threads.emplace_back([&] { s.trace(o); });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(computedAt(s, StageKind::Transform), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Profile), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Select), 1u);
    EXPECT_EQ(computedAt(s, StageKind::Trace), 1u);
}

// ------------------------------------------------------- disk cache

TEST(SessionDiskCache, RoundTripsProfileAndPartitionLosslessly)
{
    const std::string dir = freshCacheDir("roundtrip");
    ir::Program prog =
        workloads::buildWorkload("compress", workloads::Scale::Small);
    StageOptions o = ddOptions();
    o.sel.taskSizeHeuristic = true;    // exercise includedCalls
    o.transform.taskSizeHeuristic = true;

    Session cold(prog, SessionConfig{dir});
    auto part1 = cold.select(o);
    const profile::Profile &p1 = cold.profile(o)->profile;

    // A second Session over the same directory stands in for a fresh
    // process: everything must come from disk, nothing recomputed.
    Session warm(prog, SessionConfig{dir});
    auto part2 = warm.select(o);
    const profile::Profile &p2 = warm.profile(o)->profile;

    EXPECT_EQ(computedAt(warm, StageKind::Transform), 0u);
    EXPECT_EQ(computedAt(warm, StageKind::Profile), 0u);
    EXPECT_EQ(computedAt(warm, StageKind::Select), 0u);
    EXPECT_GE(warm.cacheStats().diskHits(), 3u);

    // Profile: every map and counter identical.
    EXPECT_EQ(p1.totalInsts, p2.totalInsts);
    EXPECT_EQ(p1.blockCount, p2.blockCount);
    EXPECT_EQ(p1.edgeCount, p2.edgeCount);
    EXPECT_EQ(p1.funcInvocations, p2.funcInvocations);
    EXPECT_EQ(p1.funcInclusiveInsts, p2.funcInclusiveInsts);
    EXPECT_EQ(p1.defUseCount, p2.defUseCount);

    // Partition: task-by-task structural equality.
    const tasksel::TaskPartition &a = part1->partition;
    const tasksel::TaskPartition &b = part2->partition;
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (size_t i = 0; i < a.tasks.size(); ++i) {
        const tasksel::Task &x = a.tasks[i], &y = b.tasks[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.func, y.func);
        EXPECT_EQ(x.entry, y.entry);
        EXPECT_EQ(x.blocks, y.blocks);
        EXPECT_EQ(x.createMask, y.createMask);
        EXPECT_EQ(x.staticInsts, y.staticInsts);
        ASSERT_EQ(x.targets.size(), y.targets.size());
        for (size_t t = 0; t < x.targets.size(); ++t)
            EXPECT_TRUE(x.targets[t] == y.targets[t]);
    }
    EXPECT_EQ(a.taskOf, b.taskOf);
    EXPECT_EQ(a.includedCalls, b.includedCalls);
    EXPECT_EQ(a.fwdSafe, b.fwdSafe);

    // And the loaded frontend drives the backend to the same result.
    EXPECT_EQ(cold.simulate(o)->stats.cycles,
              warm.simulate(o)->stats.cycles);

    std::filesystem::remove_all(dir);
}

TEST(SessionDiskCache, CorruptEntryFallsBackToRecompute)
{
    const std::string dir = freshCacheDir("corrupt");
    StageOptions o = ddOptions();
    ir::Program prog = test::makeLoopProgram(100);
    {
        Session cold(prog, SessionConfig{dir});
        cold.select(o);
    }
    // Truncate every cached artifact file.
    for (const auto &e : std::filesystem::directory_iterator(dir))
        std::ofstream(e.path(), std::ios::trunc).close();

    Session warm(prog, SessionConfig{dir});
    auto part = warm.select(o);
    EXPECT_GT(part->partition.size(), 0u);
    EXPECT_EQ(warm.cacheStats().diskHits(), 0u);
    EXPECT_EQ(computedAt(warm, StageKind::Select), 1u);

    std::filesystem::remove_all(dir);
}

// --------------------------------------------------- sweep contract

TEST(SessionSweep, ColdVsWarmByteIdentical)
{
    std::vector<report::RunSpec> specs;
    for (auto s : {tasksel::Strategy::BasicBlock,
                   tasksel::Strategy::DataDependence})
        for (unsigned pus : {2u, 4u})
            specs.push_back(report::makeSpec(
                "compress", s, pus, true, workloads::Scale::Small,
                10'000));

    pipeline::SessionPool pool;
    report::SweepRunner runner(2);
    std::string cold =
        report::sweepToJson(runner.run(specs, pool)).dump(2);
    uint64_t cold_computed = pool.stats().computed();

    std::string warm =
        report::sweepToJson(runner.run(specs, pool)).dump(2);
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(pool.stats().computed(), cold_computed);

    // And a pool-less cold run (fresh sessions) says the same bytes.
    std::string fresh =
        report::sweepToJson(report::SweepRunner(1).run(specs)).dump(2);
    EXPECT_EQ(cold, fresh);
}

TEST(SessionSweep, AcceptanceGridComputesExactlyTwoFrontends)
{
    // 2 strategies x 4 SimConfigs; the strategies differ in the
    // transform stage too (task-size heuristic), so every frontend
    // stage computes exactly twice and the sims fan out to 8.
    std::vector<report::RunSpec> specs;
    struct Strat
    {
        tasksel::Strategy s;
        bool size;
    };
    for (Strat st : {Strat{tasksel::Strategy::BasicBlock, false},
                     Strat{tasksel::Strategy::DataDependence, true}})
        for (unsigned pus : {2u, 4u})
            for (bool ooo : {false, true})
                specs.push_back(report::makeSpec(
                    "compress", st.s, pus, ooo,
                    workloads::Scale::Small, 10'000, st.size));

    pipeline::SessionPool pool;
    report::SweepRunner(2).run(specs, pool);
    const CacheStats stats = pool.stats();
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(stats[StageKind::Transform].computed, 2u);
    EXPECT_EQ(stats[StageKind::Profile].computed, 2u);
    EXPECT_EQ(stats[StageKind::Select].computed, 2u);
    EXPECT_EQ(stats[StageKind::Trace].computed, 2u);
    EXPECT_EQ(stats[StageKind::Simulate].computed, 8u);
}
