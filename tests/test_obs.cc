/**
 * @file
 * Tests of the observability subsystem (src/obs): trace-event output
 * validity and determinism, per-static-task attribution, and the
 * central accounting invariant — the task timeline *is* the cycle
 * accounting (summed span durations reproduce SimStats exactly).
 */

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "obs/crosscheck.h"
#include "obs/perfetto.h"
#include "obs/phase.h"
#include "obs/taskprof.h"
#include "obs/tracesink.h"
#include "report/json.h"
#include "pipeline/session.h"
#include "workloads/workload.h"

using namespace msc;
using namespace msc::obs;

namespace {

pipeline::StageOptions
baseOptions(tasksel::Strategy s, unsigned pus = 4)
{
    tasksel::SelectionOptions sel;
    sel.strategy = s;
    pipeline::StageOptions o = pipeline::StageOptions::fromSelection(sel);
    o.config = arch::SimConfig::paperConfig(pus, /*ooo=*/true);
    o.trace.traceInsts = 60'000;
    return o;
}

pipeline::StageResults
runTraced(const char *workload, tasksel::Strategy s, TraceSink *sink,
          unsigned pus = 4)
{
    pipeline::StageOptions o = baseOptions(s, pus);
    o.sink = sink;
    return pipeline::Session(workloads::buildWorkload(
                                 workload, workloads::Scale::Small))
        .runAll(o);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Disabled / inert paths.

TEST(TraceSinkTest, NullSinkLeavesStatsUnchanged)
{
    // Attaching an inert sink must not perturb the simulation: the
    // instrumented sites only *observe*.
    NullTraceSink null_sink;
    pipeline::StageResults plain =
        runTraced("compress", tasksel::Strategy::ControlFlow, nullptr);
    pipeline::StageResults traced = runTraced(
        "compress", tasksel::Strategy::ControlFlow, &null_sink);

    const arch::SimStats &a = plain.sim->stats, &b = traced.sim->stats;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retiredInsts, b.retiredInsts);
    EXPECT_EQ(a.retiredTasks, b.retiredTasks);
    EXPECT_EQ(a.buckets.counts, b.buckets.counts);
    EXPECT_EQ(a.puOccupiedCycles, b.puOccupiedCycles);
}

TEST(TraceSinkTest, TeeFansOutToAllSinks)
{
    TaskProfiler a, b;
    TeeSink tee({&a, &b});
    auto r = runTraced("compress", tasksel::Strategy::BasicBlock, &tee);
    ASSERT_GT(r.sim->stats.retiredTasks, 0u);
    EXPECT_EQ(a.totalCycles(), b.totalCycles());
    EXPECT_GT(a.totalCycles(), 0u);
}

// ---------------------------------------------------------------------
// Trace-event document validity and determinism.

TEST(PerfettoTest, DeterministicAndRoundTrips)
{
    // Same workload, config and seed twice: byte-identical JSON that
    // the in-tree parser accepts.
    PerfettoTraceWriter w1(4, "compress");
    PerfettoTraceWriter w2(4, "compress");
    runTraced("compress", tasksel::Strategy::ControlFlow, &w1);
    runTraced("compress", tasksel::Strategy::ControlFlow, &w2);

    std::string text = w1.str();
    EXPECT_EQ(text, w2.str());

    report::Json doc = report::Json::parse(text);
    ASSERT_TRUE(doc.has("traceEvents"));
    EXPECT_GT(doc.get("traceEvents").size(), 0u);
    // Serializing the parsed document reproduces the file.
    EXPECT_EQ(doc.dump(), text);
}

TEST(PerfettoTest, EventsAreWellFormed)
{
    PerfettoTraceWriter w(4, "tomcatv");
    runTraced("tomcatv", tasksel::Strategy::DataDependence, &w);
    report::Json doc = report::Json::parse(w.str());
    const report::Json &ev = doc.get("traceEvents");
    ASSERT_GT(ev.size(), 0u);

    // Per-(pid,tid) complete spans, for the overlap check below.
    std::map<std::pair<int64_t, int64_t>,
             std::vector<std::pair<int64_t, int64_t>>> spans;

    for (size_t i = 0; i < ev.size(); ++i) {
        const report::Json &e = ev.at(i);
        const std::string &ph = e.get("ph").asString();
        ASSERT_TRUE(ph == "X" || ph == "i" || ph == "C" || ph == "M")
            << "unexpected phase " << ph;
        if (ph == "M")
            continue;
        ASSERT_TRUE(e.has("ts"));
        EXPECT_GE(e.get("ts").asInt(), 0);
        if (ph == "X") {
            ASSERT_TRUE(e.has("dur"));
            EXPECT_GE(e.get("dur").asInt(), 0);
            spans[{e.get("pid").asInt(), e.get("tid").asInt()}]
                .emplace_back(e.get("ts").asInt(),
                              e.get("ts").asInt() + e.get("dur").asInt());
        }
    }

    // A PU runs one task instance at a time, so its spans must tile
    // without overlap.
    for (auto &[track, v] : spans) {
        std::sort(v.begin(), v.end());
        for (size_t i = 1; i < v.size(); ++i)
            EXPECT_LE(v[i - 1].second, v[i].first)
                << "overlapping spans on pid " << track.first
                << " tid " << track.second;
    }
}

TEST(PerfettoTest, PhaseSpansAreOptInAndSeparate)
{
    PerfettoTraceWriter w(2, "compress");
    ir::Program p = workloads::buildWorkload("compress",
                                             workloads::Scale::Small);
    pipeline::StageOptions o =
        baseOptions(tasksel::Strategy::BasicBlock, 2);
    o.sink = &w;
    PhaseTimes pt;
    o.phaseTimes = &pt;
    pipeline::Session(p).runAll(o);

    EXPECT_GT(pt.total(), 0.0);
    for (double us : pt.micros)
        EXPECT_GE(us, 0.0);
    // The timing sim dominates any real run enough to register.
    EXPECT_GT(pt.micros[size_t(PipelinePhase::TimingSim)], 0.0);

    std::string without = w.str();
    w.addPhaseSpans(pt);
    std::string with = w.str();
    EXPECT_NE(without, with);

    // The wall-clock track lives in its own process, never pid 1.
    report::Json doc = report::Json::parse(with);
    const report::Json &ev = doc.get("traceEvents");
    bool saw_pipeline = false;
    for (size_t i = 0; i < ev.size(); ++i) {
        const report::Json &e = ev.at(i);
        if (e.get("pid").asInt() == PerfettoTraceWriter::PID_PIPELINE &&
            e.get("ph").asString() == "X")
            saw_pipeline = true;
    }
    EXPECT_TRUE(saw_pipeline);

    std::string table = formatPhaseTimes(pt);
    EXPECT_NE(table.find(pipelinePhaseName(PipelinePhase::TimingSim)),
              std::string::npos);
}

// ---------------------------------------------------------------------
// The killer invariant: summed span durations == SimStats, for every
// strategy on multiple workloads.

class TraceAccountingTest
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{};

TEST_P(TraceAccountingTest, SpansReproduceSimStats)
{
    auto [workload, strat] = GetParam();
    constexpr unsigned PUS = 4;

    PerfettoTraceWriter writer(PUS, workload);
    TaskProfiler prof;
    SpanAccounting xcheck(PUS);
    TeeSink tee({&writer, &prof, &xcheck});
    auto r = runTraced(workload, tasksel::Strategy(strat), &tee, PUS);
    ASSERT_GT(r.sim->stats.retiredTasks, 0u);

    // 1. The streaming cross-check: per-PU and per-phase sums match
    //    the simulator's own buckets.
    EXPECT_EQ(xcheck.verify(r.sim->stats), "");

    // 2. The same invariant through the serialized file: re-parse the
    //    emitted JSON and sum complete-span durations per PU track.
    report::Json doc = report::Json::parse(writer.str());
    const report::Json &ev = doc.get("traceEvents");
    std::vector<uint64_t> per_pu(PUS, 0);
    for (size_t i = 0; i < ev.size(); ++i) {
        const report::Json &e = ev.at(i);
        if (e.get("ph").asString() != "X" ||
            e.get("pid").asInt() != PerfettoTraceWriter::PID_SIM)
            continue;
        int64_t tid = e.get("tid").asInt();
        ASSERT_GE(tid, 0);
        ASSERT_LT(size_t(tid), per_pu.size());
        per_pu[size_t(tid)] += e.get("dur").asUInt();
    }
    ASSERT_EQ(r.sim->stats.puOccupiedCycles.size(), size_t(PUS));
    for (unsigned pu = 0; pu < PUS; ++pu)
        EXPECT_EQ(per_pu[pu], r.sim->stats.puOccupiedCycles[pu])
            << "PU " << pu << " span sum != occupied cycles";
    uint64_t grand = 0;
    for (uint64_t c : per_pu)
        grand += c;
    EXPECT_EQ(grand, r.sim->stats.buckets.total());

    // 3. The attribution profile accounts for every cycle and every
    //    retirement.
    EXPECT_EQ(prof.totalCycles(), r.sim->stats.buckets.total());
    uint64_t commits = 0, insts = 0;
    arch::CycleBuckets merged;
    for (const StaticTaskProfile &tp : prof.profiles()) {
        commits += tp.commits;
        insts += tp.committedInsts;
        merged.merge(tp.buckets);
    }
    EXPECT_EQ(commits, r.sim->stats.retiredTasks);
    EXPECT_EQ(insts, r.sim->stats.retiredInsts);
    for (size_t i = 0; i < arch::NUM_CYCLE_KINDS; ++i) {
        arch::CycleKind k = arch::CycleKind(i);
        if (k == arch::CycleKind::CtrlSquash ||
            k == arch::CycleKind::MemSquash)
            continue;   // Penalties live in squashPenaltyCycles.
        EXPECT_EQ(merged.counts[i], r.sim->stats.buckets.counts[i])
            << arch::cycleKindName(k);
    }
}

namespace {

std::string
accountingName(
    const ::testing::TestParamInfo<std::tuple<const char *, int>> &info)
{
    static const char *sn[] = {"bb", "cf", "dd"};
    return std::string(std::get<0>(info.param)) + "_" +
           sn[std::get<1>(info.param)];
}

} // anonymous namespace

INSTANTIATE_TEST_SUITE_P(
    Suite, TraceAccountingTest,
    ::testing::Combine(::testing::Values("compress", "tomcatv", "go"),
                       ::testing::Values(0, 1, 2)),
    accountingName);

// ---------------------------------------------------------------------
// msc.taskprof document.

TEST(TaskProfTest, SchemaAndRoundTrip)
{
    TaskProfiler prof;
    auto r = runTraced("compress", tasksel::Strategy::ControlFlow, &prof);

    report::Json doc =
        taskProfileToJson(prof, r.partition->partition, "compress");
    EXPECT_EQ(doc.get("schema").asString(), TASKPROF_SCHEMA_NAME);
    EXPECT_EQ(doc.get("schema_version").asInt(), TASKPROF_SCHEMA_VERSION);
    EXPECT_EQ(doc.get("workload").asString(), "compress");

    const report::Json &tasks = doc.get("tasks");
    ASSERT_GT(tasks.size(), 0u);
    uint64_t total = 0;
    int64_t prev_id = -1;
    for (size_t i = 0; i < tasks.size(); ++i) {
        const report::Json &t = tasks.at(i);
        for (const char *field :
             {"task", "func", "entry_block", "static_insts", "dispatches",
              "commits", "ctrl_squashes", "mem_squashes", "committed_insts",
              "squash_penalty_cycles", "cycle_breakdown", "total_cycles"})
            EXPECT_TRUE(t.has(field)) << field;
        // Ascending static-task order, only dispatched tasks.
        EXPECT_GT(t.get("task").asInt(), prev_id);
        prev_id = t.get("task").asInt();
        EXPECT_GT(t.get("dispatches").asUInt(), 0u);
        total += t.get("total_cycles").asUInt();
        // cycle_breakdown keys are the stable snake_case kind ids.
        const report::Json &br = t.get("cycle_breakdown");
        EXPECT_TRUE(br.has(arch::cycleKindId(arch::CycleKind::Useful)));
    }
    total += doc.get("bogus").get("squash_penalty_cycles").asUInt();
    EXPECT_EQ(total, r.sim->stats.buckets.total());

    // Dump → parse → dump is stable.
    std::string text = doc.dump(2);
    EXPECT_EQ(report::Json::parse(text).dump(2), text);
}

TEST(TaskProfTest, HotTasksTableRanksByCycles)
{
    TaskProfiler prof;
    auto r = runTraced("compress", tasksel::Strategy::BasicBlock, &prof);
    std::string table = formatHotTasks(prof, r.partition->partition, 5);
    EXPECT_NE(table.find("task"), std::string::npos);
    // The hottest task's cycle count appears in the table.
    uint64_t hottest = 0;
    for (const StaticTaskProfile &tp : prof.profiles())
        hottest = std::max(hottest, tp.totalCycles());
    EXPECT_NE(table.find(std::to_string(hottest)), std::string::npos);
}
