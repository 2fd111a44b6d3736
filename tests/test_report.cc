/**
 * @file
 * Tests for the src/report sweep/report subsystem: the JSON
 * value/parser round-trip, the documented metrics schema
 * (docs/METRICS.md), CSV flattening, and the SweepRunner determinism
 * contract (--jobs N output identical to serial).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "arch/stats.h"
#include "report/json.h"
#include "report/record.h"
#include "report/sweep.h"
#include "runtime/error.h"

using namespace msc;
using report::Json;

namespace {

/** One small, fast pipeline run shared by the schema tests. */
const report::RunRecord &
smallRecord()
{
    static const report::RunRecord r = report::runSpec(
        report::makeSpec("compress", tasksel::Strategy::DataDependence,
                         2, true, workloads::Scale::Small, 10'000));
    return r;
}

std::vector<report::RunSpec>
smallGrid()
{
    std::vector<report::RunSpec> specs;
    for (const char *w : {"compress", "li", "tomcatv"})
        for (auto s : {tasksel::Strategy::BasicBlock,
                       tasksel::Strategy::DataDependence})
            specs.push_back(report::makeSpec(w, s, 2, true,
                                             workloads::Scale::Small,
                                             10'000));
    return specs;
}

} // anonymous namespace

// ---------------------------------------------------------------- Json

TEST(Json, ScalarRoundTrip)
{
    Json o = Json::object();
    o["null"] = Json();
    o["t"] = true;
    o["f"] = false;
    o["int"] = int64_t(-42);
    o["uint"] = uint64_t(18'446'744'073'709'551'615ull);  // > INT64_MAX
    o["dbl"] = 0.1;
    o["whole_dbl"] = 3.0;   // must stay a double through the trip
    o["str"] = "quote \" backslash \\ newline \n tab \t";
    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    arr.push(Json::object());
    o["arr"] = std::move(arr);

    for (int indent : {0, 2, 4}) {
        Json back = Json::parse(o.dump(indent));
        EXPECT_EQ(o, back) << "indent=" << indent;
    }

    Json back = Json::parse(o.dump());
    EXPECT_EQ(back.get("uint").asUInt(),
              18'446'744'073'709'551'615ull);
    EXPECT_EQ(back.get("int").asInt(), -42);
    EXPECT_DOUBLE_EQ(back.get("dbl").asDouble(), 0.1);
    EXPECT_EQ(back.get("whole_dbl").kind(), Json::Kind::Double);
    EXPECT_EQ(back.get("str").asString(),
              "quote \" backslash \\ newline \n tab \t");
}

TEST(Json, PreservesInsertionOrder)
{
    Json o = Json::object();
    o["zebra"] = 1;
    o["apple"] = 2;
    o["mango"] = 3;
    std::string s = o.dump();
    EXPECT_LT(s.find("zebra"), s.find("apple"));
    EXPECT_LT(s.find("apple"), s.find("mango"));
    // Parse preserves the document's order too.
    EXPECT_EQ(Json::parse(s).dump(), s);
}

TEST(Json, IntDoubleDistinctness)
{
    EXPECT_NE(Json(int64_t(3)), Json(3.0));
    EXPECT_EQ(Json::parse("3").kind(), Json::Kind::Int);
    EXPECT_EQ(Json::parse("3.0").kind(), Json::Kind::Double);
    EXPECT_EQ(Json::parse("3.0").dump(), "3.0");
}

TEST(Json, ParseErrors)
{
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\":1} extra"), std::runtime_error);
    EXPECT_THROW(Json::parse("nul"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
}

TEST(Json, DeepNestingHitsRecursionLimit)
{
    // Just inside the cap parses; past it must throw instead of
    // overflowing the parser's stack.
    auto nested = [](int depth) {
        return std::string(size_t(depth), '[') + "1" +
               std::string(size_t(depth), ']');
    };
    Json ok = Json::parse(nested(199));
    EXPECT_EQ(ok.kind(), Json::Kind::Array);
    EXPECT_THROW(Json::parse(nested(201)), std::runtime_error);
    EXPECT_THROW(Json::parse(nested(100'000)), std::runtime_error);

    // Mixed object/array nesting counts against the same budget.
    std::string mixed;
    for (int i = 0; i < 150; ++i)
        mixed += "{\"k\":[";
    EXPECT_THROW(Json::parse(mixed), std::runtime_error);
}

TEST(Json, InvalidNumbers)
{
    EXPECT_THROW(Json::parse("-"), std::runtime_error);
    EXPECT_THROW(Json::parse("1.2.3"), std::runtime_error);
    EXPECT_THROW(Json::parse("1e"), std::runtime_error);
    EXPECT_THROW(Json::parse("--5"), std::runtime_error);
    EXPECT_THROW(Json::parse("+1"), std::runtime_error);
    EXPECT_THROW(Json::parse("0x10"), std::runtime_error);

    // Out-of-range integer literals degrade to double, not error.
    Json big = Json::parse("123456789012345678901234567890");
    EXPECT_EQ(big.kind(), Json::Kind::Double);
    // Full unsigned range stays integral.
    EXPECT_EQ(Json::parse("18446744073709551615").asUInt(),
              18446744073709551615ull);
    EXPECT_EQ(Json::parse("-9223372036854775808").asInt(),
              std::numeric_limits<int64_t>::min());
}

TEST(Json, TrailingGarbageRejected)
{
    EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
    EXPECT_THROW(Json::parse("[] []"), std::runtime_error);
    EXPECT_THROW(Json::parse("true false"), std::runtime_error);
    EXPECT_THROW(Json::parse("{} ,"), std::runtime_error);
    // Trailing whitespace alone is fine.
    EXPECT_EQ(Json::parse(" {\"a\": 1} \n").get("a").asInt(), 1);
}

TEST(Json, DuplicateKeysLastWins)
{
    Json v = Json::parse("{\"a\": 1, \"b\": 2, \"a\": 3}");
    EXPECT_EQ(v.get("a").asInt(), 3);
    // The duplicate overwrites in place: two members, order kept.
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v.members()[0].first, "a");
    EXPECT_EQ(v.members()[1].first, "b");
}

// -------------------------------------------------------------- Schema

TEST(Schema, EnvelopeAndRoundTrip)
{
    Json doc = report::sweepToJson({smallRecord()});
    EXPECT_EQ(doc.get("schema").asString(), report::SCHEMA_NAME);
    EXPECT_EQ(doc.get("schema_version").asInt(),
              report::SCHEMA_VERSION);
    ASSERT_EQ(doc.get("runs").size(), 1u);

    // dump → parse → structural equality: nothing the emitter writes
    // is lost or altered by a round trip through text.
    Json back = Json::parse(doc.dump(2));
    EXPECT_EQ(doc, back);
    // Compact and pretty forms parse to the same value.
    EXPECT_EQ(Json::parse(doc.dump()), back);
}

TEST(Schema, DocumentedFieldsPresent)
{
    const report::RunRecord &rec = smallRecord();
    Json run = report::runToJson(rec);

    EXPECT_EQ(run.get("id").asString(), rec.spec.id);
    EXPECT_EQ(run.get("workload").asString(), "compress");

    const Json &cfg = run.get("config");
    for (const char *k : {"strategy", "pus", "out_of_order",
                          "max_targets", "task_size_heuristic", "scale",
                          "trace_insts"})
        EXPECT_TRUE(cfg.has(k)) << "config." << k;
    EXPECT_EQ(cfg.get("strategy").asString(), "dd");
    EXPECT_EQ(cfg.get("pus").asUInt(), 2u);
    EXPECT_EQ(cfg.get("scale").asString(), "small");

    const Json &m = run.get("metrics");
    for (const char *k : {"cycles", "retired_insts", "retired_tasks",
                          "ipc", "cycle_breakdown",
                          "occupied_pu_cycles", "idle_pu_cycles",
                          "prediction", "memory", "tasks",
                          "window_span", "partition"})
        EXPECT_TRUE(m.has(k)) << "metrics." << k;

    // Every CycleKind appears under its stable id, and the breakdown
    // sums to the occupied-cycle total.
    const Json &buckets = m.get("cycle_breakdown");
    uint64_t sum = 0;
    for (size_t i = 0; i < arch::NUM_CYCLE_KINDS; ++i) {
        const char *id = arch::cycleKindId(arch::CycleKind(i));
        ASSERT_TRUE(buckets.has(id)) << id;
        sum += buckets.get(id).asUInt();
    }
    EXPECT_EQ(buckets.size(), arch::NUM_CYCLE_KINDS);
    EXPECT_EQ(sum, m.get("occupied_pu_cycles").asUInt());

    for (const char *k : {"task_predictions", "task_mispredictions",
                          "task_mispredict_pct",
                          "per_branch_mispredict_pct",
                          "branch_predictions",
                          "branch_mispredictions",
                          "branch_mispredict_pct"})
        EXPECT_TRUE(m.get("prediction").has(k)) << "prediction." << k;
    for (const char *k : {"violations", "tasks_squashed_ctrl",
                          "tasks_squashed_mem", "sync_stall_cycles",
                          "arb_overflow_stalls", "l1i_accesses",
                          "l1i_misses", "l1d_accesses", "l1d_misses"})
        EXPECT_TRUE(m.get("memory").has(k)) << "memory." << k;
    for (const char *k : {"dyn_tasks", "avg_task_insts",
                          "avg_task_ctl_insts", "dyn_tasks_cut"})
        EXPECT_TRUE(m.get("tasks").has(k)) << "tasks." << k;
    for (const char *k : {"measured", "formula"})
        EXPECT_TRUE(m.get("window_span").has(k)) << "window_span." << k;
    for (const char *k : {"static_tasks", "avg_static_insts",
                          "included_calls", "loops_unrolled",
                          "ivs_hoisted"})
        EXPECT_TRUE(m.get("partition").has(k)) << "partition." << k;

    // Values match the in-memory stats they were flattened from.
    EXPECT_EQ(m.get("cycles").asUInt(), rec.stats.cycles);
    EXPECT_EQ(m.get("retired_insts").asUInt(), rec.stats.retiredInsts);
    EXPECT_DOUBLE_EQ(m.get("ipc").asDouble(), rec.stats.ipc());
    EXPECT_EQ(m.get("partition").get("static_tasks").asUInt(),
              rec.staticTasks);
    EXPECT_DOUBLE_EQ(
        m.get("window_span").get("formula").asDouble(),
        rec.stats.formulaWindowSpan(rec.spec.opts.config.numPUs));
}

TEST(Schema, CsvMatchesJsonFlattening)
{
    std::vector<report::RunRecord> recs = {smallRecord(),
                                           smallRecord()};
    std::string csv = report::sweepToCsv(recs);

    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < csv.size()) {
        size_t nl = csv.find('\n', pos);
        lines.push_back(csv.substr(pos, nl - pos));
        pos = nl + 1;
    }
    ASSERT_EQ(lines.size(), 3u);   // header + 2 rows
    auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(lines[0]), commas(lines[1]));
    EXPECT_EQ(lines[1], lines[2]);   // identical records → rows
    EXPECT_EQ(lines[0].substr(0, 12), "id,workload,");
    EXPECT_NE(lines[0].find("metrics.ipc"), std::string::npos);
    EXPECT_NE(lines[0].find("metrics.cycle_breakdown.useful"),
              std::string::npos);
}

// --------------------------------------------------------- SweepRunner

TEST(SweepRunner, ParallelIdenticalToSerial)
{
    std::vector<report::RunSpec> specs = smallGrid();

    std::vector<report::RunRecord> serial =
        report::SweepRunner(1).run(specs);
    std::vector<report::RunRecord> parallel =
        report::SweepRunner(4).run(specs);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    // Results come back in input order...
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(serial[i].spec.id, specs[i].id);
        EXPECT_EQ(parallel[i].spec.id, specs[i].id);
    }
    // ...and the serialized sweeps are byte-identical.
    EXPECT_EQ(report::sweepToJson(serial).dump(2),
              report::sweepToJson(parallel).dump(2));
    EXPECT_EQ(report::sweepToCsv(serial),
              report::sweepToCsv(parallel));
}

TEST(SweepRunner, IsolatesPerCellFailures)
{
    std::vector<report::RunSpec> specs = smallGrid();
    specs[1].workload = "no-such-workload";

    std::vector<report::RunRecord> recs =
        report::SweepRunner(3).run(specs);

    ASSERT_EQ(recs.size(), specs.size());
    EXPECT_FALSE(recs[1].ok());
    EXPECT_EQ(recs[1].error.kind, runtime::ErrorKind::InvalidInput);
    EXPECT_EQ(recs[1].error.workload, "no-such-workload");
    for (size_t i = 0; i < recs.size(); ++i) {
        if (i != 1)
            EXPECT_TRUE(recs[i].ok()) << recs[i].spec.id;
    }
    EXPECT_EQ(report::sweepExitCode(recs),
              report::EXIT_SWEEP_PARTIAL);

    Json doc = report::sweepToJson(recs);
    EXPECT_TRUE(doc.get("partial").asBool());
    EXPECT_EQ(doc.get("runs").at(1).get("status").asString(), "error");
    EXPECT_EQ(doc.get("runs").at(1).get("error").get("kind").asString(),
              "invalid-input");
    EXPECT_EQ(doc.get("runs").at(0).get("status").asString(), "ok");

    // The CSV stays rectangular: every row has the union header's
    // column count.
    std::string csv = report::sweepToCsv(recs);
    size_t header_cols = 1;
    std::string first_line = csv.substr(0, csv.find('\n'));
    for (char ch : first_line)
        header_cols += ch == ',';
    size_t pos = first_line.size() + 1;
    while (pos < csv.size()) {
        size_t end = csv.find('\n', pos);
        size_t cols = 1;
        for (size_t k = pos; k < end; ++k)
            cols += csv[k] == ',';
        EXPECT_EQ(cols, header_cols);
        pos = end + 1;
    }
}

TEST(Schema, ErrorObjectDecodesToTheSameRendering)
{
    // errorFromJson is the one reader of errorToJson: a row printed
    // from a run object, local or a daemon's, shows the record's own
    // rendering, budget suffix included.
    for (runtime::ErrorKind kind :
         {runtime::ErrorKind::BudgetFuel, runtime::ErrorKind::InvalidInput,
          runtime::ErrorKind::Deadline}) {
        runtime::StageErrorInfo e;
        e.kind = kind;
        e.stage = "profile";
        e.workload = "fuelbomb";
        e.detail = "stopped";
        if (e.budgetExhausted()) {
            e.limit = 200000;
            e.used = 200704;
        }
        runtime::StageErrorInfo back =
            report::errorFromJson(report::errorToJson(e));
        EXPECT_EQ(back.kind, e.kind);
        EXPECT_EQ(back.stage, e.stage);
        EXPECT_EQ(back.workload, e.workload);
        EXPECT_EQ(back.detail, e.detail);
        EXPECT_EQ(back.limit, e.limit);
        EXPECT_EQ(back.used, e.used);
        EXPECT_EQ(back.render(), e.render());
    }

    // Lenient: an unknown kind or a mistyped member decodes to the
    // field's default instead of throwing.
    runtime::StageErrorInfo odd = report::errorFromJson(
        Json::parse("{\"kind\":\"from-a-newer-peer\",\"stage\":7,"
                    "\"detail\":\"d\",\"used\":\"x\"}"));
    EXPECT_EQ(odd.kind, runtime::ErrorKind::None);
    EXPECT_EQ(odd.stage, "");
    EXPECT_EQ(odd.detail, "d");
    EXPECT_EQ(odd.used, 0u);
}

TEST(SweepRunner, EmptySweep)
{
    EXPECT_TRUE(report::SweepRunner(4).run({}).empty());
    Json doc = report::sweepToJson({});
    EXPECT_EQ(doc.get("runs").size(), 0u);
    EXPECT_TRUE(report::sweepToCsv({}).empty());
}

TEST(SweepRunner, ProgressCallbackCoversAllRuns)
{
    std::vector<report::RunSpec> specs = smallGrid();
    std::atomic<size_t> calls{0};
    size_t total_seen = 0;
    std::mutex mu;
    report::SweepRunner(2).run(specs, [&](size_t done, size_t total) {
        calls.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        total_seen = total;
        EXPECT_LE(done, total);
    });
    EXPECT_EQ(calls.load(), specs.size());
    EXPECT_EQ(total_seen, specs.size());
}
