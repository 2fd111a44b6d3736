/**
 * @file
 * Conformance suite for the mscd daemon stack (docs/DAEMON.md):
 *
 *  - framing: round trips, zero-length frames, truncation, oversize
 *    declarations and the exact resync guarantees of each status;
 *  - protocol: request parsing/validation, server-side budget
 *    defaults with per-request overrides, and the contract that any
 *    malformed payload yields exactly one structured error frame
 *    while the connection stays usable;
 *  - dispatch: in-flight dedup on the content-addressed stage keys
 *    (deterministic single-worker scenario plus a multi-threaded
 *    stress run), byte-identical responses for deduped submitters,
 *    compute-once across the whole pool;
 *  - robustness under the daemon: fuel-bombed cells produce budget-*
 *    error frames and the worker survives, cancel reaches a request
 *    mid-sweep over a real pipe, injected disk-cache write faults
 *    stay invisible to clients;
 *  - the sweepExitCode <-> summary-status mapping msctool and mscd
 *    share (satellite regression: the two can never disagree).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "client/client.h"
#include "helpers.h"
#include "pipeline/session.h"
#include "report/record.h"
#include "report/sweep.h"
#include "runtime/budget.h"
#include "runtime/error.h"
#include "runtime/fault.h"
#include "serve/dispatch.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/server.h"

using namespace msc;
using namespace msc::serve;
using runtime::ErrorKind;

namespace {

namespace fs = std::filesystem;

std::string
freshDir(const char *name)
{
    fs::path dir = fs::path(::testing::TempDir()) /
                   (std::string("msc-mscd-") + name);
    fs::remove_all(dir);
    return dir.string();
}

/** One encoded frame (header + payload) as raw bytes. */
std::string
frameBytes(const std::string &payload)
{
    StringTransport t("");
    writeFrame(t, payload);
    return t.written();
}

/** Decodes every complete frame in @p bytes as JSON. */
std::vector<report::Json>
parseFrames(const std::string &bytes)
{
    StringTransport t(bytes);
    std::vector<report::Json> out;
    while (true) {
        FrameResult fr = readFrame(t);
        if (fr.status != FrameStatus::Ok)
            break;
        out.push_back(report::Json::parse(fr.payload));
    }
    return out;
}

/** Runs one scripted connection against a fresh server. */
std::vector<report::Json>
serveScript(const std::string &input, ServerConfig cfg = {})
{
    if (cfg.dispatch.jobs == 0)
        cfg.dispatch.jobs = 2;
    Server server(std::move(cfg));
    StringTransport t(input);
    server.serveConnection(t);
    return parseFrames(t.written());
}

/** The standard small run-request payload used throughout. */
std::string
runPayload(const std::string &id, const std::string &workload,
           const std::string &extra = "")
{
    return "{\"id\":\"" + id + "\",\"kind\":\"run\",\"workload\":\"" +
           workload +
           "\",\"scale\":\"small\",\"insts\":10000,\"pus\":2,"
           "\"strategy\":\"bb\"" +
           extra + "}";
}

report::RunSpec
smallSpec(const char *workload, const char *strategy, unsigned pus)
{
    return report::makeSpec(workload,
                            report::strategyFromId(strategy), pus,
                            true, workloads::Scale::Small, 10'000);
}

const report::Json &
findFrame(const std::vector<report::Json> &frames,
          const std::string &id, const std::string &type)
{
    for (const auto &f : frames)
        if (f.get("id").asString() == id &&
            f.get("type").asString() == type)
            return f;
    static report::Json none;
    ADD_FAILURE() << "no frame id=" << id << " type=" << type;
    return none;
}

} // anonymous namespace

// ------------------------------------------------------- framing

TEST(MscdFraming, RoundTripsFrames)
{
    StringTransport t(frameBytes("hello") + frameBytes("") +
                      frameBytes(std::string(100'000, 'x')));

    FrameResult a = readFrame(t);
    EXPECT_EQ(a.status, FrameStatus::Ok);
    EXPECT_EQ(a.payload, "hello");

    // Zero-length frames are Ok at the framing layer (the protocol
    // layer rejects them) — framing must not lose sync.
    FrameResult b = readFrame(t);
    EXPECT_EQ(b.status, FrameStatus::Ok);
    EXPECT_EQ(b.payload, "");

    FrameResult c = readFrame(t);
    EXPECT_EQ(c.status, FrameStatus::Ok);
    EXPECT_EQ(c.payload, std::string(100'000, 'x'));

    EXPECT_EQ(readFrame(t).status, FrameStatus::Eof);
}

TEST(MscdFraming, TruncationInsideHeaderAndPayload)
{
    // Stream ends two bytes into a header.
    StringTransport h(std::string("\x00\x00", 2));
    EXPECT_EQ(readFrame(h).status, FrameStatus::Truncated);

    // Stream ends mid-payload; the declared length is reported.
    std::string cut = frameBytes("abcdef");
    cut.resize(cut.size() - 3);
    StringTransport p(cut);
    FrameResult fr = readFrame(p);
    EXPECT_EQ(fr.status, FrameStatus::Truncated);
    EXPECT_EQ(fr.declared, 6u);
}

TEST(MscdFraming, OversizeDoesNotConsumeAndResyncs)
{
    // A header declaring more than max_len, immediately followed by a
    // valid frame: the oversize result must not swallow the valid
    // frame's bytes.
    std::string huge_header(
        {'\x00', '\x10', '\x00', '\x00'});  // 1 MiB declared
    StringTransport t(huge_header + frameBytes("ok"));

    FrameResult a = readFrame(t, 1024);
    EXPECT_EQ(a.status, FrameStatus::Oversize);
    EXPECT_EQ(a.declared, 1u << 20);

    FrameResult b = readFrame(t, 1024);
    EXPECT_EQ(b.status, FrameStatus::Ok);
    EXPECT_EQ(b.payload, "ok");
}

// ------------------------------------------------ request parsing

TEST(MscdProtocol, ParsesSweepWithMsctoolDefaults)
{
    RequestDefaults d;
    Request r = parseRequest(
        "{\"id\":\"s\",\"kind\":\"sweep\","
        "\"workloads\":[\"compress\"],\"scale\":\"small\"}",
        d);
    // Default strategy and PU axes are msctool sweep's: bb,cf,dd x
    // 4,8 — the same request text means the same grid in both
    // drivers.
    ASSERT_EQ(r.specs.size(), 6u);
    EXPECT_EQ(r.specs[0].id, "compress/bb/4pu/ooo");
    EXPECT_EQ(r.specs[5].id, "compress/dd/8pu/ooo");
    EXPECT_EQ(r.specs[0].opts.trace.traceInsts, 250'000u);
}

TEST(MscdProtocol, BudgetDefaultsMergePerField)
{
    RequestDefaults d;
    d.budget.maxFuel = 7;
    d.budget.wallMs = 5;

    Request plain = parseRequest(runPayload("a", "compress"), d);
    EXPECT_EQ(plain.specs.at(0).opts.budget.maxFuel, 7u);
    EXPECT_EQ(plain.specs.at(0).opts.budget.wallMs, 5u);

    Request over = parseRequest(
        runPayload("b", "compress", ",\"budget\":{\"max_fuel\":9}"),
        d);
    EXPECT_EQ(over.specs.at(0).opts.budget.maxFuel, 9u);
    EXPECT_EQ(over.specs.at(0).opts.budget.wallMs, 5u);
}

TEST(MscdProtocol, RejectsMalformedRequests)
{
    RequestDefaults d;
    auto rejects = [&](const std::string &payload) {
        try {
            parseRequest(payload, d);
            ADD_FAILURE() << "accepted: " << payload;
        } catch (const runtime::StageError &e) {
            EXPECT_EQ(e.info().kind, ErrorKind::InvalidInput);
            EXPECT_EQ(e.info().stage, "protocol");
        }
    };
    rejects("");                                     // zero-length
    rejects("{nope");                                // not JSON
    rejects("[1,2]");                                // not an object
    rejects(std::string("\xff\xfe{}", 4));           // not UTF-8
    rejects("{\"id\":\"x\",\"kind\":\"bogus\"}");    // unknown kind
    rejects("{\"kind\":\"run\",\"workload\":\"compress\"}");  // no id
    rejects("{\"id\":\"\",\"kind\":\"run\",\"workload\":\"c\"}");
    rejects("{\"id\":\"" + std::string(300, 'a') +
            "\",\"kind\":\"run\",\"workload\":\"compress\"}");
    rejects("{\"id\":\"x\",\"kind\":\"cancel\"}");   // no target
    rejects("{\"id\":\"x\",\"kind\":\"run\",\"workload\":\"c\","
            "\"pus\":0}");                           // pus range
    rejects("{\"id\":\"x\",\"kind\":\"run\",\"workload\":\"c\","
            "\"pus\":\"four\"}");                    // pus type
    rejects("{\"id\":\"x\",\"kind\":\"sweep\",\"pus\":[]}");  // empty
    // 18 workloads x 3 strategies x 80 PU configs > MAX_SWEEP_CELLS.
    std::string wide = "{\"id\":\"x\",\"kind\":\"sweep\",\"pus\":[";
    for (int i = 0; i < 80; ++i)
        wide += (i ? "," : "") + std::to_string(i + 1);
    rejects(wide + "]}");
}

TEST(MscdProtocol, TargetsRangeIsCheckTargets)
{
    // One definition: the request parser owns the "targets" range,
    // and msctool's --targets reaches it through the same parser, so
    // both reject the same values with the same message.
    RequestDefaults d;
    auto run = [](const std::string &targets) {
        return runPayload("x", "compress", ",\"targets\":" + targets);
    };
    for (uint64_t t : {uint64_t(0), uint64_t(65),
                       (uint64_t(1) << 32) + 4}) {
        try {
            parseRequest(run(std::to_string(t)), d);
            ADD_FAILURE() << "request accepted targets " << t;
        } catch (const runtime::StageError &e) {
            EXPECT_EQ(e.info().stage, "protocol");
            EXPECT_NE(std::string(e.what()).find(
                          "\"targets\" must be in [1, 64]"),
                      std::string::npos) << e.what();
        }
    }
    for (unsigned t : {1u, 64u})
        EXPECT_EQ(parseRequest(run(std::to_string(t)), d)
                      .specs.at(0).opts.sel.maxTargets, t);
}

TEST(MscdProtocol, ChecksValuesBeforeNarrowing)
{
    RequestDefaults d;
    auto rejectsWith = [&](const std::string &payload,
                           const std::string &message) {
        try {
            parseRequest(payload, d);
            ADD_FAILURE() << "accepted: " << payload;
        } catch (const runtime::StageError &e) {
            EXPECT_EQ(e.info().kind, ErrorKind::InvalidInput);
            EXPECT_EQ(e.info().stage, "protocol") << e.what();
            EXPECT_NE(std::string(e.what()).find(message),
                      std::string::npos) << e.what();
        }
    };
    const std::string run =
        "{\"id\":\"r\",\"kind\":\"run\",\"workload\":\"compress\"";
    const std::string sweep =
        "{\"id\":\"s\",\"kind\":\"sweep\","
        "\"workloads\":[\"compress\"]";
    const std::string pus_range = "\"pus\" values must be in [1, 512]";

    // Narrowed to 32 bits these were 4 PUs, 2 PUs and a 1 ms deadline.
    rejectsWith(run + ",\"pus\":4294967300}", pus_range);
    rejectsWith(sweep + ",\"pus\":[4,4294967298]}", pus_range);
    rejectsWith(run + ",\"budget\":{\"timeout_ms\":4294967297}}",
                "\"budget.timeout_ms\" must be in [0, 4294967295]");

    // A ranged field names its range for a wrong type too.
    rejectsWith(sweep + ",\"pus\":[-1]}", pus_range);
    rejectsWith(run + ",\"pus\":\"4\"}", pus_range);
    rejectsWith(run + ",\"targets\":-1}", "\"targets\" must be in [1, 64]");

    // An unknown strategy is the protocol's error, not a CLI one, and
    // its echo of the peer's text is bounded.
    const std::string unknown = "unknown strategy \"";
    rejectsWith(run + ",\"strategy\":\"xx\"}", unknown + "xx\"");
    rejectsWith(sweep + ",\"strategies\":[\"bb\",\"" +
                    std::string(300, 'z') + "\"]}",
                unknown + std::string(64, 'z') + "\"");

    // The largest values that fit are still accepted as sent.
    Request top = parseRequest(
        run + ",\"pus\":512,\"budget\":{\"timeout_ms\":4294967295}}",
        d);
    EXPECT_EQ(top.specs.at(0).opts.config.numPUs, 512u);
    EXPECT_EQ(top.specs.at(0).opts.budget.wallMs, UINT32_MAX);
}

TEST(MscdProtocol, ExtractsIdBestEffort)
{
    EXPECT_EQ(extractRequestId("{\"id\":\"r7\",\"kind\":4}"), "r7");
    EXPECT_EQ(extractRequestId("{nope"), "");
    EXPECT_EQ(extractRequestId("{\"id\":42}"), "");
    EXPECT_EQ(extractRequestId("[]"), "");
}

// -------------------------------------- error-frame containment

TEST(MscdServer, MalformedFramesEachGetOneErrorFrameThenUsable)
{
    std::string input =
        frameBytes("{nope") +                            // garbage
        frameBytes(std::string("\xff\xfe{}", 4)) +       // non-UTF-8
        frameBytes("{\"id\":\"u\",\"kind\":\"bogus\"}") +  // kind
        frameBytes("{\"kind\":\"run\"}") +               // missing id
        frameBytes("") +                                 // zero-length
        frameBytes(runPayload("ok1", "compress"));

    std::vector<report::Json> frames = serveScript(input);
    ASSERT_EQ(frames.size(), 7u);

    // One error frame per malformed payload, in input order, id
    // echoed when recoverable.
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(frames[i].get("type").asString(), "error");
        EXPECT_EQ(
            frames[i].get("error").get("kind").asString(),
            "invalid-input");
    }
    EXPECT_EQ(frames[2].get("id").asString(), "u");
    EXPECT_EQ(frames[3].get("id").asString(), "");

    // The connection stayed usable: the valid request ran.
    EXPECT_EQ(frames[5].get("type").asString(), "cell");
    EXPECT_EQ(frames[5].get("run").get("status").asString(), "ok");
    EXPECT_EQ(frames[6].get("type").asString(), "summary");
    EXPECT_EQ(frames[6].get("status").asString(), "ok");
    EXPECT_EQ(frames[6].get("exit_code").asInt(), 0);
}

TEST(MscdServer, OversizeFrameIsReportedAndConnectionContinues)
{
    ServerConfig cfg;
    cfg.maxFrame = 256;
    std::string huge_header({'\x00', '\x10', '\x00', '\x00'});
    std::string input =
        huge_header + frameBytes(runPayload("ok2", "compress"));

    std::vector<report::Json> frames = serveScript(input, std::move(cfg));
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].get("type").asString(), "error");
    EXPECT_NE(frames[0].get("error").get("detail").asString().find(
                  "exceeds maximum"),
              std::string::npos);
    EXPECT_EQ(frames[1].get("type").asString(), "cell");
    EXPECT_EQ(frames[2].get("type").asString(), "summary");
}

TEST(MscdServer, TruncatedFrameGetsFinalErrorFrame)
{
    std::string input = frameBytes(runPayload("ok3", "compress"));
    // Stream dies inside the next header (NUL-safe append).
    input += std::string("\x00\x00\x01", 3);

    // The truncation error frame may overtake the still-running
    // request's frames — responses correlate by id, not order.
    std::vector<report::Json> frames = serveScript(input);
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(findFrame(frames, "ok3", "cell")
                  .get("run")
                  .get("status")
                  .asString(),
              "ok");
    EXPECT_EQ(findFrame(frames, "ok3", "summary")
                  .get("status")
                  .asString(),
              "ok");
    EXPECT_NE(findFrame(frames, "", "error")
                  .get("error")
                  .get("detail")
                  .asString()
                  .find("truncated"),
              std::string::npos);
}

TEST(MscdServer, CancelUnknownTargetReportsNotFound)
{
    std::vector<report::Json> frames = serveScript(frameBytes(
        "{\"id\":\"c\",\"kind\":\"cancel\",\"target\":\"ghost\"}"));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].get("type").asString(), "result");
    EXPECT_EQ(frames[0].get("kind").asString(), "cancel");
    EXPECT_FALSE(frames[0].get("found").asBool());
}

// ------------------------------------------------ dispatch dedup

TEST(MscdDispatch, DedupsInFlightIdenticalCells)
{
    Dispatcher::Config cfg;
    cfg.jobs = 1;
    Dispatcher d(cfg);

    // The single worker is busy with the blocker while both
    // identical submits arrive, so the second is a guaranteed
    // in-flight hit.
    auto blocker = d.submit(smallSpec("compress", "bb", 2), nullptr);
    auto a1 = d.submit(smallSpec("compress", "cf", 2), nullptr);
    auto a2 = d.submit(smallSpec("compress", "cf", 2), nullptr);

    EXPECT_EQ(d.stats().cellsSubmitted, 3u);
    EXPECT_EQ(d.stats().dedupHits, 1u);

    report::RunRecord r1 = a1.get();
    report::RunRecord r2 = a2.get();
    EXPECT_TRUE(blocker.get().ok());
    EXPECT_TRUE(r1.ok());
    EXPECT_EQ(report::runToJson(r1).dump(),
              report::runToJson(r2).dump());

    // After completion the in-flight entry is gone; a repeat is not a
    // dedup hit but computes nothing new (Session cache replay).
    uint64_t computed = d.pool().stats().computed();
    auto a3 = d.submit(smallSpec("compress", "cf", 2), nullptr);
    EXPECT_EQ(report::runToJson(a3.get()).dump(),
              report::runToJson(r1).dump());
    EXPECT_EQ(d.stats().dedupHits, 1u);
    EXPECT_EQ(d.pool().stats().computed(), computed);
}

TEST(MscdDispatch, BudgetIsPartOfTheDedupKey)
{
    Dispatcher::Config cfg;
    cfg.jobs = 1;
    Dispatcher d(cfg);

    report::RunSpec tight = smallSpec("fuelbomb", "bb", 2);
    tight.opts.budget.maxFuel = 200'000;
    report::RunSpec loose = tight;
    loose.opts.budget.maxFuel = 300'000;

    auto blocker = d.submit(smallSpec("compress", "bb", 2), nullptr);
    auto f1 = d.submit(tight, nullptr);
    auto f2 = d.submit(loose, nullptr);  // same artifacts, other fate
    (void)blocker.get();

    EXPECT_EQ(d.stats().dedupHits, 0u);
    EXPECT_EQ(f1.get().error.limit, 200'000u);
    EXPECT_EQ(f2.get().error.limit, 300'000u);
}

TEST(MscdDispatch, StressManyDuplicateSubmittersComputeOnce)
{
    // Reference: each unique cell once, serially.
    uint64_t computed_ref;
    {
        Dispatcher::Config cfg;
        cfg.jobs = 1;
        Dispatcher ref(cfg);
        ref.submit(smallSpec("compress", "bb", 2), nullptr).get();
        ref.submit(smallSpec("compress", "cf", 2), nullptr).get();
        computed_ref = ref.pool().stats().computed();
    }

    Dispatcher::Config cfg;
    cfg.jobs = 4;
    Dispatcher d(cfg);

    constexpr int N = 8;
    std::vector<std::shared_future<report::RunRecord>> futs(2 * N);
    {
        std::vector<std::thread> threads;
        for (int i = 0; i < N; ++i)
            threads.emplace_back([&, i] {
                futs[2 * i] =
                    d.submit(smallSpec("compress", "bb", 2), nullptr);
                futs[2 * i + 1] =
                    d.submit(smallSpec("compress", "cf", 2), nullptr);
            });
        for (auto &t : threads)
            t.join();
    }

    // Whatever the interleaving, the pool computed each unique
    // artifact exactly once — late duplicates that miss the in-flight
    // window are pure cache replays.
    std::string bb = report::runToJson(futs[0].get()).dump();
    std::string cf = report::runToJson(futs[1].get()).dump();
    for (int i = 0; i < N; ++i) {
        EXPECT_EQ(report::runToJson(futs[2 * i].get()).dump(), bb);
        EXPECT_EQ(report::runToJson(futs[2 * i + 1].get()).dump(),
                  cf);
    }
    EXPECT_EQ(d.pool().stats().computed(), computed_ref);
    EXPECT_EQ(d.stats().cellsSubmitted, uint64_t(2 * N));
}

// --------------------------------------------- budgets and faults

TEST(MscdServer, FuelBombedCellYieldsBudgetErrorFrameWorkerSurvives)
{
    std::string input =
        frameBytes(runPayload("bomb", "fuelbomb",
                              ",\"budget\":{\"max_fuel\":200000}")) +
        frameBytes(runPayload("after", "compress"));

    std::vector<report::Json> frames = serveScript(input);

    const report::Json &cell = findFrame(frames, "bomb", "cell");
    EXPECT_EQ(cell.get("run").get("status").asString(), "error");
    EXPECT_EQ(cell.get("run").get("error").get("kind").asString(),
              "budget-fuel");
    EXPECT_TRUE(cell.get("run")
                    .get("error")
                    .get("budget_exhausted")
                    .asBool());

    const report::Json &sum = findFrame(frames, "bomb", "summary");
    EXPECT_EQ(sum.get("status").asString(), "failed");
    EXPECT_EQ(sum.get("exit_code").asInt(), report::EXIT_SWEEP_FAILED);

    // The worker that hit the budget survived to run the next cell.
    const report::Json &ok = findFrame(frames, "after", "cell");
    EXPECT_EQ(ok.get("run").get("status").asString(), "ok");
}

TEST(MscdServer, CacheWriteFaultUnderLoadIsInvisibleToClients)
{
    std::string dir = freshDir("write-fault");
    std::string input = frameBytes(runPayload("f1", "compress"));

    runtime::FaultInjector::instance().configure("cache-write=2");
    ServerConfig cfg1;
    cfg1.dispatch.session.cacheDir = dir;
    std::vector<report::Json> first = serveScript(input, std::move(cfg1));
    runtime::FaultInjector::instance().configure("");

    const report::Json &c1 = findFrame(first, "f1", "cell");
    EXPECT_EQ(c1.get("run").get("status").asString(), "ok");

    // A fresh daemon over the same (possibly partially-written)
    // cache directory serves byte-identical results.
    ServerConfig cfg2;
    cfg2.dispatch.session.cacheDir = dir;
    std::vector<report::Json> second = serveScript(input, std::move(cfg2));
    const report::Json &c2 = findFrame(second, "f1", "cell");
    EXPECT_EQ(c1.get("run").dump(), c2.get("run").dump());
}

// ------------------------------------------------ the stats verb

TEST(MscdStats, StatsVerbReturnsMetricsDocument)
{
    std::vector<report::Json> frames =
        serveScript(frameBytes("{\"id\":\"s1\",\"kind\":\"stats\"}"));
    ASSERT_EQ(frames.size(), 1u);
    const report::Json &res = findFrame(frames, "s1", "result");
    EXPECT_EQ(res.get("kind").asString(), "stats");
    EXPECT_EQ(res.get("protocol_version").asInt(), PROTOCOL_VERSION);

    const report::Json &m = res.get("metrics");
    EXPECT_EQ(m.get("schema").asString(), "msc.metrics");
    EXPECT_EQ(m.get("schema_version").asInt(), 1);
    // The verb counter is incremented before the snapshot is taken,
    // so a stats request observes itself — deterministically.
    EXPECT_EQ(m.get("counters").get("mscd.requests.stats").asUInt(),
              1u);
    EXPECT_EQ(m.get("counters").get("mscd.frames.in").asUInt(), 1u);
    EXPECT_EQ(
        m.get("counters").get("mscd.connections.accepted").asUInt(),
        1u);
    // Latency histograms are pre-registered, present even untouched.
    EXPECT_TRUE(
        m.get("histograms").has("mscd.latency.sweep.done_us"));
    EXPECT_TRUE(m.get("gauges").has("mscd.dispatch.queue_depth"));
    EXPECT_TRUE(m.get("gauges").has("mscd.cache.computed"));
}

TEST(MscdStats, StatsVerbPrometheusFormat)
{
    std::vector<report::Json> frames = serveScript(frameBytes(
        "{\"id\":\"p1\",\"kind\":\"stats\","
        "\"format\":\"prometheus\"}"));
    const report::Json &res = findFrame(frames, "p1", "result");
    EXPECT_FALSE(res.has("metrics"));
    const std::string &text = res.get("prometheus").asString();
    EXPECT_NE(text.find("# TYPE mscd_requests_stats counter"),
              std::string::npos);
    EXPECT_NE(text.find("mscd_requests_stats 1"), std::string::npos);
    EXPECT_NE(
        text.find("mscd_latency_stats_done_us_bucket{le=\"+Inf\"}"),
        std::string::npos);

    // `"format":"json"` is the explicit spelling of the default.
    std::vector<report::Json> jf = serveScript(frameBytes(
        "{\"id\":\"j1\",\"kind\":\"stats\",\"format\":\"json\"}"));
    EXPECT_TRUE(findFrame(jf, "j1", "result").has("metrics"));
}

TEST(MscdStats, StatsVerbMalformedPayloads)
{
    // One error frame per malformed payload, connection stays usable,
    // and the failures are themselves visible in the final snapshot.
    std::vector<report::Json> frames = serveScript(
        frameBytes("{\"kind\":\"stats\"}") +               // no id
        frameBytes("{\"id\":\"b1\",\"kind\":\"stats\","
                   "\"format\":\"xml\"}") +                // bad format
        frameBytes("{\"id\":\"ok\",\"kind\":\"stats\"}"));
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].get("type").asString(), "error");
    EXPECT_EQ(frames[1].get("type").asString(), "error");
    EXPECT_EQ(frames[1].get("id").asString(), "b1");
    EXPECT_NE(frames[1].get("error").get("detail").asString().find(
                  "format"),
              std::string::npos);

    const report::Json &m =
        findFrame(frames, "ok", "result").get("metrics");
    EXPECT_EQ(
        m.get("counters").get("mscd.requests.malformed").asUInt(),
        2u);
    // Malformed stats payloads never count as stats requests.
    EXPECT_EQ(m.get("counters").get("mscd.requests.stats").asUInt(),
              1u);
}

TEST(MscdStats, ServerCountersAfterConnectionCloses)
{
    // The registry outlives the connection: assert the whole ledger
    // through Server::metrics() once serveConnection has returned
    // (all request threads joined — every deterministic counter and
    // gauge has settled).
    ServerConfig cfg;
    cfg.dispatch.jobs = 2;
    Server server(std::move(cfg));
    StringTransport t(
        frameBytes(runPayload("r1", "compress")) +
        frameBytes("{bad json") +
        frameBytes("{\"id\":\"s\",\"kind\":\"stats\"}"));
    server.serveConnection(t);

    obs::MetricsRegistry &m = server.metrics();
    EXPECT_EQ(m.counter("mscd.connections.accepted").value(), 1u);
    EXPECT_EQ(m.counter("mscd.connections.closed").value(), 1u);
    EXPECT_EQ(m.counter("mscd.frames.in").value(), 3u);
    EXPECT_EQ(m.counter("mscd.requests.run").value(), 1u);
    EXPECT_EQ(m.counter("mscd.requests.malformed").value(), 1u);
    EXPECT_EQ(m.counter("mscd.requests.stats").value(), 1u);
    EXPECT_EQ(m.counter("mscd.dispatch.cells_submitted").value(), 1u);
    EXPECT_EQ(m.counter("mscd.dispatch.dedup_hits").value(), 0u);
    // r1: cell + summary; malformed: error; stats: result.
    EXPECT_EQ(m.counter("mscd.frames.out").value(), 4u);
    EXPECT_EQ(m.gauge("mscd.dispatch.queue_depth").value(), 0);
    EXPECT_EQ(m.gauge("mscd.dispatch.cells_inflight").value(), 0);
    EXPECT_EQ(m.gauge("mscd.requests.inflight").value(), 0);
    // The run's full latency chain was observed exactly once.
    EXPECT_EQ(m.histogram("mscd.latency.run.dispatch_us").count(),
              1u);
    EXPECT_EQ(m.histogram("mscd.latency.run.first_frame_us").count(),
              1u);
    EXPECT_EQ(m.histogram("mscd.latency.run.done_us").count(), 1u);
}

TEST(MscdStats, DispatcherSnapshotConsistent)
{
    // snapshot() captures dispatch bookkeeping and cache counters in
    // one consistent read — and dedup'd submits are visible in it.
    obs::MetricsRegistry reg;
    Dispatcher::Config cfg;
    cfg.jobs = 1;
    cfg.metrics = &reg;
    Dispatcher d(std::move(cfg));

    // The single worker is busy with the blocker while the identical
    // submits arrive, so the second is a guaranteed in-flight hit.
    auto blocker = d.submit(smallSpec("compress", "bb", 2), nullptr);
    auto f1 = d.submit(smallSpec("compress", "cf", 2), nullptr);
    auto f2 = d.submit(smallSpec("compress", "cf", 2), nullptr);
    (void)blocker.get();
    f1.get();
    f2.get();
    EXPECT_EQ(f1.get().spec.id, f2.get().spec.id);

    ServiceSnapshot s = d.snapshot();
    EXPECT_EQ(s.dispatch.cellsSubmitted, 3u);
    EXPECT_EQ(s.dispatch.dedupHits, 1u);
    EXPECT_EQ(s.cache.computed(), d.pool().stats().computed());
    EXPECT_GE(s.cache.computed(), 1u);
    // The registry mirrors of the same counters agree.
    EXPECT_EQ(reg.counter("mscd.dispatch.cells_submitted").value(),
              3u);
    EXPECT_EQ(reg.counter("mscd.dispatch.dedup_hits").value(), 1u);
    report::Json doc = reg.toJson();
    EXPECT_EQ(doc.get("gauges").get("mscd.cache.computed").asUInt(),
              s.cache.computed());
}

// ---------------------------------------- cancellation over a pipe

TEST(MscdServer, CancelReachesARequestMidSweep)
{
    std::string dir = freshDir("cancel");

    int to_server[2];
    int to_client[2];
    ASSERT_EQ(::pipe(to_server), 0);
    ASSERT_EQ(::pipe(to_client), 0);

    ServerConfig cfg;
    cfg.dispatch.jobs = 2;
    cfg.dispatch.session.cacheDir = dir;
    Server server(std::move(cfg));
    std::thread srv([&] {
        FdTransport t(to_server[0], to_client[1]);
        server.serveConnection(t);
        ::close(to_client[1]);
    });

    FdTransport client(to_client[0], to_server[1]);
    // No budget: the fuelbomb cell runs until the token trips.
    writeFrame(client,
               "{\"id\":\"c1\",\"kind\":\"sweep\","
               "\"workloads\":[\"fuelbomb\"],"
               "\"strategies\":[\"bb\"],\"pus\":[2],"
               "\"scale\":\"small\",\"insts\":10000}");
    // Duplicate id while c1 is (deterministically) still in flight.
    writeFrame(client, runPayload("c1", "compress"));
    FrameResult dup = readFrame(client);
    ASSERT_EQ(dup.status, FrameStatus::Ok);
    report::Json dupf = report::Json::parse(dup.payload);
    EXPECT_EQ(dupf.get("type").asString(), "error");
    EXPECT_NE(dupf.get("error").get("detail").asString().find(
                  "duplicate request id"),
              std::string::npos);

    writeFrame(client, "{\"id\":\"c2\",\"kind\":\"cancel\","
                       "\"target\":\"c1\"}");

    // Cancel result, cell and summary frames arrive in any order
    // (reader vs request thread).
    std::vector<report::Json> frames;
    for (int i = 0; i < 3; ++i) {
        FrameResult fr = readFrame(client);
        ASSERT_EQ(fr.status, FrameStatus::Ok);
        frames.push_back(report::Json::parse(fr.payload));
    }
    const report::Json &res = findFrame(frames, "c2", "result");
    EXPECT_EQ(res.get("target").asString(), "c1");
    EXPECT_TRUE(res.get("found").asBool());

    const report::Json &cell = findFrame(frames, "c1", "cell");
    EXPECT_EQ(cell.get("run").get("status").asString(), "error");
    EXPECT_EQ(cell.get("run").get("error").get("kind").asString(),
              "cancelled");

    const report::Json &sum = findFrame(frames, "c1", "summary");
    EXPECT_EQ(sum.get("status").asString(), "failed");
    EXPECT_EQ(sum.get("exit_code").asInt(),
              report::EXIT_SWEEP_FAILED);

    // The connection (and its disk cache) survived: a normal request
    // on the same daemon completes cleanly.
    writeFrame(client, runPayload("c3", "compress"));
    std::vector<report::Json> tail;
    for (int i = 0; i < 2; ++i) {
        FrameResult fr = readFrame(client);
        ASSERT_EQ(fr.status, FrameStatus::Ok);
        tail.push_back(report::Json::parse(fr.payload));
    }
    EXPECT_EQ(findFrame(tail, "c3", "cell")
                  .get("run")
                  .get("status")
                  .asString(),
              "ok");

    // Satellite: a stats snapshot taken after the cancelled sweep is
    // internally consistent — the cancellation is fully accounted and
    // no queue depth or in-flight cell leaked.
    writeFrame(client, "{\"id\":\"st\",\"kind\":\"stats\"}");
    FrameResult sf = readFrame(client);
    ASSERT_EQ(sf.status, FrameStatus::Ok);
    report::Json stats = report::Json::parse(sf.payload);
    EXPECT_EQ(stats.get("type").asString(), "result");
    const report::Json &counters = stats.get("metrics").get("counters");
    EXPECT_EQ(counters.get("mscd.requests.cancel").asUInt(), 1u);
    EXPECT_EQ(counters.get("mscd.requests.sweep").asUInt(), 1u);
    // The duplicate-id run and c3 both parsed as run requests.
    EXPECT_EQ(counters.get("mscd.requests.run").asUInt(), 2u);
    EXPECT_EQ(counters.get("mscd.requests.stats").asUInt(), 1u);
    EXPECT_EQ(counters.get("mscd.requests.malformed").asUInt(), 0u);
    // c1's fuelbomb cell + c3's run cell; the duplicate id was
    // rejected before submission.
    EXPECT_EQ(counters.get("mscd.dispatch.cells_submitted").asUInt(),
              2u);
    const report::Json &gauges = stats.get("metrics").get("gauges");
    EXPECT_EQ(gauges.get("mscd.dispatch.queue_depth").asInt(), 0);
    EXPECT_EQ(gauges.get("mscd.dispatch.cells_inflight").asInt(), 0);
    // The cancel's latency was observed on its own histogram.
    EXPECT_EQ(stats.get("metrics")
                  .get("histograms")
                  .get("mscd.latency.cancel.done_us")
                  .get("count")
                  .asUInt(),
              1u);

    ::close(to_server[1]);
    srv.join();
    ::close(to_server[0]);
    ::close(to_client[0]);

    // The cancelled run left no corrupt cache entries behind: a
    // fresh Session over the same directory loads or recomputes
    // without error, never throws CacheCorrupt.
    pipeline::Session s(
        workloads::buildWorkload("compress", workloads::Scale::Small),
        pipeline::SessionConfig{dir});
    report::RunSpec spec = smallSpec("compress", "bb", 2);
    EXPECT_NO_THROW(s.runAll(spec.opts));
}

// ----------------------------- exit-code <-> status mapping pins

TEST(MscdProtocol, SummaryStatusAndSweepExitCodesCannotDisagree)
{
    // The shared mapping, pinned value by value.
    EXPECT_STREQ(report::sweepStatusName(report::EXIT_SWEEP_CLEAN),
                 "ok");
    EXPECT_STREQ(report::sweepStatusName(report::EXIT_SWEEP_FAILED),
                 "failed");
    EXPECT_STREQ(report::sweepStatusName(report::EXIT_SWEEP_PARTIAL),
                 "partial");
    EXPECT_STREQ(report::sweepStatusName(42), "?");

    // A mixed sweep through the daemon path: the summary frame must
    // carry exactly sweepExitCode's verdict on the same records.
    report::RunRecord ok_rec;
    report::RunRecord bad_rec;
    bad_rec.error.kind = ErrorKind::BudgetFuel;
    std::vector<report::RunRecord> mixed = {ok_rec, bad_rec};

    report::Json sum =
        summaryFrame("x", mixed, pipeline::CacheStats{}, 0);
    int exit_code = report::sweepExitCode(mixed);
    EXPECT_EQ(exit_code, report::EXIT_SWEEP_PARTIAL);
    EXPECT_EQ(sum.get("exit_code").asInt(), exit_code);
    EXPECT_EQ(sum.get("status").asString(),
              report::sweepStatusName(exit_code));
    EXPECT_TRUE(sum.get("partial").asBool());
    EXPECT_EQ(sum.get("errors").asUInt(), 1u);
}

// ----------------------------------- byte-identity with msctool

TEST(MscdServer, SweepCellsReassembleToTheMsctoolDocument)
{
    std::vector<report::Json> frames = serveScript(frameBytes(
        "{\"id\":\"s\",\"kind\":\"sweep\","
        "\"workloads\":[\"compress\"],"
        "\"strategies\":[\"bb\",\"cf\"],\"pus\":[2],"
        "\"scale\":\"small\",\"insts\":10000}"));

    std::vector<report::Json> runs(2);
    size_t cells = 0;
    for (auto &f : frames)
        if (f.get("type").asString() == "cell") {
            ++cells;
            EXPECT_EQ(f.get("total").asUInt(), 2u);
            runs.at(f.get("index").asUInt()) = f.get("run");
        }
    ASSERT_EQ(cells, 2u);

    // The exact document msctool sweep --json emits for this grid.
    report::SweepRunner runner(1);
    std::vector<report::RunRecord> recs =
        runner.run({smallSpec("compress", "bb", 2),
                    smallSpec("compress", "cf", 2)});
    EXPECT_EQ(report::sweepDocFromRuns(std::move(runs)).dump(2),
              report::sweepToJson(recs).dump(2));
}

// -------------------------------------------------- stage keys

TEST(MscdDispatch, StageKeyTracksOptionsNotBudgets)
{
    pipeline::Session s(test::makeLoopProgram(100));
    report::RunSpec a = smallSpec("compress", "bb", 2);
    report::RunSpec b = smallSpec("compress", "bb", 4);

    uint64_t ka = s.stageKey(pipeline::StageKind::Simulate, a.opts);
    EXPECT_EQ(ka, s.stageKey(pipeline::StageKind::Simulate, a.opts));
    EXPECT_NE(ka, s.stageKey(pipeline::StageKind::Simulate, b.opts));

    // Budgets are outside artifact keys by design (the dispatcher
    // mixes them in separately).
    report::RunSpec budgeted = a;
    budgeted.opts.budget.maxFuel = 12345;
    EXPECT_EQ(ka, s.stageKey(pipeline::StageKind::Simulate,
                             budgeted.opts));
}

// ------------------------------------------- bounded threads/memory

namespace {

/** This process's VmSize in KiB (/proc/self/status). */
long
vmSizeKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmSize:", 0) == 0)
            return std::stol(line.substr(7));
    return -1;
}

} // anonymous namespace

TEST(MscdServer, FinishedConnectionsAndRequestsKeepNoThreads)
{
    std::string dir = freshDir("reap");
    fs::create_directories(dir);
    client::Endpoint ep = client::parseEndpoint("unix:" + dir + "/s");
    ServerConfig cfg;
    cfg.dispatch.jobs = 2;
    Server server(std::move(cfg));
    std::thread srv([&] { server.serveUnix(ep.path); });

    auto run = [](const std::string &id) {
        client::RequestBuilder b = client::RequestBuilder::run(id, "compress");
        b.strategy("bb").pusCount(2).smallScale(true).insts(10000);
        return b;
    };
    for (int i = 0;; ++i) {
        try {
            ::close(client::connectEndpoint(ep));
            break;
        } catch (const std::exception &) {
            ASSERT_LT(i, 500);
            ::usleep(10'000);
        }
    }
    // Warm-up, so the baseline already holds what a steady state
    // keeps: the session cache and the thread-stack cache. One malloc
    // arena keeps glibc's 64 MiB per-thread arena reservations (which
    // depend on how many threads happen to overlap) out of VmSize; a
    // thread kept alive still shows as its 8 MiB stack.
    mallopt(M_ARENA_MAX, 1);
    for (int i = 0; i < 20; ++i) {
        client::ClientConn conn(ep);
        ASSERT_TRUE(conn.collectSweep(run("w")).ok());
    }
    long before = vmSizeKb();

    for (int i = 0; i < 200; ++i) {
        client::ClientConn conn(ep);
        EXPECT_EQ(conn.call(client::RequestBuilder::stats("s")).type,
                  client::ResponseFrame::Type::Result);
    }
    {
        client::ClientConn conn(ep);
        for (int i = 0; i < 200; ++i)
            ASSERT_TRUE(
                conn.collectSweep(run("r" + std::to_string(i))).ok());
        // Measured with the connection still open: a request must not
        // keep a thread (and its stack) until its connection ends.
        // Only growth counts; a sanitizer allocator may also unmap.
        long after = vmSizeKb();
        EXPECT_LT(after - before, 64L * 1024)
            << "VmSize " << before << " kB -> " << after << " kB";
    }

    server.requestStop();
    srv.join();
}
