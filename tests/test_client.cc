/**
 * @file
 * Unit tests for the src/client library (docs/API.md): the endpoint
 * grammar, the typed RequestBuilder payloads (exact wire bytes), the
 * ResponseFrame decoder, and the ClientConn frame pump over an
 * in-memory transport, and the checked CLI number parser. Everything
 * here runs with no sockets; the
 * live-daemon paths are covered by test_router and daemon_smoke.
 */

#include <gtest/gtest.h>

#include "client/cli.h"
#include "client/client.h"
#include "runtime/error.h"
#include "serve/protocol.h"

using namespace msc;
using client::Endpoint;
using client::RequestBuilder;
using client::ResponseFrame;
using runtime::ErrorKind;
using runtime::StageError;

namespace {

// ---------------------------------------------------------------------------
// Endpoint grammar.

TEST(Endpoint, ParsesUnix)
{
    Endpoint ep = client::parseEndpoint("unix:/run/mscd.sock");
    EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ep.path, "/run/mscd.sock");
}

TEST(Endpoint, ParsesTcpHostPort)
{
    Endpoint ep = client::parseEndpoint("tcp:example.com:7070");
    EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(ep.host, "example.com");
    EXPECT_EQ(ep.port, 7070);
}

TEST(Endpoint, ParsesTcpPortShorthandAsLoopback)
{
    Endpoint ep = client::parseEndpoint("tcp:7070");
    EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 7070);
}

TEST(Endpoint, ParsesStdio)
{
    EXPECT_EQ(client::parseEndpoint("stdio").kind,
              Endpoint::Kind::Stdio);
}

TEST(Endpoint, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "",          "ftp:/x",     "unix:",         "tcp:",
        "tcp:host:", "tcp:host:0", "tcp:host:junk", "tcp:0",
        "tcp:65536", "unixsocket",
    };
    for (const char *spec : bad) {
        try {
            client::parseEndpoint(spec);
            FAIL() << "accepted malformed endpoint: " << spec;
        } catch (const StageError &e) {
            EXPECT_EQ(e.info().kind, ErrorKind::InvalidInput) << spec;
            EXPECT_EQ(e.info().stage, "endpoint") << spec;
        }
    }
}

TEST(Endpoint, FormatRoundTrips)
{
    const char *specs[] = {"unix:/tmp/a.sock", "tcp:10.0.0.1:81",
                           "stdio"};
    for (const char *spec : specs) {
        Endpoint ep = client::parseEndpoint(spec);
        EXPECT_EQ(client::formatEndpoint(ep), spec);
        EXPECT_EQ(client::parseEndpoint(client::formatEndpoint(ep)),
                  ep);
    }
    // The port shorthand canonicalizes to the explicit loopback form.
    EXPECT_EQ(client::formatEndpoint(client::parseEndpoint("tcp:81")),
              "tcp:127.0.0.1:81");
}

TEST(Endpoint, ConnectRefusesStdioAndDeadSockets)
{
    EXPECT_THROW(client::connectEndpoint(
                     client::parseEndpoint("stdio")),
                 StageError);
    try {
        client::connectEndpoint(
            client::parseEndpoint("unix:/nonexistent/mscd.sock"));
        FAIL() << "connected to a nonexistent socket";
    } catch (const StageError &e) {
        EXPECT_EQ(e.info().kind, ErrorKind::Io);
    }
}

// ---------------------------------------------------------------------------
// RequestBuilder: the payloads are the wire contract, so pin bytes.

TEST(RequestBuilder, RunPayloadBytes)
{
    RequestBuilder b = RequestBuilder::run("r1", "compress");
    b.strategy("bb").pusCount(4).smallScale(true).insts(20000);
    EXPECT_EQ(b.payload(),
              "{\"id\":\"r1\",\"kind\":\"run\","
              "\"workload\":\"compress\",\"strategy\":\"bb\","
              "\"pus\":4,\"scale\":\"small\",\"insts\":20000}");
}

TEST(RequestBuilder, SweepPayloadBytes)
{
    RequestBuilder b = RequestBuilder::sweep("s1");
    b.workloads({"compress", "li"}).strategies({"bb", "cf"}).pus({2});
    EXPECT_EQ(b.payload(),
              "{\"id\":\"s1\",\"kind\":\"sweep\","
              "\"workloads\":[\"compress\",\"li\"],"
              "\"strategies\":[\"bb\",\"cf\"],\"pus\":[2]}");
}

TEST(RequestBuilder, SetForwardsValuesForThePeerToCheck)
{
    RequestBuilder b = RequestBuilder::run("r1", "compress");
    b.set("pus", report::Json("abc"));
    EXPECT_EQ(b.payload(),
              "{\"id\":\"r1\",\"kind\":\"run\","
              "\"workload\":\"compress\",\"pus\":\"abc\"}");
    try {
        serve::parseRequest(b.payload(), {});
        FAIL() << "the protocol accepted pus \"abc\"";
    } catch (const StageError &e) {
        EXPECT_EQ(e.info().stage, "protocol");
    }
}

TEST(RequestBuilder, CancelAndStatsPayloads)
{
    EXPECT_EQ(RequestBuilder::cancel("c1", "s9").payload(),
              "{\"id\":\"c1\",\"kind\":\"cancel\",\"target\":\"s9\"}");
    RequestBuilder st = RequestBuilder::stats("m1");
    st.format("prometheus");
    EXPECT_EQ(st.payload(),
              "{\"id\":\"m1\",\"kind\":\"stats\","
              "\"format\":\"prometheus\"}");
}

TEST(RequestBuilder, BudgetOmitsZeroFields)
{
    runtime::ExecBudget b;
    b.maxFuel = 200000;
    RequestBuilder r = RequestBuilder::run("r1", "compress");
    r.budget(b);
    EXPECT_EQ(r.payload(),
              "{\"id\":\"r1\",\"kind\":\"run\","
              "\"workload\":\"compress\","
              "\"budget\":{\"max_fuel\":200000}}");
}

TEST(RequestBuilder, BudgetExactEmitsZeros)
{
    // Exact propagation: explicit zeros must reach the peer so its
    // own defaults cannot alter a routed cell's outcome.
    runtime::ExecBudget b;
    b.maxFuel = 200000;
    RequestBuilder r = RequestBuilder::run("r1", "compress");
    r.budgetExact(b);
    EXPECT_EQ(r.payload(),
              "{\"id\":\"r1\",\"kind\":\"run\","
              "\"workload\":\"compress\","
              "\"budget\":{\"timeout_ms\":0,\"max_fuel\":200000,"
              "\"max_cycles\":0,\"max_heap_bytes\":0}}");
}

TEST(RequestBuilder, PayloadsParseAsValidRequests)
{
    RequestBuilder b = RequestBuilder::trace("t1", "compress");
    b.strategy("cf").pusCount(8).inOrder(true).sizeHeuristic(true)
        .targets(2).includeTrace(true);
    serve::RequestDefaults defaults;
    serve::Request req = serve::parseRequest(b.payload(), defaults);
    EXPECT_EQ(req.kind, serve::RequestKind::Trace);
    ASSERT_EQ(req.specs.size(), 1u);
    EXPECT_EQ(req.specs[0].workload, "compress");
    EXPECT_EQ(req.specs[0].opts.config.numPUs, 8u);
    EXPECT_FALSE(req.specs[0].opts.config.outOfOrder);
    EXPECT_TRUE(req.specs[0].opts.sel.taskSizeHeuristic);
    EXPECT_TRUE(req.includeTrace);
}

// ---------------------------------------------------------------------------
// ResponseFrame decoding.

TEST(ResponseFrame, DecodesCell)
{
    ResponseFrame f = client::parseResponseFrame(
        "{\"id\":\"s1\",\"type\":\"cell\",\"index\":2,\"total\":4,"
        "\"run\":{\"id\":\"x\",\"status\":\"ok\"},\"shard\":1}");
    EXPECT_EQ(f.type, ResponseFrame::Type::Cell);
    EXPECT_EQ(f.id, "s1");
    EXPECT_EQ(f.index, 2u);
    EXPECT_EQ(f.total, 4u);
    EXPECT_EQ(f.run.get("status").asString(), "ok");
    EXPECT_FALSE(f.terminal());
}

TEST(ResponseFrame, DecodesDirectSummary)
{
    ResponseFrame f = client::parseResponseFrame(
        "{\"id\":\"s1\",\"type\":\"summary\",\"protocol_version\":3,"
        "\"status\":\"ok\",\"exit_code\":0,\"partial\":false,"
        "\"errors\":0,\"runs\":4}");
    EXPECT_EQ(f.type, ResponseFrame::Type::Summary);
    EXPECT_EQ(f.protocolVersion, 3);
    EXPECT_EQ(f.status, "ok");
    EXPECT_TRUE(f.via.empty());      // v2 shape: no router provenance
    EXPECT_TRUE(f.shards.empty());
    EXPECT_TRUE(f.terminates("s1"));
    EXPECT_FALSE(f.terminates("s2"));
}

TEST(ResponseFrame, DecodesRoutedSummaryProvenance)
{
    ResponseFrame f = client::parseResponseFrame(
        "{\"id\":\"s1\",\"type\":\"summary\",\"protocol_version\":3,"
        "\"status\":\"partial\",\"exit_code\":3,\"partial\":true,"
        "\"errors\":1,\"runs\":4,\"via\":\"router\","
        "\"shards\":[3,1]}");
    EXPECT_EQ(f.via, "router");
    ASSERT_EQ(f.shards.size(), 2u);
    EXPECT_EQ(f.shards[0], 3u);
    EXPECT_EQ(f.shards[1], 1u);
    EXPECT_EQ(f.exitCode, 3);
    EXPECT_TRUE(f.partial);
}

TEST(ResponseFrame, DecodesErrorIncludingBusy)
{
    ResponseFrame f = client::parseResponseFrame(
        "{\"id\":\"r9\",\"type\":\"error\",\"error\":{"
        "\"kind\":\"busy\",\"stage\":\"server\",\"workload\":\"\","
        "\"detail\":\"too many\",\"budget_exhausted\":false}}");
    EXPECT_EQ(f.type, ResponseFrame::Type::Error);
    EXPECT_EQ(f.error.kind, ErrorKind::Busy);
    EXPECT_EQ(f.error.stage, "server");
    EXPECT_TRUE(f.terminal());
}

TEST(ResponseFrame, ErrorFrameRendersLikeTheLocalError)
{
    runtime::StageErrorInfo info;
    info.kind = ErrorKind::BudgetFuel;
    info.stage = "profile";
    info.workload = "fuelbomb";
    info.detail = "fuel exhausted";
    info.limit = 200000;
    info.used = 200704;
    ResponseFrame f = client::parseResponseFrame(
        serve::errorFrame("r", info).dump());
    EXPECT_EQ(f.error.render(), info.render());
    EXPECT_NE(f.error.render().find("[used 200704 of 200000]"),
              std::string::npos);
}

TEST(ResponseFrame, RejectsMalformedFrames)
{
    const char *bad[] = {
        "not json",
        "[1,2]",
        "{\"id\":\"x\",\"type\":\"wat\"}",
        "{\"id\":\"x\",\"type\":\"cell\",\"index\":0,\"total\":1}",
        "{\"id\":\"x\",\"type\":\"error\"}",
    };
    for (const char *payload : bad) {
        try {
            client::parseResponseFrame(payload);
            FAIL() << "accepted malformed frame: " << payload;
        } catch (const StageError &e) {
            EXPECT_EQ(e.info().kind, ErrorKind::InvalidInput);
            EXPECT_EQ(e.info().stage, "client");
        }
    }
}

// ---------------------------------------------------------------------------
// parseUInt: every numeric CLI flag's one parser.

TEST(ClientCli, ParseUIntRejectsWhatAtoiAccepted)
{
    // atoi read these as 0, -1 (so UINT_MAX as unsigned), 4, 0, 4,
    // 4, and a wrapped or saturated 64-bit value.
    for (const char *text : {"abc", "-1", "4x", "", " 4", "+4", "0x10",
                             "18446744073709551616"}) {
        try {
            client::parseUInt("--jobs", text, UINT64_MAX);
            ADD_FAILURE() << "accepted \"" << text << "\"";
        } catch (const StageError &e) {
            EXPECT_EQ(e.info().kind, ErrorKind::InvalidInput);
            EXPECT_EQ(e.info().stage, "cli");
            EXPECT_NE(std::string(e.what()).find("--jobs must be an "
                                                 "integer in [0, "),
                      std::string::npos) << e.what();
        }
    }
    EXPECT_THROW(client::parseUInt("--jobs", "257", client::MAX_JOBS),
                 StageError);
    EXPECT_EQ(client::parseUInt("--jobs", "256", client::MAX_JOBS), 256u);
    EXPECT_EQ(client::parseUInt("--jobs", "0", client::MAX_JOBS), 0u);
    EXPECT_EQ(client::parseUInt("--max-fuel", "18446744073709551615",
                                UINT64_MAX),
              UINT64_MAX);
}

TEST(ErrorKindIds, RoundTripEveryKindIncludingBusy)
{
    for (int k = int(ErrorKind::None); k <= int(ErrorKind::Busy);
         ++k) {
        ErrorKind kind = ErrorKind(k), back = ErrorKind::None;
        ASSERT_TRUE(runtime::errorKindFromId(runtime::errorKindId(kind),
                                             back));
        EXPECT_EQ(back, kind);
    }
    ErrorKind out = ErrorKind::Deadline;
    EXPECT_FALSE(runtime::errorKindFromId("no-such-kind", out));
    EXPECT_EQ(out, ErrorKind::Deadline);  // untouched on failure
}

// ---------------------------------------------------------------------------
// ClientConn over an in-memory transport.

/** Frames @p payloads into one input stream. */
std::string
framed(const std::vector<std::string> &payloads)
{
    serve::StringTransport t("");
    for (const auto &p : payloads)
        serve::writeFrame(t, p);
    return t.written();
}

TEST(ClientConn, CallSkipsOtherIdsAndReturnsTerminal)
{
    serve::StringTransport t(framed({
        "{\"id\":\"other\",\"type\":\"cell\",\"index\":0,"
        "\"total\":1,\"run\":{\"status\":\"ok\"}}",
        "{\"id\":\"s1\",\"type\":\"cell\",\"index\":0,\"total\":1,"
        "\"run\":{\"id\":\"a\",\"status\":\"ok\"}}",
        "{\"id\":\"s1\",\"type\":\"summary\",\"protocol_version\":3,"
        "\"status\":\"ok\",\"exit_code\":0,\"partial\":false,"
        "\"errors\":0,\"runs\":1}",
    }));
    client::ClientConn conn(t);

    RequestBuilder req = RequestBuilder::sweep("s1");
    size_t mine = 0;
    client::ClientConn::SweepOutcome sw =
        conn.collectSweep(req, [&](const ResponseFrame &) { ++mine; });

    EXPECT_EQ(mine, 2u);  // the "other" frame never reaches onFrame
    ASSERT_TRUE(sw.ok());
    ASSERT_EQ(sw.runs.size(), 1u);
    EXPECT_EQ(sw.runs[0].get("id").asString(), "a");
    // The request went out framed, byte-exactly.
    serve::StringTransport echo(t.written());
    EXPECT_EQ(serve::readFrame(echo).payload, req.payload());
}

TEST(ClientConn, NextThrowsIoOnEof)
{
    serve::StringTransport t("");
    client::ClientConn conn(t);
    try {
        conn.next();
        FAIL() << "next() on an empty stream must throw";
    } catch (const StageError &e) {
        EXPECT_EQ(e.info().kind, ErrorKind::Io);
        EXPECT_EQ(e.info().stage, "client");
    }
}

TEST(ClientConn, SweepEndingInErrorIsNotOk)
{
    serve::StringTransport t(framed({
        "{\"id\":\"s1\",\"type\":\"error\",\"error\":{"
        "\"kind\":\"busy\",\"stage\":\"server\",\"workload\":\"\","
        "\"detail\":\"bound\",\"budget_exhausted\":false}}",
    }));
    client::ClientConn conn(t);
    client::ClientConn::SweepOutcome sw =
        conn.collectSweep(RequestBuilder::sweep("s1"));
    EXPECT_FALSE(sw.ok());
    EXPECT_EQ(sw.last.error.kind, ErrorKind::Busy);
}

TEST(ProtocolVersion, PinnedAtThree)
{
    // v3 added the optional router provenance fields (via/shards on
    // summaries, shard on cells). Requests did not change: every v2
    // request payload is still valid — parseRequest has no version
    // gate — so this pin only moves when the wire contract does.
    EXPECT_EQ(serve::PROTOCOL_VERSION, 3);
}

} // anonymous namespace
