/**
 * @file
 * In-process tests for shard-mode mscd (src/serve/router.*,
 * docs/DAEMON.md#sharding). Real Server instances listen on Unix
 * sockets inside this process as the shards; a Router fans requests
 * out to them; the client side is the src/client library over a
 * socketpair — so the full wire path (framing, demux, reassembly) is
 * exercised with no child processes. The same properties against the
 * real mscd/msctool binaries live in daemon_smoke.
 *
 * Proves:
 *  - a routed sweep reassembles byte-identically to a direct daemon's
 *    and carries the v3 provenance (via/shards, per-cell `shard`);
 *  - replaying a sweep computes nothing new anywhere (dedup and
 *    artifact caches stay shard-local), and the router's aggregated
 *    cache counters equal the sum of the shards' own gauges;
 *  - a shard that is down (connect refused) or dies on contact
 *    (connection lost) fails only its own cells: io error records,
 *    `partial` summary, exit code 3 — and the link recovers once a
 *    daemon comes back; a write that fails on an idle link fails its
 *    cell instead of leaving it waiting;
 *  - a shard stuck in the connect backoff ladder never stalls the
 *    client connection: stats and cancel behind a sweep answer first;
 *  - backpressure: past maxInflight, pooled requests get a structured
 *    `busy` error while the in-flight request's frames still arrive
 *    intact, and inline verbs (stats) are exempt;
 *  - trace forwarding relays the shard's result verbatim under the
 *    client's id; cancel reports unknown targets;
 *  - the shared front-end's framing errors are answered and counted
 *    under `router.*` too;
 *  - a client that never reads blocks neither a dispatcher worker nor
 *    a shard-link reader: its frames wait in its own writer's queue.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "client/client.h"
#include "report/record.h"
#include "serve/router.h"
#include "serve/server.h"

using namespace msc;
using client::ClientConn;
using client::RequestBuilder;
using client::ResponseFrame;

namespace {

namespace fs = std::filesystem;

/** Writes to sockets the peer already closed must error, not kill
 *  the test binary (mscd itself ignores SIGPIPE in main()). */
struct IgnoreSigpipe
{
    IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }
} g_sigpipe;

struct TempDir
{
    std::string dir;

    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "msc-router-XXXXXX").string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!mkdtemp(buf.data()))
            throw std::runtime_error("mkdtemp failed");
        dir = buf.data();
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    std::string path(const std::string &name) const
    {
        return (fs::path(dir) / name).string();
    }
};

/** An in-process mscd Server listening on a Unix socket. */
class ShardDaemon
{
  public:
    explicit ShardDaemon(std::string sock, unsigned jobs = 2)
        : _sock(std::move(sock))
    {
        serve::ServerConfig cfg;
        cfg.dispatch.jobs = jobs;
        _server = std::make_unique<serve::Server>(std::move(cfg));
        _th = std::thread([this] { _server->serveUnix(_sock); });
        // Ready when a connection succeeds (bind+listen are done).
        for (int i = 0;; ++i) {
            try {
                ::close(client::connectEndpoint(endpoint()));
                return;
            } catch (const std::exception &) {
                if (i >= 200)
                    throw;
                ::usleep(10'000);
            }
        }
    }

    /** NOTE: blocks until every live connection (including router
     *  links) has closed — destroy the Router first. */
    ~ShardDaemon()
    {
        _server->requestStop();
        _th.join();
    }

    client::Endpoint endpoint() const
    {
        return client::parseEndpoint("unix:" + _sock);
    }

  private:
    std::string _sock;
    std::unique_ptr<serve::Server> _server;
    std::thread _th;
};

/** A listener that accepts and immediately closes every connection —
 *  a shard that "dies on contact", deterministically. */
class DeadOnContactShard
{
  public:
    explicit DeadOnContactShard(std::string sock)
        : _sock(std::move(sock))
    {
        _fd = serve::bindUnix(_sock, "test-dead-shard");
        if (_fd < 0)
            throw std::runtime_error("bindUnix failed");
        _th = std::thread([this] {
            while (true) {
                int c = ::accept(_fd, nullptr, nullptr);
                if (c < 0)
                    return;  // listener closed
                ::close(c);
            }
        });
    }

    ~DeadOnContactShard()
    {
        ::shutdown(_fd, SHUT_RDWR);
        ::close(_fd);
        _th.join();
        ::unlink(_sock.c_str());
    }

    client::Endpoint endpoint() const
    {
        return client::parseEndpoint("unix:" + _sock);
    }

  private:
    std::string _sock;
    int _fd = -1;
    std::thread _th;
};

/** A shard that answers the first request on its first connection
 *  with an error frame, having shut down its read side first, and
 *  then keeps the connection open: the link is idle and its reader
 *  sees no end of stream, yet the next write to it fails with EPIPE
 *  at once — deterministically the "idle shard that has just died"
 *  race. */
class HalfClosedShard
{
  public:
    explicit HalfClosedShard(std::string sock)
        : _sock(std::move(sock))
    {
        _fd = serve::bindUnix(_sock, "test-half-closed-shard");
        if (_fd < 0)
            throw std::runtime_error("bindUnix failed");
        _th = std::thread([this] {
            _conn = ::accept(_fd, nullptr, nullptr);
            if (_conn < 0)
                return;
            serve::FdTransport t(_conn, _conn);
            serve::FrameResult fr = serve::readFrame(t);
            if (fr.status != serve::FrameStatus::Ok)
                return;
            ::shutdown(_conn, SHUT_RD);
            runtime::StageErrorInfo info;
            info.kind = runtime::ErrorKind::Internal;
            info.stage = "test";
            info.detail = "answered, then stopped reading";
            serve::writeFrame(
                t, serve::errorFrame(serve::extractRequestId(fr.payload),
                                     info)
                       .dump());
        });
    }

    ~HalfClosedShard()
    {
        ::shutdown(_fd, SHUT_RDWR);
        ::close(_fd);
        _th.join();
        if (_conn >= 0)
            ::close(_conn);
        ::unlink(_sock.c_str());
    }

    client::Endpoint endpoint() const
    {
        return client::parseEndpoint("unix:" + _sock);
    }

  private:
    std::string _sock;
    int _fd = -1;
    int _conn = -1;
    std::thread _th;
};

/** One client conversation with an in-process daemon (Router or
 *  Server), over a socketpair (no listener needed). @p sndbuf > 0
 *  shrinks the daemon side's send buffer, so a client that stops
 *  reading blocks the daemon's writes almost at once. */
class PeerConn
{
  public:
    explicit PeerConn(serve::Frontend &daemon, int sndbuf = 0)
    {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
            throw std::runtime_error("socketpair failed");
        _serverFd = sv[1];
        if (sndbuf > 0)
            ::setsockopt(_serverFd, SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof sndbuf);
        _th = std::thread([this, &daemon] {
            serve::FdTransport t(_serverFd, _serverFd);
            try {
                daemon.serveConnection(t);
            } catch (const std::exception &) {
                // A client that closes with frames unread resets the
                // connection (the listener glue counts this too).
            }
        });
        _conn = std::make_unique<ClientConn>(sv[0], sv[0], true);
    }

    ~PeerConn()
    {
        _conn.reset();  // close our end -> serveConnection sees EOF
        _th.join();
        ::close(_serverFd);
    }

    ClientConn &operator*() { return *_conn; }
    ClientConn *operator->() { return _conn.get(); }

  private:
    std::unique_ptr<ClientConn> _conn;
    std::thread _th;
    int _serverFd = -1;
};

/** The grid every test sweeps: 8 cells, all fast at small scale. */
RequestBuilder
testSweep(const std::string &id)
{
    RequestBuilder b = RequestBuilder::sweep(id);
    b.workloads({"compress", "li", "go", "m88ksim"})
        .strategies({"bb", "cf"})
        .pus({2})
        .smallScale(true)
        .insts(20000);
    return b;
}

std::string
docOf(ClientConn::SweepOutcome &sw)
{
    return report::sweepDocFromRuns(std::move(sw.runs)).dump(2);
}

uint64_t
counterOf(const report::Json &metrics, const char *name)
{
    const report::Json *v = metrics.get("counters").find(name);
    return v ? v->asUInt() : 0;
}

report::Json
statsOf(const client::Endpoint &ep)
{
    ClientConn conn(ep);
    ResponseFrame last = conn.call(RequestBuilder::stats("st"));
    EXPECT_EQ(last.type, ResponseFrame::Type::Result);
    return last.raw.get("metrics");
}

TEST(Router, RoutedSweepMatchesDirectDaemonByteForByte)
{
    TempDir tmp;
    ShardDaemon s0(tmp.path("s0.sock"));
    ShardDaemon s1(tmp.path("s1.sock"));
    ShardDaemon direct(tmp.path("d.sock"));

    serve::RouterConfig rcfg;
    rcfg.shards = {s0.endpoint(), s1.endpoint()};
    serve::Router router(std::move(rcfg));

    // Routed.
    std::vector<report::Json> cells;
    ClientConn::SweepOutcome routed;
    {
        PeerConn conn(router);
        routed = conn->collectSweep(
            testSweep("s1"), [&](const ResponseFrame &f) {
                if (f.type == ResponseFrame::Type::Cell)
                    cells.push_back(f.raw);
            });
    }
    ASSERT_TRUE(routed.ok());
    EXPECT_EQ(routed.last.exitCode, 0);
    EXPECT_EQ(routed.last.status, "ok");
    EXPECT_EQ(routed.last.runs, 8u);
    EXPECT_EQ(routed.last.protocolVersion, serve::PROTOCOL_VERSION);

    // v3 provenance: summary names the router and both shards; every
    // relayed cell says which shard produced it, in [0, N).
    EXPECT_EQ(routed.last.via, "router");
    ASSERT_EQ(routed.last.shards.size(), 2u);
    EXPECT_EQ(routed.last.shards[0] + routed.last.shards[1], 8u);
    ASSERT_EQ(cells.size(), 8u);
    for (const auto &c : cells) {
        ASSERT_NE(c.find("shard"), nullptr);
        EXPECT_LT(c.get("shard").asUInt(), 2u);
    }

    // Direct (no router in the path).
    ClientConn dc(direct.endpoint());
    ClientConn::SweepOutcome plain = dc.collectSweep(testSweep("s1"));
    ASSERT_TRUE(plain.ok());
    EXPECT_TRUE(plain.last.via.empty());

    EXPECT_EQ(docOf(routed), docOf(plain));
}

TEST(Router, ReplayComputesNothingAndCachesStayShardLocal)
{
    TempDir tmp;
    ShardDaemon s0(tmp.path("s0.sock"));
    ShardDaemon s1(tmp.path("s1.sock"));

    serve::RouterConfig rcfg;
    rcfg.shards = {s0.endpoint(), s1.endpoint()};
    serve::Router router(std::move(rcfg));

    PeerConn conn(router);
    ClientConn::SweepOutcome first =
        conn->collectSweep(testSweep("s1"));
    ClientConn::SweepOutcome second =
        conn->collectSweep(testSweep("s2"));
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(docOf(first), docOf(second));

    // The aggregated cache counters are cumulative across the shard
    // fleet: the replay computed nothing new, it only hit.
    uint64_t computed1 =
        first.last.raw.get("cache").get("computed").asUInt();
    uint64_t computed2 =
        second.last.raw.get("cache").get("computed").asUInt();
    uint64_t hits1 = first.last.raw.get("cache").get("hits").asUInt();
    uint64_t hits2 =
        second.last.raw.get("cache").get("hits").asUInt();
    EXPECT_GT(computed1, 0u);
    EXPECT_EQ(computed2, computed1);
    EXPECT_GT(hits2, hits1);

    // Shard-local means the sum of the shards' own gauges IS the
    // router's aggregate — no artifact was computed anywhere else.
    report::Json m0 = statsOf(s0.endpoint());
    report::Json m1 = statsOf(s1.endpoint());
    EXPECT_EQ(m0.get("gauges").get("mscd.cache.computed").asUInt() +
                  m1.get("gauges").get("mscd.cache.computed").asUInt(),
              computed2);
    // Every cell went somewhere, and each shard served its share as
    // plain single-cell runs (16 = 8 cells x 2 sweeps).
    EXPECT_EQ(counterOf(m0, "mscd.requests.run") +
                  counterOf(m1, "mscd.requests.run"),
              16u);

    // The router's own registry, via its stats verb.
    ResponseFrame st =
        conn->call(RequestBuilder::stats("router-stats"));
    ASSERT_EQ(st.type, ResponseFrame::Type::Result);
    const report::Json &rm = st.raw.get("metrics");
    EXPECT_EQ(counterOf(rm, "router.requests.sweep"), 2u);
    EXPECT_EQ(counterOf(rm, "router.requests.stats"), 1u);
    EXPECT_EQ(counterOf(rm, "router.cells.forwarded"), 16u);
    EXPECT_EQ(counterOf(rm, "router.cells.failed"), 0u);
    EXPECT_EQ(counterOf(rm, "router.shard.0.cells") +
                  counterOf(rm, "router.shard.1.cells"),
              16u);
    EXPECT_EQ(counterOf(rm, "router.connections.accepted"), 1u);
}

TEST(Router, DownShardFailsOnlyItsCellsAndRecovers)
{
    TempDir tmp;
    ShardDaemon s0(tmp.path("s0.sock"));
    std::string lateSock = tmp.path("late.sock");
    // Declared before the router so it outlives it: ~ShardDaemon
    // blocks until every connection (the router's link) has closed.
    std::unique_ptr<ShardDaemon> late;

    serve::RouterConfig rcfg;
    rcfg.shards = {s0.endpoint(),
                   client::parseEndpoint("unix:" + lateSock)};
    rcfg.connectAttempts = 2;  // keep the backoff ladder short
    rcfg.connectBackoffMs = 1;
    serve::Router router(std::move(rcfg));
    PeerConn conn(router);

    // Nothing listens on late.sock yet: its cells become io error
    // records, everyone else's complete, the sweep is partial.
    ClientConn::SweepOutcome degraded =
        conn->collectSweep(testSweep("s1"));
    ASSERT_TRUE(degraded.ok());
    EXPECT_EQ(degraded.last.status, "partial");
    EXPECT_EQ(degraded.last.exitCode, report::EXIT_SWEEP_PARTIAL);
    EXPECT_TRUE(degraded.last.partial);
    ASSERT_EQ(degraded.last.shards.size(), 2u);
    EXPECT_EQ(degraded.last.errors, degraded.last.shards[1]);
    EXPECT_GE(degraded.last.errors, 1u);
    for (const auto &run : degraded.runs) {
        if (run.get("status").asString() == "ok")
            continue;
        EXPECT_EQ(run.get("error").get("kind").asString(), "io");
    }

    // A daemon arrives on that socket: the link reconnects (retry
    // with backoff) and the same grid now sweeps clean.
    late = std::make_unique<ShardDaemon>(lateSock);
    ClientConn::SweepOutcome healed =
        conn->collectSweep(testSweep("s2"));
    ASSERT_TRUE(healed.ok());
    EXPECT_EQ(healed.last.status, "ok");
    EXPECT_EQ(healed.last.exitCode, 0);
}

TEST(Router, ShardDyingOnContactDegradesToPartial)
{
    TempDir tmp;
    ShardDaemon s0(tmp.path("s0.sock"));
    DeadOnContactShard dead(tmp.path("dead.sock"));

    serve::RouterConfig rcfg;
    rcfg.shards = {s0.endpoint(), dead.endpoint()};
    rcfg.connectAttempts = 2;
    rcfg.connectBackoffMs = 1;
    serve::Router router(std::move(rcfg));
    PeerConn conn(router);

    // connect() succeeds (listen backlog), then the link collapses:
    // pending cells on it fail as connection-lost io errors.
    ClientConn::SweepOutcome sw = conn->collectSweep(testSweep("s1"));
    ASSERT_TRUE(sw.ok());
    EXPECT_EQ(sw.last.status, "partial");
    EXPECT_EQ(sw.last.exitCode, report::EXIT_SWEEP_PARTIAL);
    EXPECT_EQ(sw.last.errors, sw.last.shards[1]);
    EXPECT_GE(sw.last.errors, 1u);
    size_t ok = 0;
    for (const auto &run : sw.runs)
        ok += run.get("status").asString() == "ok";
    EXPECT_EQ(ok, size_t(sw.last.shards[0]));
}

TEST(Router, FailedWriteToIdleShardFailsTheCell)
{
    TempDir tmp;
    HalfClosedShard shard(tmp.path("half.sock"));

    serve::RouterConfig rcfg;
    rcfg.shards = {shard.endpoint()};
    rcfg.connectAttempts = 1;
    serve::Router router(std::move(rcfg));
    PeerConn conn(router);

    RequestBuilder first = RequestBuilder::run("a", "compress");
    first.strategy("bb").pusCount(2).smallScale(true).insts(20000);
    ClientConn::SweepOutcome a = conn->collectSweep(first);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.last.status, "failed");
    ASSERT_EQ(a.runs.size(), 1u);
    EXPECT_EQ(a.runs[0].get("error").get("kind").asString(),
              "internal");

    // Nothing is pending on the link now, and the shard has stopped
    // reading: this cell's write fails. It must complete as an io
    // error record, not wait for an answer that never comes.
    RequestBuilder second = RequestBuilder::run("b", "compress");
    second.strategy("bb").pusCount(2).smallScale(true).insts(20000);
    ClientConn::SweepOutcome b = conn->collectSweep(second);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.last.status, "failed");
    ASSERT_EQ(b.runs.size(), 1u);
    EXPECT_EQ(b.runs[0].get("error").get("kind").asString(), "io");
}

TEST(Router, UnreachableShardLeavesInlineVerbsResponsive)
{
    TempDir tmp;
    serve::RouterConfig rcfg;
    rcfg.shards = {client::parseEndpoint("unix:" + tmp.path("none"))};
    // The first cell spends 0.5 + 1.0 s in the connect backoff ladder.
    rcfg.connectAttempts = 3;
    rcfg.connectBackoffMs = 500;
    serve::Router router(std::move(rcfg));
    PeerConn conn(router);

    // Routing queues the cells on the shard link, so the reader goes
    // straight on to the inline verbs behind the sweep: both answer
    // before any cell, and the cancel still finds the sweep.
    conn->send(testSweep("s1"));
    conn->send(RequestBuilder::stats("st"));
    conn->send(RequestBuilder::cancel("c1", "s1"));
    ResponseFrame st = conn->next();
    EXPECT_EQ(st.id, "st");
    EXPECT_EQ(st.type, ResponseFrame::Type::Result);
    ResponseFrame cancel = conn->next();
    EXPECT_EQ(cancel.id, "c1");
    ASSERT_EQ(cancel.type, ResponseFrame::Type::Result);
    EXPECT_TRUE(cancel.raw.get("found").asBool());

    size_t cells = 0;
    ResponseFrame f;
    while ((f = conn->next()).type == ResponseFrame::Type::Cell) {
        EXPECT_EQ(f.id, "s1");
        EXPECT_EQ(f.run.get("error").get("kind").asString(), "io");
        ++cells;
    }
    EXPECT_EQ(cells, 8u);
    ASSERT_EQ(f.type, ResponseFrame::Type::Summary);
    EXPECT_EQ(f.status, "failed");
}

TEST(Router, BackpressureRefusesWithBusyWithoutDroppingFrames)
{
    TempDir tmp;
    ShardDaemon s0(tmp.path("s0.sock"));

    serve::RouterConfig rcfg;
    rcfg.shards = {s0.endpoint()};
    rcfg.maxInflight = 1;
    serve::Router router(std::move(rcfg));
    PeerConn conn(router);

    // A deliberately slow cell (fuelbomb burns its whole fuel budget)
    // keeps the connection at the bound while the next pooled request
    // arrives; the reader refuses it *synchronously*, so this is not
    // a timing-dependent check.
    runtime::ExecBudget slowBudget;
    slowBudget.maxFuel = 50'000'000;
    RequestBuilder slow = RequestBuilder::run("slow", "fuelbomb");
    slow.strategy("bb").pusCount(2).smallScale(true).insts(20000)
        .budget(slowBudget);
    RequestBuilder fast = RequestBuilder::run("fast", "compress");
    fast.strategy("bb").pusCount(2).smallScale(true).insts(20000);

    conn->send(slow);
    conn->send(fast);

    bool sawBusy = false, sawSlowCell = false;
    ResponseFrame slowEnd;
    while (true) {
        ResponseFrame f = conn->next();
        if (f.id == "fast") {
            ASSERT_EQ(f.type, ResponseFrame::Type::Error);
            EXPECT_EQ(f.error.kind, runtime::ErrorKind::Busy);
            EXPECT_EQ(f.error.stage, "server");
            sawBusy = true;
        } else if (f.id == "slow") {
            if (f.type == ResponseFrame::Type::Cell) {
                sawSlowCell = true;
            } else {
                slowEnd = f;
                break;
            }
        }
    }
    // The refused request never disturbed the in-flight one: its cell
    // and summary frames arrived intact (the cell is a budget-fuel
    // error record — fuelbomb never halts — but it IS delivered).
    EXPECT_TRUE(sawBusy);
    EXPECT_TRUE(sawSlowCell);
    ASSERT_EQ(slowEnd.type, ResponseFrame::Type::Summary);
    EXPECT_EQ(slowEnd.runs, 1u);

    // Inline verbs bypass the pool and are exempt from the bound.
    ResponseFrame st = conn->call(RequestBuilder::stats("st"));
    ASSERT_EQ(st.type, ResponseFrame::Type::Result);
    EXPECT_EQ(counterOf(st.raw.get("metrics"),
                        "router.requests.busy"),
              1u);
}

TEST(Router, TraceForwardRelaysResultUnderClientId)
{
    TempDir tmp;
    ShardDaemon s0(tmp.path("s0.sock"));
    ShardDaemon direct(tmp.path("d.sock"));

    serve::RouterConfig rcfg;
    rcfg.shards = {s0.endpoint()};
    serve::Router router(std::move(rcfg));
    PeerConn conn(router);

    RequestBuilder req = RequestBuilder::trace("t1", "compress");
    req.strategy("bb").pusCount(2).smallScale(true).insts(20000);

    ResponseFrame routed = conn->call(req);
    ASSERT_EQ(routed.type, ResponseFrame::Type::Result);
    EXPECT_EQ(routed.id, "t1");
    EXPECT_EQ(routed.resultKind, "trace");

    ClientConn dc(direct.endpoint());
    ResponseFrame plain = dc.call(req);
    ASSERT_EQ(plain.type, ResponseFrame::Type::Result);
    EXPECT_EQ(routed.raw.get("run").dump(),
              plain.raw.get("run").dump());
    EXPECT_EQ(routed.raw.get("taskprof").dump(),
              plain.raw.get("taskprof").dump());
}

TEST(Router, UnknownWorkloadStillRoutesToIdenticalErrorRecord)
{
    TempDir tmp;
    ShardDaemon s0(tmp.path("s0.sock"));
    ShardDaemon direct(tmp.path("d.sock"));

    serve::RouterConfig rcfg;
    rcfg.shards = {s0.endpoint()};
    serve::Router router(std::move(rcfg));
    PeerConn conn(router);

    // No program -> no content key: the router falls back to a name
    // hash, and the shard's error record equals a direct daemon's.
    RequestBuilder req = RequestBuilder::run("u1", "nosuchworkload");
    req.strategy("bb").pusCount(2).smallScale(true).insts(20000);

    ClientConn::SweepOutcome routed = conn->collectSweep(req);
    ASSERT_TRUE(routed.ok());
    EXPECT_EQ(routed.last.status, "failed");
    EXPECT_EQ(routed.last.exitCode, report::EXIT_SWEEP_FAILED);

    ClientConn dc(direct.endpoint());
    ClientConn::SweepOutcome plain = dc.collectSweep(req);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(docOf(routed), docOf(plain));
}

TEST(Router, CancelOfUnknownTargetReportsNotFound)
{
    TempDir tmp;
    ShardDaemon s0(tmp.path("s0.sock"));

    serve::RouterConfig rcfg;
    rcfg.shards = {s0.endpoint()};
    serve::Router router(std::move(rcfg));
    PeerConn conn(router);

    ResponseFrame res =
        conn->call(RequestBuilder::cancel("c1", "no-such-request"));
    ASSERT_EQ(res.type, ResponseFrame::Type::Result);
    EXPECT_EQ(res.resultKind, "cancel");
    EXPECT_FALSE(res.raw.get("found").asBool());
}

TEST(Router, FramingErrorsAreCountedAndAnswered)
{
    TempDir tmp;
    ShardDaemon s0(tmp.path("s0.sock"));

    serve::RouterConfig rcfg;
    rcfg.shards = {s0.endpoint()};
    rcfg.maxFrame = 1024;
    serve::Router router(std::move(rcfg));

    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::thread th([&] {
        serve::FdTransport t(sv[1], sv[1]);
        router.serveConnection(t);
    });
    serve::FdTransport client(sv[0], sv[0]);
    auto header = [&](uint32_t n) {
        unsigned char h[4] = {uint8_t(n >> 24), uint8_t(n >> 16),
                              uint8_t(n >> 8), uint8_t(n)};
        client.write(h, sizeof h);
    };

    // Oversize: refused without consuming, the connection stays up.
    header(4096);
    serve::FrameResult fr = serve::readFrame(client);
    ASSERT_EQ(fr.status, serve::FrameStatus::Ok);
    ResponseFrame f = client::parseResponseFrame(fr.payload);
    EXPECT_EQ(f.type, ResponseFrame::Type::Error);
    EXPECT_EQ(f.error.kind, runtime::ErrorKind::InvalidInput);

    // Truncated: a header promising more than the stream delivers
    // still gets one final error frame.
    header(100);
    client.write("{\"id\"", 5);
    ::shutdown(sv[0], SHUT_WR);
    fr = serve::readFrame(client);
    ASSERT_EQ(fr.status, serve::FrameStatus::Ok);
    f = client::parseResponseFrame(fr.payload);
    EXPECT_EQ(f.type, ResponseFrame::Type::Error);
    EXPECT_NE(f.error.detail.find("truncated"), std::string::npos);
    th.join();  // the truncation ended the connection
    ::close(sv[1]);
    EXPECT_EQ(serve::readFrame(client).status, serve::FrameStatus::Eof);
    ::close(sv[0]);

    obs::MetricsRegistry &m = router.metrics();
    EXPECT_EQ(m.counter("router.frames.oversize").value(), 1u);
    EXPECT_EQ(m.counter("router.frames.truncated").value(), 1u);
    EXPECT_EQ(m.counter("router.frames.in").value(), 0u);
    EXPECT_EQ(m.counter("router.frames.out").value(), 2u);
}

/** Connection A asks for copies of the test sweep and never reads a
 *  byte. Every one of A's sweeps must still finish — its frames go to
 *  A's own writer, so no worker or shard-link reader ever waits on
 *  A's socket — and connection B's run must still complete. */
void
expectSlowReaderBlocksNothing(serve::Frontend &daemon,
                              const std::string &prefix)
{
    const uint64_t sweeps = 8;
    PeerConn a(daemon, 4096);
    for (uint64_t i = 0; i < sweeps; ++i)
        a->send(testSweep("a" + std::to_string(i)));

    PeerConn b(daemon);
    uint64_t polls = 0;
    auto counters = [&] {
        ++polls;
        ResponseFrame st = b->call(RequestBuilder::stats("st"));
        EXPECT_EQ(st.type, ResponseFrame::Type::Result);
        return st.raw.get("metrics");
    };
    // All of A's sweeps parsed and finished (none still in flight).
    report::Json m;
    for (int i = 0;; ++i) {
        m = counters();
        if (counterOf(m, (prefix + ".requests.sweep").c_str()) ==
                sweeps &&
            m.get("gauges")
                    .get(prefix + ".requests.inflight")
                    .asInt() == 0)
            break;
        ASSERT_LT(i, 6000) << "a non-reading client stalled the daemon";
        ::usleep(10'000);
    }
    // ...yet nowhere near all of their 9 frames per sweep could be
    // written into a 4 KiB buffer nobody drains: A's writer is stuck.
    // (Each earlier poll wrote one frame to B.)
    EXPECT_LT(counterOf(m, (prefix + ".frames.out").c_str()) -
                  (polls - 1),
              sweeps * 9);

    RequestBuilder run = RequestBuilder::run("b1", "compress");
    run.strategy("dd").pusCount(4).smallScale(true).insts(20000);
    ClientConn::SweepOutcome out = b->collectSweep(run);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.last.status, "ok");
}

TEST(SlowReader, BlocksNoWorkerOnASingleWorkerServer)
{
    serve::ServerConfig cfg;
    cfg.dispatch.jobs = 1;
    serve::Server server(std::move(cfg));
    expectSlowReaderBlocksNothing(server, "mscd");
}

TEST(SlowReader, BlocksNoShardLinkThroughARouter)
{
    TempDir tmp;
    ShardDaemon s0(tmp.path("s0.sock"), 1);
    ShardDaemon s1(tmp.path("s1.sock"), 1);

    serve::RouterConfig rcfg;
    rcfg.shards = {s0.endpoint(), s1.endpoint()};
    serve::Router router(std::move(rcfg));
    expectSlowReaderBlocksNothing(router, "router");
}

} // anonymous namespace
