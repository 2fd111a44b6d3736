/**
 * @file
 * Daemon / router load generator (docs/DAEMON.md#sharding,
 * docs/PERFORMANCE.md). Measures the protocol + dispatch overhead of
 * serving pipeline runs through mscd, and what the shard router adds
 * on top, with the simulation cost itself deduplicated away:
 *
 *   1. an in-process direct Server on a Unix socket: one cold pass
 *      computes every distinct spec, then a timed pass of --requests
 *      warm `run` requests (every one a cache hit — the wire, the
 *      dispatcher, and the cache lookup are what remain);
 *   2. the same pass through a Router fronting --shards in-process
 *      shard daemons (adds a hash decision, a second hop, and the
 *      grid reassembly per request);
 *   3. one timed routed sweep of the full distinct grid, warm, for
 *      the fan-out path.
 *
 * Reports wall clock, requests/sec, and p50/p95/max per-request
 * latency for both topologies, plus the routed-vs-direct overhead
 * ratio — the number scripts/bench_snapshot.sh commits into
 * BENCH_pr10.json. Everything runs in this process over real
 * sockets, so the figures are transport-inclusive but scheduler-free
 * (no fork, no exec, no container noise).
 *
 * Usage:
 *   bench_daemon [--requests N] [--shards K] [--jobs J] [--json file]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <unistd.h>

#include "client/cli.h"
#include "client/client.h"
#include "report/record.h"
#include "serve/router.h"
#include "serve/server.h"

using namespace msc;
using Clock = std::chrono::steady_clock;

namespace {

namespace fs = std::filesystem;

struct Options
{
    unsigned requests = 64;
    unsigned shards = 4;
    unsigned jobs = 2;
    std::string jsonPath;
};

Options
parseArgs(int argc, char **argv)
try {
    Options o;
    auto usage = [&](int code) {
        std::fprintf(
            stderr,
            "usage: %s [--requests N] [--shards K] [--jobs J]"
            " [--json file]\n"
            "  --requests N  warm run requests per topology"
            " (default 64)\n"
            "  --shards K    shard daemons behind the router"
            " (default 4)\n"
            "  --jobs J      worker threads per daemon (default 2)\n"
            "  --json file   write the msc.bench_daemon document\n",
            argv[0]);
        std::exit(code);
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                usage(2);
            }
            return argv[++i];
        };
        if (a == "--requests")
            o.requests = unsigned(client::parseUInt(a.c_str(), val(),
                                                    UINT32_MAX));
        else if (a == "--shards")
            o.shards = unsigned(client::parseUInt(a.c_str(), val(),
                                                  client::MAX_JOBS));
        else if (a == "--jobs")
            o.jobs = unsigned(client::parseUInt(a.c_str(), val(),
                                                client::MAX_JOBS));
        else if (a == "--json")
            o.jsonPath = val();
        else if (a == "--help" || a == "-h")
            usage(0);
        else {
            std::fprintf(stderr, "unknown flag %s\n", a.c_str());
            usage(2);
        }
    }
    if (!o.requests || !o.shards)
        usage(2);
    return o;
} catch (const std::exception &e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
}

struct TempDir
{
    std::string dir;

    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "msc-bench-daemon-XXXXXX")
                .string();
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

class ShardDaemon
{
  public:
    ShardDaemon(std::string sock, unsigned jobs)
        : _sock(std::move(sock))
    {
        serve::ServerConfig cfg;
        cfg.dispatch.jobs = jobs;
        _server = std::make_unique<serve::Server>(std::move(cfg));
        _th = std::thread([this] { _server->serveUnix(_sock); });
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

/** The distinct warm grid: 8 specs, all fast at small scale. */
std::vector<std::pair<std::string, std::string>>
grid()
{
    std::vector<std::pair<std::string, std::string>> g;
    for (const char *w : {"compress", "li", "go", "m88ksim"})
        for (const char *s : {"bb", "cf"})
            g.emplace_back(w, s);
    return g;
}

client::RequestBuilder
runReq(const std::string &id, const std::string &workload,
       const std::string &strategy)
{
    client::RequestBuilder b = client::RequestBuilder::run(id, workload);
    b.strategy(strategy).pusCount(4).smallScale(true).insts(20000);
    return b;
}

struct PassResult
{
    double wallMs = 0;
    double reqPerSec = 0;
    double p50Us = 0;
    double p95Us = 0;
    double maxUs = 0;
};

double
quantile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0;
    size_t i = size_t(q * double(sorted.size() - 1) + 0.5);
    return sorted[std::min(i, sorted.size() - 1)];
}

/** @p n warm run requests round-robin over the grid, one connection,
 *  sequential (per-request latency is the figure of merit). */
PassResult
timedPass(client::ClientConn &conn, unsigned n)
{
    const auto g = grid();
    std::vector<double> lat;
    lat.reserve(n);
    Clock::time_point start = Clock::now();
    for (unsigned i = 0; i < n; ++i) {
        const auto &[w, s] = g[i % g.size()];
        Clock::time_point t0 = Clock::now();
        client::ResponseFrame f =
            conn.call(runReq("b" + std::to_string(i), w, s));
        if (f.type != client::ResponseFrame::Type::Summary ||
            f.status != "ok")
            throw std::runtime_error("bench request failed on " + w);
        lat.push_back(std::chrono::duration<double, std::micro>(
                          Clock::now() - t0)
                          .count());
    }
    double wall = std::chrono::duration<double, std::milli>(
                      Clock::now() - start)
                      .count();
    std::sort(lat.begin(), lat.end());
    PassResult r;
    r.wallMs = wall;
    r.reqPerSec = double(n) * 1000.0 / wall;
    r.p50Us = quantile(lat, 0.50);
    r.p95Us = quantile(lat, 0.95);
    r.maxUs = lat.back();
    return r;
}

/** One cold pass computes every distinct spec so the timed passes
 *  measure the serving stack, not the simulator. */
void
warm(client::ClientConn &conn)
{
    unsigned i = 0;
    for (const auto &[w, s] : grid()) {
        client::ResponseFrame f =
            conn.call(runReq("warm" + std::to_string(i++), w, s));
        if (f.type != client::ResponseFrame::Type::Summary ||
            f.status != "ok")
            throw std::runtime_error("warm-up failed on " + w);
    }
}

double
timedSweep(client::ClientConn &conn)
{
    client::RequestBuilder b = client::RequestBuilder::sweep("sw");
    b.workloads({"compress", "li", "go", "m88ksim"})
        .strategies({"bb", "cf"})
        .pus({4})
        .smallScale(true)
        .insts(20000);
    Clock::time_point t0 = Clock::now();
    client::ClientConn::SweepOutcome sw = conn.collectSweep(b);
    if (!sw.ok() || sw.last.exitCode != 0)
        throw std::runtime_error("bench sweep failed");
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

report::Json
passJson(const PassResult &r)
{
    report::Json j = report::Json::object();
    j["wall_ms"] = r.wallMs;
    j["req_per_sec"] = r.reqPerSec;
    j["p50_us"] = r.p50Us;
    j["p95_us"] = r.p95Us;
    j["max_us"] = r.maxUs;
    return j;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    std::signal(SIGPIPE, SIG_IGN);
    try {
        TempDir tmp;

        // Direct topology.
        PassResult direct;
        double directSweepMs = 0;
        {
            ShardDaemon d(tmp.path("direct.sock"), opts.jobs);
            client::ClientConn conn(d.endpoint());
            warm(conn);
            direct = timedPass(conn, opts.requests);
            directSweepMs = timedSweep(conn);
        }

        // Routed topology: the same pass through the shard router.
        PassResult routed;
        double routedSweepMs = 0;
        {
            std::vector<std::unique_ptr<ShardDaemon>> shards;
            serve::RouterConfig rcfg;
            for (unsigned i = 0; i < opts.shards; ++i) {
                shards.push_back(std::make_unique<ShardDaemon>(
                    tmp.path("shard" + std::to_string(i) + ".sock"),
                    opts.jobs));
                rcfg.shards.push_back(shards.back()->endpoint());
            }
            serve::Router router(std::move(rcfg));
            std::string rsock = tmp.path("router.sock");
            std::thread rth([&] { router.serveUnix(rsock); });
            client::Endpoint rep =
                client::parseEndpoint("unix:" + rsock);
            for (int i = 0;; ++i) {
                try {
                    ::close(client::connectEndpoint(rep));
                    break;
                } catch (const std::exception &) {
                    if (i >= 200)
                        throw;
                    ::usleep(10'000);
                }
            }
            {
                client::ClientConn conn(rep);
                warm(conn);
                routed = timedPass(conn, opts.requests);
                routedSweepMs = timedSweep(conn);
            }
            router.requestStop();
            rth.join();
            // `router` (holding the shard links) must go before
            // `shards`: reverse declaration order guarantees it.
        }

        double overhead = routed.p50Us / direct.p50Us;
        std::printf("\n=== bench_daemon (%u requests, %u shards, "
                    "--jobs %u) ===\n",
                    opts.requests, opts.shards, opts.jobs);
        std::printf("%-8s %10s %10s %10s %10s %10s\n", "topology",
                    "wall ms", "req/s", "p50 us", "p95 us", "max us");
        std::printf("%-8s %10.1f %10.0f %10.0f %10.0f %10.0f\n",
                    "direct", direct.wallMs, direct.reqPerSec,
                    direct.p50Us, direct.p95Us, direct.maxUs);
        std::printf("%-8s %10.1f %10.0f %10.0f %10.0f %10.0f\n",
                    "routed", routed.wallMs, routed.reqPerSec,
                    routed.p50Us, routed.p95Us, routed.maxUs);
        std::printf("warm 8-cell sweep: direct %.1fms, routed %.1fms\n",
                    directSweepMs, routedSweepMs);
        std::printf("router overhead: %.2fx p50 per request\n",
                    overhead);

        if (!opts.jsonPath.empty()) {
            report::Json doc = report::Json::object();
            doc["schema"] = "msc.bench_daemon";
            doc["schema_version"] = uint64_t(1);
            report::Json cfg = report::Json::object();
            cfg["requests"] = uint64_t(opts.requests);
            cfg["shards"] = uint64_t(opts.shards);
            cfg["jobs"] = uint64_t(opts.jobs);
            doc["config"] = std::move(cfg);
            doc["direct"] = passJson(direct);
            doc["routed"] = passJson(routed);
            report::Json sweep = report::Json::object();
            sweep["direct_wall_ms"] = directSweepMs;
            sweep["routed_wall_ms"] = routedSweepMs;
            doc["warm_sweep"] = std::move(sweep);
            doc["router_p50_overhead"] = overhead;
            report::writeFile(opts.jsonPath, doc.dump(2) + "\n");
            std::fprintf(stderr, "[bench] wrote %s\n",
                         opts.jsonPath.c_str());
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_daemon: %s\n", e.what());
        return 1;
    }
}
