/**
 * @file
 * mscd — the pipeline daemon (docs/DAEMON.md).
 *
 *   mscd --stdio [options]
 *       Serve exactly one connection over stdin/stdout, then exit.
 *       This is the mode the conformance tests and shell pipelines
 *       use: `mscd --stdio < requests.bin > responses.bin`.
 *   mscd --unix PATH [options]
 *       Listen on a Unix-domain socket (stale socket files are
 *       replaced; the socket is unlinked on clean shutdown).
 *   mscd --tcp PORT [options]
 *       Listen on 127.0.0.1:PORT.
 *   mscd --router --shard EP [--shard EP ...] (--stdio|--unix|--tcp)
 *       Shard mode (docs/DAEMON.md#sharding): serve the same
 *       protocol, but execute nothing locally — fan sweep cells out
 *       to the shard daemons at the given endpoints by content-key
 *       hash, reassemble, and degrade to `partial` summaries when a
 *       shard is lost. Endpoints use the src/client grammar:
 *       unix:/path, tcp:host:port, tcp:port.
 *
 * Options:
 *   --jobs N         Worker threads executing cells (default:
 *                    hardware concurrency; single-daemon mode only).
 *   --log-json       Emit one structured JSON log line per request
 *                    lifecycle event on stderr
 *                    (docs/OBSERVABILITY.md).
 *   --cache-dir DIR  Persist stage artifacts on disk, shared by every
 *                    request (same format as `msctool sweep
 *                    --cache-dir`; single-daemon mode only — shard
 *                    caches belong to the shards).
 *   --max-frame N    Inbound frame-size cap in bytes (default 16 MiB).
 *   --max-inflight N Per-connection backpressure bound: pooled
 *                    requests past N are refused with a structured
 *                    `busy` error frame (default 0 = unlimited).
 *   --timeout-ms N / --max-fuel N / --max-cycles N
 *                    Default per-cell ExecBudget; a request's
 *                    `budget` object overrides per field.
 *   --version        Print the protocol version and the schema
 *                    versions of every document the daemon can emit,
 *                    then exit 0.
 *
 * Numeric options parse through client::parseUInt (--jobs at most
 * client::MAX_JOBS); a malformed or out-of-range value exits 1.
 *
 * Exit code 0 on clean shutdown (end-of-stream in --stdio mode,
 * SIGINT/SIGTERM in listener modes), 1 on setup failure or bad usage.
 *
 * Every response frame is a structured JSON object; nothing a client
 * sends can crash the daemon (src/serve/, tests/test_mscd.cc).
 */

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "client/cli.h"
#include "client/endpoint.h"
#include "obs/taskprof.h"
#include "report/record.h"
#include "serve/router.h"
#include "serve/server.h"

using namespace msc;

namespace {

serve::Frontend *g_daemon = nullptr;

extern "C" void
onSignal(int)
{
    // requestStop is async-signal-safe: atomics + close().
    if (g_daemon)
        g_daemon->requestStop();
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mscd --stdio | --unix PATH | --tcp PORT\n"
        "            [--jobs N] [--cache-dir DIR] [--max-frame N]\n"
        "            [--max-inflight N]\n"
        "            [--timeout-ms N] [--max-fuel N] [--max-cycles N]\n"
        "            [--log-json]\n"
        "       mscd --router --shard ENDPOINT [--shard ENDPOINT ...]\n"
        "            (--stdio | --unix PATH | --tcp PORT) [options]\n"
        "       mscd --version\n"
        "\n"
        "Serve msc pipeline requests over a length-prefixed JSON\n"
        "protocol (docs/DAEMON.md). --router fans cells out to shard\n"
        "daemons (unix:/path | tcp:host:port | tcp:port endpoints).\n");
    return 1;
}

int
printVersion(const char *prog)
{
    std::printf("%s protocol %d\n"
                "  %s schema v%d\n"
                "  %s schema v%d\n"
                "  %s schema v%d\n",
                prog, serve::PROTOCOL_VERSION, report::SCHEMA_NAME,
                report::SCHEMA_VERSION, obs::TASKPROF_SCHEMA_NAME,
                obs::TASKPROF_SCHEMA_VERSION, obs::METRICS_SCHEMA_NAME,
                obs::METRICS_SCHEMA_VERSION);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
try {
    enum class Mode { None, Stdio, Unix, Tcp } mode = Mode::None;
    std::string unix_path;
    uint16_t tcp_port = 0;
    bool router = false;
    std::vector<client::Endpoint> shards;

    serve::ServerConfig cfg;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto arg = [&](const char *name) -> const char * {
            if (a != name)
                return nullptr;
            if (i + 1 >= argc)
                throw std::runtime_error(a + " needs a value");
            return argv[++i];
        };
        auto number = [&](const char *v, uint64_t max) {
            return client::parseUInt(a.c_str(), v, max);
        };
        if (a == "--version") {
            return printVersion("mscd");
        } else if (a == "--stdio") {
            mode = Mode::Stdio;
        } else if (a == "--router") {
            router = true;
        } else if (a == "--log-json") {
            cfg.logJson = true;
        } else if (const char *v = arg("--unix")) {
            mode = Mode::Unix;
            unix_path = v;
        } else if (const char *v1 = arg("--tcp")) {
            mode = Mode::Tcp;
            tcp_port = uint16_t(number(v1, 65535));
            if (tcp_port == 0) {
                std::fprintf(stderr, "mscd: bad port %s\n", v1);
                return 1;
            }
        } else if (const char *vs = arg("--shard")) {
            client::Endpoint ep = client::parseEndpoint(vs);
            if (ep.kind == client::Endpoint::Kind::Stdio) {
                std::fprintf(stderr,
                             "mscd: --shard cannot be stdio (a shard "
                             "needs its own listener)\n");
                return 1;
            }
            shards.push_back(std::move(ep));
        } else if (const char *v2 = arg("--jobs")) {
            cfg.dispatch.jobs = unsigned(number(v2, client::MAX_JOBS));
        } else if (const char *v3 = arg("--cache-dir")) {
            cfg.dispatch.session.cacheDir = v3;
        } else if (const char *v4 = arg("--max-frame")) {
            cfg.maxFrame = uint32_t(number(v4, UINT32_MAX));
        } else if (const char *v8 = arg("--max-inflight")) {
            cfg.maxInflight = unsigned(number(v8, UINT32_MAX));
        } else if (const char *v5 = arg("--timeout-ms")) {
            cfg.defaults.budget.wallMs = uint32_t(number(v5, UINT32_MAX));
        } else if (const char *v6 = arg("--max-fuel")) {
            cfg.defaults.budget.maxFuel = number(v6, UINT64_MAX);
        } else if (const char *v7 = arg("--max-cycles")) {
            cfg.defaults.budget.maxSimCycles = number(v7, UINT64_MAX);
        } else {
            std::fprintf(stderr, "mscd: unknown option %s\n",
                         a.c_str());
            return usage();
        }
    }
    if (mode == Mode::None)
        return usage();
    if (router && shards.empty()) {
        std::fprintf(stderr,
                     "mscd: --router needs at least one --shard\n");
        return 1;
    }
    if (!router && !shards.empty()) {
        std::fprintf(stderr, "mscd: --shard requires --router\n");
        return 1;
    }

    // A client that disconnects mid-stream must not kill the daemon:
    // writes then fail with EPIPE (a structured Io StageError that
    // tears down only that connection), not SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    std::unique_ptr<serve::Frontend> daemon;
    if (router) {
        serve::RouterConfig rcfg;
        static_cast<serve::FrontendConfig &>(rcfg) = cfg;
        rcfg.shards = std::move(shards);
        daemon = std::make_unique<serve::Router>(std::move(rcfg));
    } else {
        daemon = std::make_unique<serve::Server>(std::move(cfg));
    }
    g_daemon = daemon.get();
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    switch (mode) {
      case Mode::Stdio: {
        serve::FdTransport t(0, 1);
        daemon->serveConnection(t);
        return 0;
      }
      case Mode::Unix:
        return daemon->serveUnix(unix_path);
      case Mode::Tcp:
        return daemon->serveTcp(tcp_port);
      case Mode::None:
        break;
    }
    return usage();
} catch (const std::exception &e) {
    std::fprintf(stderr, "mscd: %s\n", e.what());
    return 1;
}
