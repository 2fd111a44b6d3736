/**
 * @file
 * End-to-end smoke test for the real mscd binary (the daemon_smoke
 * ctest target; docs/DAEMON.md).
 *
 * Usage: daemon_smoke <path-to-mscd> <path-to-msctool>
 *
 * Proves, against the actual executables:
 *
 *  1. byte-identity: a sweep served by `mscd --stdio`, reassembled
 *     from its streamed cell frames through report::sweepDocFromRuns,
 *     equals the `msctool sweep --json` document for the same grid
 *     byte for byte;
 *  2. warm replay: repeating the request on the same connection
 *     returns byte-identical cells and computes nothing new (the
 *     summary's cumulative cache counters do not move);
 *  3. containment: a garbage frame yields one error frame and the
 *     next request on the same connection still runs;
 *  4. exit-code agreement: a mixed compress+fuelbomb sweep under a
 *     fuel budget exits msctool with 3 (partial) and produces an mscd
 *     summary with the same exit_code/status — and the same bytes;
 *  5. lifecycle: `mscd --unix` serves a connection over a real
 *     socket, shuts down cleanly on SIGTERM, and unlinks its socket;
 *  6. telemetry: `msctool stats --stdio` queried mid-connection
 *     against the live daemon returns a `msc.metrics` document whose
 *     request counters match exactly the work this test performed,
 *     and `msctool stats --unix` round-trips over the socket;
 *  7. versioning: `mscd --version` and `msctool version` exit 0 and
 *     advertise the msc.metrics schema;
 *  8. sharding (the PR acceptance path, docs/DAEMON.md#sharding): a
 *     `mscd --router` fronting four shard daemons serves the
 *     Figure-5 sweep byte-identically to a single `mscd --stdio`
 *     daemon — the same `msctool sweep --connect` invocation against
 *     either produces the same msc.sweep document, and the routed one
 *     reports its shard provenance;
 *  9. degradation: SIGKILLing a shard mid-sweep yields a partial
 *     sweep — the surviving shards' rows still stream, the dead
 *     shard's cells become io error rows, and msctool exits 3;
 * 10. TCP: mscd binds an ephemeral port (retrying past collisions)
 *     and `msctool --connect tcp:PORT` round-trips stats and a run.
 *
 * All scratch state lives in one mkdtemp directory removed on every
 * exit path (success, CHECK failure, or exception); child daemons
 * are killed on failure so a red run never leaks a process or a
 * socket file.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "report/record.h"
#include "serve/frame.h"
#include "workloads/workload.h"

using namespace msc;

#define CHECK(cond)                                                   \
    do {                                                              \
        if (!(cond))                                                  \
            throw std::runtime_error(std::string("CHECK failed at ")  \
                                     + __FILE__ + ":" +               \
                                     std::to_string(__LINE__) +       \
                                     ": " #cond);                     \
    } while (0)

namespace {

namespace fs = std::filesystem;

/** Scratch directory + child registry, torn down on every exit. */
struct Scratch
{
    std::string dir;
    std::vector<pid_t> children;

    Scratch()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "msc-daemon-smoke-XXXXXX")
                .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!mkdtemp(buf.data()))
            throw std::runtime_error("mkdtemp failed");
        dir = buf.data();
    }

    ~Scratch()
    {
        for (pid_t pid : children)
            if (pid > 0 && ::kill(pid, 0) == 0) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, nullptr, 0);
            }
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    std::string path(const char *name) const
    {
        return (fs::path(dir) / name).string();
    }
};

/** A spawned mscd with pipes on its stdio (for --stdio mode) or just
 *  argv (listener modes). */
struct Child
{
    pid_t pid = -1;
    int in = -1;   ///< Write end feeding the child's stdin.
    int out = -1;  ///< Read end of the child's stdout.
};

Child
spawn(Scratch &scratch, const std::vector<std::string> &argv,
      bool with_pipes)
{
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    if (with_pipes)
        CHECK(::pipe(to_child) == 0 && ::pipe(from_child) == 0);

    pid_t pid = ::fork();
    CHECK(pid >= 0);
    if (pid == 0) {
        if (with_pipes) {
            ::dup2(to_child[0], 0);
            ::dup2(from_child[1], 1);
            ::close(to_child[0]);
            ::close(to_child[1]);
            ::close(from_child[0]);
            ::close(from_child[1]);
        }
        std::vector<char *> args;
        for (const auto &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        ::execv(args[0], args.data());
        std::perror("execv");
        ::_exit(127);
    }

    Child c;
    c.pid = pid;
    if (with_pipes) {
        ::close(to_child[0]);
        ::close(from_child[1]);
        c.in = to_child[1];
        c.out = from_child[0];
    }
    scratch.children.push_back(pid);
    return c;
}

int
waitExit(pid_t pid)
{
    int status = 0;
    CHECK(::waitpid(pid, &status, 0) == pid);
    CHECK(WIFEXITED(status));
    return WEXITSTATUS(status);
}

/** Runs a child to completion (no pipes) and returns its exit code. */
int
run(Scratch &scratch, const std::vector<std::string> &argv)
{
    Child c = spawn(scratch, argv, false);
    return waitExit(c.pid);
}

/** Runs a child to completion, returning its captured stdout (stdin
 *  is closed immediately). */
std::string
runCapture(Scratch &scratch, const std::vector<std::string> &argv,
           int *exit_code)
{
    Child c = spawn(scratch, argv, true);
    ::close(c.in);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(c.out, buf, sizeof buf)) > 0)
        out.append(buf, size_t(n));
    ::close(c.out);
    *exit_code = waitExit(c.pid);
    return out;
}

/** Runs msctool with the live --stdio daemon @p d as its wire: the
 *  tool's fd0/fd1 ARE the daemon connection, so with `--connect
 *  stdio` it renders on stderr, captured into @p err. The parent
 *  touches neither pipe meanwhile, so the daemon connection stays
 *  frame-aligned for whatever the test sends next. Returns the
 *  tool's exit code. */
int
runToolOverStdio(Scratch &scratch, const std::vector<std::string> &argv,
                 Child &d, std::string *err)
{
    int errp[2];
    CHECK(::pipe(errp) == 0);
    pid_t pid = ::fork();
    CHECK(pid >= 0);
    if (pid == 0) {
        ::dup2(d.out, 0);  // daemon stdout -> tool stdin
        ::dup2(d.in, 1);   // tool stdout -> daemon stdin
        ::dup2(errp[1], 2);
        ::close(errp[0]);
        ::close(errp[1]);
        std::vector<char *> args;
        for (const auto &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    ::close(errp[1]);
    scratch.children.push_back(pid);
    err->clear();
    char buf[4096];
    ssize_t n;
    while ((n = ::read(errp[0], buf, sizeof buf)) > 0)
        err->append(buf, size_t(n));
    ::close(errp[0]);
    return waitExit(pid);
}

std::string
statsOverStdio(Scratch &scratch, const std::string &msctool, Child &d)
{
    std::string out;
    CHECK(runToolOverStdio(scratch,
                           {msctool, "stats", "--stdio", "--json"}, d,
                           &out) == 0);
    return out;
}

/** Waits for @p path to appear on disk (a daemon finishing its
 *  bind — both Unix sockets and regular files). */
void
waitForFile(const std::string &path)
{
    for (int i = 0; i < 200; ++i) {
        if (fs::exists(path))
            return;
        ::usleep(25'000);
    }
    throw std::runtime_error("timed out waiting for " + path);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    CHECK(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Reads response frames off @p t until the summary (or result/error
 *  terminator) for @p id arrives. */
std::vector<report::Json>
collect(serve::Transport &t, const std::string &id)
{
    std::vector<report::Json> frames;
    while (true) {
        serve::FrameResult fr = serve::readFrame(t);
        CHECK(fr.status == serve::FrameStatus::Ok);
        frames.push_back(report::Json::parse(fr.payload));
        const report::Json &f = frames.back();
        std::string type = f.get("type").asString();
        bool mine = f.get("id").asString() == id;
        if (mine && (type == "summary" || type == "result" ||
                     type == "error"))
            return frames;
    }
}

/** Reassembles the streamed cell frames of @p frames (request @p id)
 *  into the msc.sweep document, exactly as a client would. */
std::string
reassemble(const std::vector<report::Json> &frames,
           const std::string &id)
{
    size_t total = 0;
    for (const auto &f : frames)
        if (f.get("id").asString() == id &&
            f.get("type").asString() == "cell")
            total = f.get("total").asUInt();
    CHECK(total > 0);
    std::vector<report::Json> runs(total);
    for (const auto &f : frames)
        if (f.get("id").asString() == id &&
            f.get("type").asString() == "cell")
            runs.at(f.get("index").asUInt()) = f.get("run");
    return report::sweepDocFromRuns(std::move(runs)).dump(2);
}

const report::Json &
frameOf(const std::vector<report::Json> &frames, const std::string &id,
        const std::string &type)
{
    for (const auto &f : frames)
        if (f.get("id").asString() == id &&
            f.get("type").asString() == type)
            return f;
    throw std::runtime_error("missing frame " + id + "/" + type);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: daemon_smoke <mscd> <msctool>\n");
        return 2;
    }
    const std::string mscd = argv[1];
    const std::string msctool = argv[2];

    try {
        Scratch scratch;

        // ---- 0. Version flags: both binaries advertise the
        //         protocol and every schema, including msc.metrics.
        int rc = -1;
        std::string v = runCapture(scratch, {mscd, "--version"}, &rc);
        CHECK(rc == 0);
        CHECK(v.find("protocol") != std::string::npos);
        CHECK(v.find("msc.sweep") != std::string::npos);
        CHECK(v.find("msc.metrics") != std::string::npos);
        v = runCapture(scratch, {msctool, "version"}, &rc);
        CHECK(rc == 0);
        CHECK(v.find("msc.metrics") != std::string::npos);

        // ---- 1. Byte-identity against msctool sweep --json.
        std::string ref = scratch.path("ref.json");
        CHECK(run(scratch,
                  {msctool, "sweep", "compress", "li", "--small",
                   "--strategy", "bb,cf", "--pus", "2", "--insts",
                   "20000", "--json", ref}) == 0);

        Child d = spawn(scratch, {mscd, "--stdio", "--jobs", "2"},
                        true);
        serve::FdTransport t(d.out, d.in);
        const std::string sweep_req =
            "\"kind\":\"sweep\",\"workloads\":[\"compress\",\"li\"],"
            "\"strategies\":[\"bb\",\"cf\"],\"pus\":[2],"
            "\"scale\":\"small\",\"insts\":20000}";
        serve::writeFrame(t, "{\"id\":\"s1\"," + sweep_req);
        std::vector<report::Json> first = collect(t, "s1");
        CHECK(reassemble(first, "s1") == slurp(ref));
        const report::Json &sum1 = frameOf(first, "s1", "summary");
        CHECK(sum1.get("status").asString() == "ok");
        CHECK(sum1.get("exit_code").asInt() == 0);

        // ---- 2. Warm replay: identical bytes, no new computes.
        serve::writeFrame(t, "{\"id\":\"s2\"," + sweep_req);
        std::vector<report::Json> second = collect(t, "s2");
        CHECK(reassemble(second, "s2") == slurp(ref));
        const report::Json &sum2 = frameOf(second, "s2", "summary");
        CHECK(sum2.get("cache").get("computed").asUInt() ==
              sum1.get("cache").get("computed").asUInt());

        // ---- 3. Garbage frame, then a valid request, same stream.
        serve::writeFrame(t, "this is not json");
        serve::FrameResult err = serve::readFrame(t);
        CHECK(err.status == serve::FrameStatus::Ok);
        report::Json errf = report::Json::parse(err.payload);
        CHECK(errf.get("type").asString() == "error");
        CHECK(errf.get("error").get("kind").asString() ==
              "invalid-input");

        serve::writeFrame(t, "{\"id\":\"s3\",\"kind\":\"run\","
                             "\"workload\":\"compress\","
                             "\"scale\":\"small\",\"insts\":20000,"
                             "\"pus\":2,\"strategy\":\"bb\"}");
        std::vector<report::Json> third = collect(t, "s3");
        CHECK(frameOf(third, "s3", "cell")
                  .get("run")
                  .get("status")
                  .asString() == "ok");

        // ---- 4. Budget-tripped sweep: daemon summary and msctool
        //         exit code come from the same mapping, and the
        //         partial documents match byte for byte too.
        std::string ref2 = scratch.path("ref2.json");
        CHECK(run(scratch,
                  {msctool, "sweep", "compress", "fuelbomb",
                   "--small", "--strategy", "bb", "--pus", "2",
                   "--insts", "20000", "--max-fuel", "200000",
                   "--json", ref2}) == 3);

        serve::writeFrame(
            t, "{\"id\":\"s4\",\"kind\":\"sweep\","
               "\"workloads\":[\"compress\",\"fuelbomb\"],"
               "\"strategies\":[\"bb\"],\"pus\":[2],"
               "\"scale\":\"small\",\"insts\":20000,"
               "\"budget\":{\"max_fuel\":200000}}");
        std::vector<report::Json> fourth = collect(t, "s4");
        const report::Json &sum4 = frameOf(fourth, "s4", "summary");
        CHECK(sum4.get("exit_code").asInt() == 3);
        CHECK(sum4.get("status").asString() == "partial");
        CHECK(sum4.get("partial").asBool());
        CHECK(reassemble(fourth, "s4") == slurp(ref2));

        // ---- 6a. Live telemetry mid-connection: msctool stats
        //          --stdio against this very daemon. The counters
        //          must match exactly the work performed above.
        report::Json m = report::Json::parse(
            statsOverStdio(scratch, msctool, d));
        CHECK(m.get("schema").asString() == "msc.metrics");
        const report::Json &ctr = m.get("counters");
        CHECK(ctr.get("mscd.requests.sweep").asUInt() == 3);  // s1 s2 s4
        CHECK(ctr.get("mscd.requests.run").asUInt() == 1);    // s3
        CHECK(ctr.get("mscd.requests.stats").asUInt() == 1);  // itself
        CHECK(ctr.get("mscd.requests.malformed").asUInt() == 1);
        // s1: 4 cells, s2: 4, s3: 1, s4: 2 — all submitted, none
        // concurrent, so no in-flight coalescing.
        CHECK(ctr.get("mscd.dispatch.cells_submitted").asUInt() == 11);
        CHECK(ctr.get("mscd.dispatch.dedup_hits").asUInt() == 0);
        CHECK(ctr.get("mscd.connections.accepted").asUInt() == 1);
        // The callback gauge reads the same pool counters the s4
        // summary reported — the two surfaces cannot disagree.
        CHECK(m.get("gauges").get("mscd.cache.computed").asUInt() ==
              sum4.get("cache").get("computed").asUInt());

        // End-of-stream: the --stdio daemon exits 0.
        ::close(d.in);
        ::close(d.out);
        CHECK(waitExit(d.pid) == 0);

        // ---- 5. Unix-socket round trip + clean SIGTERM shutdown.
        std::string sock = scratch.path("mscd.sock");
        Child u = spawn(scratch, {mscd, "--unix", sock}, false);

        int fd = -1;
        for (int attempt = 0; attempt < 100; ++attempt) {
            fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            CHECK(fd >= 0);
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::memcpy(addr.sun_path, sock.c_str(),
                        sock.size() + 1);
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr) == 0)
                break;
            ::close(fd);
            fd = -1;
            ::usleep(50'000);  // daemon still binding
        }
        CHECK(fd >= 0);

        serve::FdTransport s(fd, fd);
        serve::writeFrame(s, "{\"id\":\"u1\",\"kind\":\"run\","
                             "\"workload\":\"compress\","
                             "\"scale\":\"small\",\"insts\":20000,"
                             "\"pus\":2,\"strategy\":\"bb\"}");
        std::vector<report::Json> over_socket = collect(s, "u1");
        CHECK(frameOf(over_socket, "u1", "cell")
                  .get("run")
                  .get("status")
                  .asString() == "ok");
        ::close(fd);

        // ---- 6b. msctool stats over the Unix socket: a second
        //          connection querying the same daemon's registry.
        std::string stats_out = runCapture(
            scratch, {msctool, "stats", "--unix", sock, "--json"},
            &rc);
        CHECK(rc == 0);
        report::Json um = report::Json::parse(stats_out);
        CHECK(um.get("counters").get("mscd.requests.run").asUInt() ==
              1);
        CHECK(um.get("counters").get("mscd.requests.stats").asUInt() ==
              1);
        CHECK(um.get("counters")
                  .get("mscd.connections.accepted")
                  .asUInt() == 2);

        CHECK(::kill(u.pid, SIGTERM) == 0);
        CHECK(waitExit(u.pid) == 0);
        CHECK(!fs::exists(sock));

        // ---- 8. Shard mode: a 4-shard router serves the Figure-5
        //         sweep byte-identically to one mscd --stdio daemon.
        //         Both documents come out of the very same `msctool
        //         sweep --connect` code path — only the transport
        //         and the daemon topology differ.
        std::vector<Child> shard_procs;
        std::vector<std::string> router_argv = {mscd, "--router"};
        for (int i = 0; i < 4; ++i) {
            std::string ssock = scratch.path(
                ("shard" + std::to_string(i) + ".sock").c_str());
            shard_procs.push_back(spawn(
                scratch, {mscd, "--unix", ssock, "--jobs", "1"},
                false));
            router_argv.push_back("--shard");
            router_argv.push_back("unix:" + ssock);
        }
        std::string rsock = scratch.path("router.sock");
        router_argv.push_back("--unix");
        router_argv.push_back(rsock);
        Child router = spawn(scratch, router_argv, false);
        for (int i = 0; i < 4; ++i)
            waitForFile(scratch.path(
                ("shard" + std::to_string(i) + ".sock").c_str()));
        waitForFile(rsock);

        std::string routed = scratch.path("routed.json");
        std::string f5_out = runCapture(
            scratch,
            {msctool, "sweep", "--small", "--strategy", "bb,cf",
             "--pus", "4", "--insts", "20000", "--connect",
             "unix:" + rsock, "--json", routed},
            &rc);
        CHECK(rc == 0);

        Child sref = spawn(scratch, {mscd, "--stdio"}, true);
        std::string ref5 = scratch.path("figure5.json");
        std::string render;
        CHECK(runToolOverStdio(
                  scratch,
                  {msctool, "sweep", "--small", "--strategy", "bb,cf",
                   "--pus", "4", "--insts", "20000", "--connect",
                   "stdio", "--json", ref5},
                  sref, &render) == 0);
        CHECK(render.find("routed") == std::string::npos);
        ::close(sref.in);
        ::close(sref.out);
        CHECK(waitExit(sref.pid) == 0);

        CHECK(slurp(routed) == slurp(ref5));

        // The router advertises its topology over the stats verb.
        std::string rstats = runCapture(
            scratch,
            {msctool, "stats", "--connect", "unix:" + rsock, "--json"},
            &rc);
        CHECK(rc == 0);
        report::Json rm = report::Json::parse(rstats);
        CHECK(rm.get("counters")
                  .get("router.requests.sweep")
                  .asUInt() == 1);
        CHECK(rm.get("counters")
                  .get("router.cells.failed")
                  .asUInt() == 0);

        // ---- 9. Kill a shard mid-sweep: the dead shard's cells
        //         become io error rows, msctool exits with the partial
        //         code. Shard 2 is stopped first, so its cells cannot
        //         have been answered before the kill: the router
        //         forwards the whole grid (its stats say so), then the
        //         kill lands with shard 2's cells still pending.
        auto routerCounter = [&](const char *name) {
            std::string out = runCapture(
                scratch,
                {msctool, "stats", "--connect", "unix:" + rsock,
                 "--json"},
                &rc);
            CHECK(rc == 0);
            return report::Json::parse(out)
                .get("counters")
                .get(name)
                .asUInt();
        };
        uint64_t grid = workloads::allWorkloads().size() * 2;
        uint64_t forwarded0 = routerCounter("router.cells.forwarded");
        uint64_t shard2_0 = routerCounter("router.shard.2.cells");
        CHECK(::kill(shard_procs[2].pid, SIGSTOP) == 0);
        Child deg = spawn(scratch,
                          {msctool, "sweep", "--small", "--strategy",
                           "bb,cf", "--pus", "2", "--insts", "50000",
                           "--connect", "unix:" + rsock},
                          true);
        ::close(deg.in);
        for (int i = 0;
             routerCounter("router.cells.forwarded") < forwarded0 + grid;
             ++i) {
            CHECK(i < 3000);
            ::usleep(10'000);
        }
        CHECK(routerCounter("router.shard.2.cells") > shard2_0);
        CHECK(::kill(shard_procs[2].pid, SIGKILL) == 0);
        ::waitpid(shard_procs[2].pid, nullptr, 0);
        std::string table;
        {
            char buf[4096];
            ssize_t n;
            while ((n = ::read(deg.out, buf, sizeof buf)) > 0)
                table.append(buf, size_t(n));
        }
        ::close(deg.out);
        CHECK(waitExit(deg.pid) == 3);
        CHECK(table.find("ERROR") != std::string::npos);
        CHECK(table.find(" io: ") != std::string::npos);

        // Router outlives the dead shard and shuts down cleanly; so
        // do the surviving shards.
        CHECK(::kill(router.pid, SIGTERM) == 0);
        CHECK(waitExit(router.pid) == 0);
        CHECK(!fs::exists(rsock));
        for (int i = 0; i < 4; ++i) {
            if (i == 2)
                continue;
            CHECK(::kill(shard_procs[i].pid, SIGTERM) == 0);
            CHECK(waitExit(shard_procs[i].pid) == 0);
        }

        // ---- 10. TCP: retry-bind an ephemeral port (SO_REUSEADDR +
        //          a fresh candidate per collision), then round-trip
        //          stats and a run over --connect tcp:PORT.
        bool tcp_ok = false;
        for (int attempt = 0; attempt < 8 && !tcp_ok; ++attempt) {
            int port =
                33000 + int((::getpid() * 7 + attempt * 101) % 20000);
            std::string pspec = "tcp:" + std::to_string(port);
            Child td = spawn(
                scratch, {mscd, "--tcp", std::to_string(port)},
                false);
            for (int i = 0; i < 40; ++i) {
                int src = -1;
                std::string so = runCapture(scratch,
                                            {msctool, "stats",
                                             "--connect", pspec,
                                             "--json"},
                                            &src);
                if (src == 0) {
                    report::Json tm = report::Json::parse(so);
                    CHECK(tm.get("counters")
                              .get("mscd.requests.stats")
                              .asUInt() >= 1);
                    tcp_ok = true;
                    break;
                }
                if (::waitpid(td.pid, nullptr, WNOHANG) == td.pid)
                    break;  // port taken: next candidate
                ::usleep(50'000);
            }
            if (!tcp_ok)
                continue;
            std::string row = runCapture(
                scratch,
                {msctool, "run", "compress", "--insts", "20000",
                 "--pus", "2", "--strategy", "bb", "--connect",
                 pspec},
                &rc);
            CHECK(rc == 0);
            CHECK(row.find("compress") != std::string::npos);
            CHECK(::kill(td.pid, SIGTERM) == 0);
            CHECK(waitExit(td.pid) == 0);
        }
        CHECK(tcp_ok);

        std::printf("daemon_smoke: all checks passed\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "daemon_smoke: %s\n", e.what());
        return 1;
    }
}
