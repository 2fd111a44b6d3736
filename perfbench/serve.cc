/**
 * @file
 * The two service workloads, both served in-process over Unix
 * sockets to a closed-loop load generator on one thread:
 *
 *  - serve_warm: one serve::Server (jobs 2) and warm `run` requests
 *    over the 54 small-scale specs. It runs the service path
 *    (framing -> parse -> dispatch -> cache lookup -> serialize ->
 *    write) and computes nothing, so simulator changes should not
 *    move it.
 *  - serve_routed: a serve::Router in front of two shard Servers
 *    (jobs 1 each) and 8-cell `sweep` requests, 1 in 16 of them with
 *    a fresh `insts` value whose cells are computed and inserted. It
 *    covers the router hop and the cold dispatch -> compute -> insert
 *    path beside the warm reads.
 */

#include <cstdio>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include <malloc.h>
#include <unistd.h>

#include "bench.h"
#include "client/client.h"
#include "fuzz/rng.h"
#include "obs/phase.h"
#include "pipeline/pool.h"
#include "report/record.h"
#include "report/sweep.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "workloads/workload.h"

using namespace msc;

namespace perfbench {

namespace {

/** Trace budget of every warm serve key: small enough that the 54
 *  keys compute in well under a second of set-up. */
constexpr uint64_t WARM_INSTS = 20'000;

/** Cold serve_routed sweeps draw distinct `insts` values from
 *  [COLD_BASE, COLD_BASE + COLD_SPAN). The values stay small so the
 *  cold cells, which the shard caches keep for the whole run, keep
 *  the process's memory modest, and close together so every cold
 *  sweep costs about the same. The span covers the most cold sweeps
 *  a process can make (MAX_ROUTED_SWEEPS / COLD_EVERY). */
constexpr uint64_t COLD_BASE = 3'000;
constexpr uint64_t COLD_SPAN = 512;

/** The shards keep one unjoined thread per forwarded cell on the
 *  router's long-lived link connections (README.md, "Known
 *  defects"), and each finished thread keeps its stack mapped. All
 *  daemons share this process, so past ~32k forwarded cells thread
 *  creation fails on the kernel's 65530-mapping limit and the shard
 *  aborts the process. The timed loops stop after this many sweeps
 *  (24k cells) and say so on stderr. */
constexpr uint64_t MAX_ROUTED_SWEEPS = 3'000;

constexpr unsigned WARM_RECONNECT = 64;
constexpr unsigned ROUTED_RECONNECT = 32;
constexpr unsigned COLD_EVERY = 16;
static_assert(COLD_SPAN > MAX_ROUTED_SWEEPS / COLD_EVERY,
              "every cold sweep of a run needs its own insts value");

std::string
ref(const std::string &workload, const std::string &strategy,
    uint64_t insts)
{
    return "serve/" + workload + "/" + strategy + "/4pu/i" +
           std::to_string(insts);
}

client::Endpoint
unixEndpoint(const std::string &path)
{
    return client::parseEndpoint("unix:" + path);
}

void
waitConnectable(const client::Endpoint &ep)
{
    for (int i = 0;; ++i) {
        try {
            ::close(client::connectEndpoint(ep));
            return;
        } catch (const std::exception &) {
            if (i >= 500)
                throw;
            ::usleep(2'000);
        }
    }
}

/** A listener (serve::Server or serve::Router) on a Unix socket,
 *  served from its own thread until destruction. Every client
 *  connection must be closed first: the accept loop joins them. */
template <typename Listener, typename Config>
class Daemon
{
  public:
    Daemon(std::string path, Config cfg)
        : _path(std::move(path)),
          _listener(std::make_unique<Listener>(std::move(cfg)))
    {
        _th = std::thread([this] { _listener->serveUnix(_path); });
        try {
            waitConnectable(endpoint());
        } catch (...) {
            _listener->requestStop();
            _th.join();
            throw;
        }
    }

    ~Daemon()
    {
        _listener->requestStop();
        _th.join();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    client::Endpoint endpoint() const { return unixEndpoint(_path); }
    Listener &get() { return *_listener; }

  private:
    std::string _path;
    std::unique_ptr<Listener> _listener;
    std::thread _th;
};

using ServerDaemon = Daemon<serve::Server, serve::ServerConfig>;
using RouterDaemon = Daemon<serve::Router, serve::RouterConfig>;

std::unique_ptr<ServerDaemon>
startServer(const std::string &path, unsigned jobs)
{
    serve::ServerConfig cfg;
    cfg.dispatch.jobs = jobs;
    return std::make_unique<ServerDaemon>(path, std::move(cfg));
}

/** Sends @p payload and reads frames until its terminal frame;
 *  cell `run` objects are moved into @p runs by index. */
client::ResponseFrame
exchange(client::ClientConn &conn, const std::string &id,
         const std::string &payload, std::vector<report::Json> &runs)
{
    for (auto &r : runs)
        r = report::Json();
    conn.sendPayload(payload);
    for (;;) {
        client::ResponseFrame f = conn.next();
        if (f.id != id)
            continue;
        if (f.terminal())
            return f;
        if (f.index < runs.size())
            runs[f.index] = std::move(f.run);
    }
}

/** The `stats` verb's msc.metrics document. */
report::Json
statsDoc(const client::Endpoint &ep)
{
    client::ClientConn conn(ep);
    client::ResponseFrame f = conn.call(client::RequestBuilder::stats("m"));
    return f.raw.get("metrics");
}

double
member(const report::Json &doc, const char *section, const std::string &name)
{
    const report::Json *s = doc.find(section);
    const report::Json *v = s ? s->find(name) : nullptr;
    return v ? v->asDouble() : 0;
}

/** Median of a latency histogram over the interval between two
 *  msc.metrics snapshots, interpolated inside its bucket. */
double
histogramP50(const report::Json &before, const report::Json &after,
             const std::string &name)
{
    const report::Json *a = after.get("histograms").find(name);
    const report::Json *b = before.get("histograms").find(name);
    if (!a)
        return 0;
    const report::Json &ab = a->get("buckets");
    std::vector<double> le, cum;
    for (size_t i = 0; i < ab.size(); ++i) {
        const report::Json &bk = ab.at(i);
        double prior = b ? b->get("buckets").at(i).get("count").asDouble()
                         : 0;
        cum.push_back(bk.get("count").asDouble() - prior);
        le.push_back(bk.get("le").isNumber() ? bk.get("le").asDouble()
                                             : -1);
    }
    double total = cum.back();
    if (total <= 0)
        return 0;
    double lo = 0, below = 0;
    for (size_t i = 0; i < cum.size(); ++i) {
        if (cum[i] >= total / 2) {
            if (le[i] < 0)
                return lo;
            double in = cum[i] - below;
            return lo + (le[i] - lo) * (total / 2 - below) / in;
        }
        lo = le[i];
        below = cum[i];
    }
    return lo;
}

/** Delta of a stats member between two snapshots. */
double
delta(const report::Json &before, const report::Json &after,
      const char *section, const std::string &name)
{
    return member(after, section, name) - member(before, section, name);
}

/** One timed closed loop; a traced run records its spans. */
struct Loop
{
    explicit Loop(const Options &o) : win(o.seconds, 10) {}

    uint64_t ops = 0;
    std::set<uint64_t> failed;  ///< Ops that failed a check.
    double wallS = 0;
    Windows win;
    std::vector<double> warmLatUs;  ///< serve_routed: warm sweeps only.
};

/** The end-to-end metrics of a serve workload: rates and latencies are
 *  medians over the timed loop's windows; @p insts_per_s is simulated
 *  instructions computed per second. */
void
addEndToEnd(Result &res, double setup_s, const Loop &l, double insts_per_s,
            double rss_mb)
{
    res.add("setup_s", setup_s, "s");
    res.add("ops_per_s", l.win.opsPerS(), "1/s");
    res.add("p50_us", l.win.latencyUs(0.50), "us");
    res.add("p95_us", l.win.latencyUs(0.95), "us");
    res.add("cpu_us_per_op", l.win.cpuUsPerOp(), "us");
    res.add("sim_minsts_per_s", insts_per_s / 1e6, "Minst/s");
    res.add("peak_rss_mb", rss_mb, "MB");
    res.add("ok_rate", double(l.ops - res.failed) / double(l.ops), "ratio");
}

// ---------------------------------------------------------------- warm

struct WarmKey
{
    std::string workload;
    std::string strategy;
};

std::vector<WarmKey>
warmKeys()
{
    std::vector<WarmKey> keys;
    for (const std::string &w : analogs())
        for (const char *s : {"bb", "cf", "dd"})
            keys.push_back({w, s});
    return keys;
}

client::RequestBuilder
runRequest(const std::string &id, const WarmKey &k)
{
    client::RequestBuilder b = client::RequestBuilder::run(id, k.workload);
    b.strategy(k.strategy).pusCount(4).smallScale(true).insts(WARM_INSTS);
    return b;
}

struct WarmSetup
{
    std::unique_ptr<ServerDaemon> daemon;
    double seconds = 0;
    double simMinstsPerS = 0;
    bool ok = true;
    std::vector<std::string> cellFrames;  ///< Captured payloads.
    std::vector<std::string> summaryFrames;
};

/** Starts the daemon and computes every key once (the cold warm-up
 *  pass); every computed cell is checked against its reference. */
WarmSetup
setupWarm(const Options &o, const Refs &refs)
{
    WarmSetup s;
    Clock::time_point t0 = Clock::now();
    s.daemon = startServer(o.sockDir + "/warm.sock", 2);
    client::ClientConn conn(s.daemon->endpoint());
    double retired = 0;
    Clock::time_point w0 = Clock::now();
    for (const WarmKey &k : warmKeys()) {
        client::RequestBuilder req = runRequest(
            "setup" + std::to_string(s.cellFrames.size()), k);
        client::ResponseFrame cell;
        client::ResponseFrame f = conn.call(
            req, [&](const client::ResponseFrame &c) {
                if (c.type == client::ResponseFrame::Type::Cell)
                    cell = c;
            });
        bool ok = f.status == "ok" &&
                  refs.check(ref(k.workload, k.strategy, WARM_INSTS),
                             cell.run.dump());
        if (!ok) {
            std::fprintf(stderr, "serve_warm: warm-up cell %s/%s does "
                                 "not match its reference\n",
                         k.workload.c_str(), k.strategy.c_str());
            s.ok = false;
        } else {
            retired += cell.run.get("metrics").get("retired_insts")
                           .asDouble();
        }
        s.cellFrames.push_back(cell.raw.dump());
        s.summaryFrames.push_back(f.raw.dump());
    }
    s.simMinstsPerS = retired / secondsSince(w0) / 1e6;
    s.seconds = secondsSince(t0);
    return s;
}

/** The timed closed loop: seeded warm `run` requests, one at a time,
 *  reconnecting every WARM_RECONNECT requests. */
Loop
warmLoop(const Options &o, const client::Endpoint &ep, const Refs &refs,
         Ledger &l)
{
    const std::vector<WarmKey> keys = warmKeys();
    std::vector<std::string> refKeys;
    for (const WarmKey &k : keys)
        refKeys.push_back(ref(k.workload, k.strategy, WARM_INSTS));
    fuzz::Rng rng(o.seed);
    Loop r(o);
    std::unique_ptr<client::ClientConn> conn;
    std::vector<report::Json> runs(1);
    Clock::time_point t0 = Clock::now();
    do {
        if (r.ops % WARM_RECONNECT == 0) {
            conn.reset();
            conn = std::make_unique<client::ClientConn>(ep);
        }
        size_t k = rng.bounded(keys.size());
        std::string id = "w" + std::to_string(r.ops);
        int64_t a = nowNs();
        uint32_t op = l.begin("serve.op", 0, r.ops + 1);
        uint32_t enc = l.begin("client.encode", op, r.ops + 1);
        std::string payload = runRequest(id, keys[k]).payload();
        l.end(enc);
        client::ResponseFrame f = exchange(*conn, id, payload, runs);
        l.end(op);
        r.win.op(double(nowNs() - a) / 1e3);
        if (f.status != "ok" || !refs.check(refKeys[k], runs[0].dump())) {
            r.failed.insert(r.ops);
            std::fprintf(stderr, "serve_warm: request %s failed its "
                                 "check\n",
                         id.c_str());
        }
        ++r.ops;
    } while (secondsSince(t0) < o.seconds);
    conn.reset();
    r.wallS = secondsSince(t0);
    r.win.finish();
    return r;
}

/** The direct-call probes of the service path layers, each the median
 *  per request over 2000 calls. */
void
warmProbes(serve::Server &server, const WarmSetup &s, Ledger &l,
           std::map<std::string, double> &layer)
{
    const std::vector<WarmKey> keys = warmKeys();
    const unsigned reps = 2000;
    std::vector<std::string> payloads;
    std::vector<report::RunSpec> specs;
    for (const WarmKey &k : keys) {
        payloads.push_back(runRequest("p", k).payload());
        specs.push_back(
            serve::parseRequest(payloads.back(), {}).specs.at(0));
    }
    size_t i = 0;
    auto next = [&] { return i++ % keys.size(); };

    layer["serve.parse_us"] = probeUs(l, "serve.parse", reps, [&] {
        serve::parseRequest(payloads[next()], {});
    });
    layer["serve.frame_rw_us"] = probeUs(l, "serve.frame_rw", reps, [&] {
        size_t k = next();
        serve::StringTransport out("");
        serve::writeFrame(out, payloads[k]);
        serve::writeFrame(out, s.cellFrames[k]);
        serve::writeFrame(out, s.summaryFrames[k]);
        serve::StringTransport in(out.written());
        for (int f = 0; f < 3; ++f)
            serve::readFrame(in);
    });
    serve::Dispatcher &d = server.dispatcher();
    std::vector<std::vector<report::RunRecord>> records(
        keys.size(), std::vector<report::RunRecord>(1));
    layer["serve.dispatch_us"] = probeUs(l, "serve.dispatch", reps, [&] {
        size_t k = next();
        records[k][0] = d.submit(specs[k], nullptr).get();
    });
    layer["serve.frame_build_us"] =
        probeUs(l, "serve.frame_build", reps, [&] {
            size_t k = next();
            serve::cellFrame("p", 0, 1, report::runToJson(records[k][0]))
                .dump();
            serve::ServiceSnapshot snap = d.snapshot();
            serve::summaryFrame("p", records[k], snap.cache,
                                snap.dispatch.dedupHits)
                .dump();
        });
    layer["client.decode_us"] = probeUs(l, "client.decode", reps, [&] {
        size_t k = next();
        client::parseResponseFrame(s.cellFrames[k]);
        client::parseResponseFrame(s.summaryFrames[k]);
    });
    std::vector<std::shared_ptr<pipeline::Session>> sessions;
    for (const auto &spec : specs)
        sessions.push_back(d.pool().session(report::sessionKey(spec), [&] {
            return workloads::buildWorkload(spec.workload, spec.scale);
        }));
    std::vector<pipeline::StageResults> results(keys.size());
    layer["pipeline.lookup_us"] = probeUs(l, "pipeline.lookup", reps, [&] {
        size_t k = next();
        results[k] = sessions[k]->runAll(specs[k].opts);
    });
    layer["report.record_json_us"] =
        probeUs(l, "report.record_json", reps, [&] {
            size_t k = next();
            report::runToJson(report::recordFromResults(specs[k], results[k]))
                .dump();
        });
    layer["workloads.build_ms"] = probeUs(l, "workloads.build", 5, [&] {
        for (const std::string &n : analogs())
            workloads::buildWorkload(n, workloads::Scale::Small);
    }) / 1e3;
}

// -------------------------------------------------------------- routed

client::RequestBuilder
sweepRequest(const std::string &id, uint64_t insts)
{
    client::RequestBuilder b = client::RequestBuilder::sweep(id);
    b.workloads({"compress", "li", "go", "m88ksim"})
        .strategies({"bb", "cf"})
        .pus({4})
        .smallScale(true)
        .insts(insts);
    return b;
}

/** The sweep's cells in index order, as the daemon resolves them. */
std::vector<report::RunSpec>
sweepSpecs(uint64_t insts)
{
    return serve::parseRequest(sweepRequest("p", insts).payload(), {}).specs;
}

std::vector<std::string>
sweepRefKeys()
{
    std::vector<std::string> keys;
    for (const auto &spec : sweepSpecs(WARM_INSTS))
        keys.push_back(ref(spec.workload,
                           report::strategyId(spec.opts.sel.strategy),
                           WARM_INSTS));
    return keys;
}

struct Routed
{
    // Declaration order is teardown order in reverse: the router
    // (holding the shard links) goes before the shards.
    std::vector<std::unique_ptr<ServerDaemon>> shards;
    std::unique_ptr<RouterDaemon> router;

    ~Routed()
    {
        router.reset();
        shards.clear();
    }
};

struct RoutedSetup
{
    std::unique_ptr<Routed> topo;
    double seconds = 0;
    bool ok = true;
};

RoutedSetup
setupRouted(const Options &o, const Refs &refs)
{
    RoutedSetup s;
    Clock::time_point t0 = Clock::now();
    s.topo = std::make_unique<Routed>();
    serve::RouterConfig rcfg;
    for (int i = 0; i < 2; ++i) {
        s.topo->shards.push_back(startServer(
            o.sockDir + "/shard" + std::to_string(i) + ".sock", 1));
        rcfg.shards.push_back(s.topo->shards.back()->endpoint());
    }
    s.topo->router = std::make_unique<RouterDaemon>(
        o.sockDir + "/router.sock", std::move(rcfg));
    client::ClientConn conn(s.topo->router->endpoint());
    const std::vector<std::string> keys = sweepRefKeys();
    std::vector<report::Json> runs(keys.size());
    client::ResponseFrame f = exchange(
        conn, "setup", sweepRequest("setup", WARM_INSTS).payload(), runs);
    s.ok = f.status == "ok";
    for (size_t c = 0; c < keys.size(); ++c)
        s.ok = s.ok && refs.check(keys[c], runs[c].dump());
    if (!s.ok)
        std::fprintf(stderr, "serve_routed: warm-up sweep does not match "
                             "its references\n");
    s.seconds = secondsSince(t0);
    return s;
}

struct ColdCell
{
    uint64_t op;
    uint64_t insts;
    size_t index;
    uint64_t digest;
};

/** Distinct cold `insts` values in seeded order. */
std::vector<uint64_t>
coldInsts(uint64_t seed)
{
    std::vector<uint64_t> v(COLD_SPAN);
    std::iota(v.begin(), v.end(), COLD_BASE);
    fuzz::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.bounded(i)]);
    return v;
}

/** The timed closed loop of routed sweeps: one outstanding, a fresh
 *  `insts` value in a seeded slot of every COLD_EVERY sweeps, and a
 *  reconnect every ROUTED_RECONNECT sweeps. Every cold cell served is
 *  appended to @p cold. */
Loop
routedLoop(const Options &o, const client::Endpoint &ep, const Refs &refs,
           Ledger &l, std::vector<ColdCell> &cold)
{
    const std::vector<std::string> keys = sweepRefKeys();
    std::vector<uint64_t> coldPool = coldInsts(o.seed);
    fuzz::Rng rng(o.seed);
    Loop r(o);
    std::unique_ptr<client::ClientConn> conn;
    std::vector<report::Json> runs(keys.size());
    size_t slot = 0;
    Clock::time_point t0 = Clock::now();
    do {
        if (r.ops % ROUTED_RECONNECT == 0) {
            conn.reset();
            conn = std::make_unique<client::ClientConn>(ep);
        }
        if (r.ops % COLD_EVERY == 0)
            slot = rng.bounded(COLD_EVERY);
        bool isCold = r.ops % COLD_EVERY == slot;
        uint64_t insts = WARM_INSTS;
        if (isCold) {
            insts = coldPool.back();
            coldPool.pop_back();
        }
        std::string id = "s" + std::to_string(r.ops);
        int64_t a = nowNs();
        uint32_t op = l.begin(isCold ? "router.cold_op" : "router.op", 0,
                              r.ops + 1);
        uint32_t enc = l.begin("client.encode", op, r.ops + 1);
        std::string payload = sweepRequest(id, insts).payload();
        l.end(enc);
        client::ResponseFrame f = exchange(*conn, id, payload, runs);
        l.end(op);
        double us = double(nowNs() - a) / 1e3;
        if (!isCold)
            r.warmLatUs.push_back(us);
        bool ok = f.status == "ok";
        double retired = 0;
        for (size_t c = 0; c < keys.size() && ok; ++c) {
            if (!isCold) {
                ok = refs.check(keys[c], runs[c].dump());
            } else if (runs[c].isNull()) {
                ok = false;
            } else {
                cold.push_back(
                    {r.ops, insts, c, digest(runs[c].dump())});
                retired += runs[c].get("metrics")
                               .get("retired_insts")
                               .asDouble();
            }
        }
        r.win.op(us, retired);
        if (!ok) {
            r.failed.insert(r.ops);
            std::fprintf(stderr, "serve_routed: sweep %s failed its "
                                 "check\n",
                         id.c_str());
        }
        ++r.ops;
        if (r.ops == MAX_ROUTED_SWEEPS) {
            std::fprintf(stderr, "serve_routed: timed loop stopped "
                                 "early, at the sweep cap (README.md, "
                                 "\"Known defects\")\n");
            break;
        }
    } while (secondsSince(t0) < o.seconds);
    conn.reset();
    r.wallS = secondsSince(t0);
    r.win.finish();
    return r;
}

/**
 * Recomputes every cold cell in-process with report::runSpec (outside
 * every timed phase) and compares it byte for byte with what the
 * shards served. One Session per workload, warmed first, so only the
 * trace and simulate stages compute, as on the shards. Returns the
 * ops with a mismatching cell.
 */
std::set<uint64_t>
recomputeCold(const std::vector<ColdCell> &cold, pipeline::SessionPool &pool,
              obs::PhaseTimes *times,
              std::vector<report::RunRecord> *records)
{
    for (const auto &spec : sweepSpecs(WARM_INSTS))
        report::runSpec(spec, *pool.session(report::sessionKey(spec), [&] {
            return workloads::buildWorkload(spec.workload, spec.scale);
        }));
    std::set<uint64_t> bad;
    std::map<uint64_t, std::vector<report::RunSpec>> byInsts;
    for (const ColdCell &c : cold) {
        auto it = byInsts.find(c.insts);
        if (it == byInsts.end())
            it = byInsts.emplace(c.insts, sweepSpecs(c.insts)).first;
        report::RunSpec spec = it->second.at(c.index);
        spec.opts.phaseTimes = times;
        auto session = pool.session(report::sessionKey(spec), [&] {
            return workloads::buildWorkload(spec.workload, spec.scale);
        });
        report::RunRecord rec = report::runSpec(spec, *session);
        rec.spec.opts.phaseTimes = nullptr;
        if (digest(report::runToJson(rec).dump()) != c.digest) {
            std::fprintf(stderr, "serve_routed: cold cell %s/i%llu does "
                                 "not match its in-process recompute\n",
                         spec.id.c_str(), (unsigned long long)c.insts);
            bad.insert(c.op);
        }
        if (records)
            records->push_back(std::move(rec));
    }
    return bad;
}

/** The same warm sweep against one warmed direct daemon (median
 *  round trip), capturing its cell frames for the re-dump probe. */
double
directSweepRtt(const Options &o, unsigned reps,
               std::vector<std::string> &cell_frames)
{
    auto d = startServer(o.sockDir + "/direct.sock", 2);
    client::ClientConn conn(d->endpoint());
    conn.call(sweepRequest("warm", WARM_INSTS),
              [&](const client::ResponseFrame &f) {
                  if (f.type == client::ResponseFrame::Type::Cell)
                      cell_frames.push_back(f.raw.dump());
              });
    std::vector<report::Json> runs(cell_frames.size());
    std::vector<double> us;
    for (unsigned i = 0; i < reps; ++i) {
        std::string id = "d" + std::to_string(i);
        std::string payload = sweepRequest(id, WARM_INSTS).payload();
        int64_t a = nowNs();
        exchange(conn, id, payload, runs);
        us.push_back(double(nowNs() - a) / 1e3);
    }
    return median(us);
}

/** The router-hop probes after the traced loop: a cold cell through
 *  one shard's dispatcher, the direct-daemon comparison, keying,
 *  re-dump and client decode, and the hop's attribution. */
void
routedProbes(const Options &o, serve::Server &shard,
             const client::Endpoint &router, const Loop &loop, Ledger &l,
             std::map<std::string, double> &layer)
{
    // dispatch -> compute -> insert, with `insts` no sweep has used.
    std::vector<double> ms;
    for (const auto &spec : sweepSpecs(COLD_BASE + COLD_SPAN)) {
        int64_t a = nowNs();
        shard.dispatcher().submit(spec, nullptr).get();
        int64_t b = nowNs();
        l.record("shard.cold_cell", 0, 0, a, b);
        ms.push_back(double(b - a) / 1e6);
    }
    layer["shard.cold_cell_ms"] = median(ms);

    std::vector<std::string> cellFrames;
    double direct = directSweepRtt(o, 500, cellFrames);
    double rtt = median(loop.warmLatUs);
    layer["router.sweep_rtt_us"] = rtt;
    layer["router.direct_sweep_rtt_us"] = direct;
    layer["router.overhead_ratio"] = rtt / direct;
    layer["client.encode_us"] = median(l.durationsNs("client.encode")) / 1e3;

    pipeline::SessionPool pool;
    std::vector<report::RunSpec> specs = sweepSpecs(WARM_INSTS);
    std::vector<std::shared_ptr<pipeline::Session>> sessions;
    for (const auto &spec : specs)
        sessions.push_back(pool.session(report::sessionKey(spec), [&] {
            return workloads::buildWorkload(spec.workload, spec.scale);
        }));
    size_t i = 0;
    layer["router.key_us"] = probeUs(l, "router.key", 2000, [&] {
        size_t k = i++ % specs.size();
        sessions[k]->stageKey(pipeline::StageKind::Simulate, specs[k].opts);
    });
    layer["router.redump_us"] = probeUs(l, "router.redump", 2000, [&] {
        report::Json::parse(cellFrames[i++ % cellFrames.size()]).dump(0);
    });
    std::string summary;
    {
        client::ClientConn conn(router);
        summary = conn.call(sweepRequest("decode", WARM_INSTS)).raw.dump();
    }
    layer["client.decode_us"] = probeUs(l, "client.decode", 2000, [&] {
        for (const std::string &c : cellFrames)
            client::parseResponseFrame(c);
        client::parseResponseFrame(summary);
    });
    layer["workloads.build_ms"] = probeUs(l, "workloads.build", 5, [&] {
        for (const char *n : {"compress", "li", "go", "m88ksim"})
            workloads::buildWorkload(n, workloads::Scale::Small);
    }) / 1e3;
    // The hop's named parts on top of the direct path.
    double named = direct + double(specs.size()) * (layer["router.key_us"] +
                                                    layer["router.redump_us"]);
    layer["bench.attributed_frac"] = named / rtt;
}

} // anonymous namespace

Result
runServeWarm(const Options &o, Refs &refs)
{
    // Set-up (daemon start + the cold warm-up pass) is repeated and
    // its median reported; the last daemon serves the timed phase.
    std::vector<double> setup, simRate;
    WarmSetup s;
    bool setupOk = true;
    for (int i = 0; i < 3; ++i) {
        // Each daemon's threads allocate from fresh malloc arenas;
        // trimming keeps repeated set-ups out of peak_rss_mb.
        s.daemon.reset();
        malloc_trim(0);
        s = setupWarm(o, refs);
        setup.push_back(s.seconds);
        simRate.push_back(s.simMinstsPerS);
        setupOk = setupOk && s.ok;
    }
    const client::Endpoint ep = s.daemon->endpoint();
    serve::Server &server = s.daemon->get();

    Ledger l(o.trace);
    report::Json m0, m1;
    pipeline::CacheStats c0, c1;
    if (o.trace) {
        m0 = statsDoc(ep);
        c0 = server.dispatcher().pool().stats();
    }
    Loop loop = warmLoop(o, ep, refs, l);
    Result res;
    res.attempted = loop.ops;
    res.failed = loop.failed.size();
    res.correct = setupOk && res.failed == 0;
    if (!o.trace) {
        addEndToEnd(res, median(setup), loop, median(simRate) * 1e6,
                    peakRssMb());
        s.daemon.reset();
        return res;
    }

    // Traced run: the loop's spans, bracketed by the daemon's stats
    // verb, then the direct-call probes of each layer.
    std::map<std::string, double> layer;
    size_t spans = l.size();
    c1 = server.dispatcher().pool().stats();
    m1 = statsDoc(ep);
    layer["serve.threads_end"] = threadCount();
    layer["serve.vm_mb_end"] = vmSizeMb();
    cacheDeltas(c0, c1, layer);
    layer["mscd.latency.run.dispatch_us.p50"] =
        histogramP50(m0, m1, "mscd.latency.run.dispatch_us");
    layer["mscd.latency.run.done_us.p50"] =
        histogramP50(m0, m1, "mscd.latency.run.done_us");
    double hits = delta(m0, m1, "gauges", "mscd.cache.hits");
    layer["mscd.cache.hit_ratio"] =
        hits / std::max(1.0, hits + delta(m0, m1, "gauges",
                                          "mscd.cache.computed"));

    warmProbes(server, s, l, layer);
    double rtt = median(l.durationsNs("serve.op")) / 1e3;
    layer["client.encode_us"] = median(l.durationsNs("client.encode")) / 1e3;
    double named = layer["client.encode_us"] + layer["serve.frame_rw_us"] +
                   layer["serve.parse_us"] + layer["serve.dispatch_us"] +
                   layer["serve.frame_build_us"] + layer["client.decode_us"];
    layer["serve.roundtrip_us"] = rtt;
    layer["serve.unattributed_us"] = rtt - named;
    layer["bench.attributed_frac"] = named / rtt;
    layer["bench.trace_overhead_frac"] =
        double(spans) * spanCostNs() / (loop.wallS * 1e9);
    s.daemon.reset();

    addLayerMetrics(res, layer);
    l.write(o.outDir + "/spans-serve_warm-" + std::to_string(o.seed) +
            ".json");
    return res;
}

Result
runServeRouted(const Options &o, Refs &refs)
{
    std::vector<double> setup;
    RoutedSetup s;
    bool setupOk = true;
    for (int i = 0; i < 11; ++i) {
        s.topo.reset();
        malloc_trim(0);
        s = setupRouted(o, refs);
        setup.push_back(s.seconds);
        setupOk = setupOk && s.ok;
    }
    const client::Endpoint ep = s.topo->router->endpoint();
    auto shardStats = [&] {
        std::vector<report::Json> v;
        for (auto &sh : s.topo->shards)
            v.push_back(statsDoc(sh->endpoint()));
        return v;
    };
    auto shardCache = [&] {
        pipeline::CacheStats c;
        for (auto &sh : s.topo->shards)
            c.add(sh->get().dispatcher().pool().stats());
        return c;
    };

    Ledger l(o.trace);
    report::Json r0, r1;
    std::vector<report::Json> sh0, sh1;
    pipeline::CacheStats c0, c1;
    if (o.trace) {
        r0 = statsDoc(ep);
        sh0 = shardStats();
        c0 = shardCache();
    }
    std::vector<ColdCell> cold;
    Loop loop = routedLoop(o, ep, refs, l, cold);
    double rss = peakRssMb();

    Result res;
    std::map<std::string, double> layer;
    size_t spans = l.size();
    if (o.trace) {
        c1 = shardCache();
        sh1 = shardStats();
        r1 = statsDoc(ep);
        layer["serve.threads_end"] = threadCount();
        layer["serve.vm_mb_end"] = vmSizeMb();
        routedProbes(o, s.topo->shards[0]->get(), ep, loop, l, layer);
        cacheDeltas(c0, c1, layer);
        layer["router.cells_forwarded"] =
            delta(r0, r1, "counters", "router.cells.forwarded");
        double cells0 = delta(r0, r1, "counters", "router.shard.0.cells");
        double cells1 = delta(r0, r1, "counters", "router.shard.1.cells");
        layer["router.shard_balance"] = std::min(cells0, cells1) /
                                        std::max(1.0, std::max(cells0, cells1));
        double hits = 0, computed = 0, dedup = 0;
        for (size_t i = 0; i < sh0.size(); ++i) {
            hits += delta(sh0[i], sh1[i], "gauges", "mscd.cache.hits");
            computed +=
                delta(sh0[i], sh1[i], "gauges", "mscd.cache.computed");
            dedup += delta(sh0[i], sh1[i], "counters",
                           "mscd.dispatch.dedup_hits");
        }
        layer["shard.cache.hit_ratio"] = hits / std::max(1.0, hits + computed);
        layer["shard.dedup_hits"] = dedup;
        layer["bench.trace_overhead_frac"] =
            double(spans) * spanCostNs() / (loop.wallS * 1e9);
    }
    s.topo.reset();
    malloc_trim(0);

    // Every cold cell against its in-process recompute; the traced
    // run's recompute also gives the trace/simulate stage times and the
    // simulator counts of the cold cells.
    pipeline::SessionPool pool;
    obs::PhaseTimes pt;
    std::vector<report::RunRecord> records;
    std::set<uint64_t> bad = recomputeCold(cold, pool, &pt, &records);
    bad.insert(loop.failed.begin(), loop.failed.end());
    res.attempted = loop.ops;
    res.failed = bad.size();
    res.correct = setupOk && res.failed == 0;
    if (!o.trace) {
        addEndToEnd(res, median(setup), loop, loop.win.workPerS(), rss);
        return res;
    }

    // PipelinePhase lists the stages in StageKind order.
    for (size_t st = 0; st < pipeline::NUM_STAGES; ++st)
        layer[std::string("pipeline.") +
              pipeline::stageName(pipeline::StageKind(st)) + "_ms"] =
            pt.micros[st] / 1e3;
    uint64_t cycles = 0, skipped = 0, insts = 0;
    for (const auto &r : records) {
        cycles += r.stats.cycles;
        skipped += r.stats.eventSkippedCycles;
        insts += r.stats.retiredInsts;
    }
    double simNs = pt.micros[size_t(obs::PipelinePhase::TimingSim)] * 1e3;
    layer["arch.sim_cycles"] = double(cycles);
    layer["arch.retired_insts"] = double(insts);
    layer["arch.skipped_cycle_frac"] =
        double(skipped) / std::max(1.0, double(cycles));
    layer["arch.ns_per_sim_cycle"] = simNs / std::max(1.0, double(cycles));
    layer["arch.ns_per_active_cycle"] =
        simNs / std::max(1.0, double(cycles - skipped));

    addLayerMetrics(res, layer);
    l.write(o.outDir + "/spans-serve_routed-" + std::to_string(o.seed) +
            ".json");
    return res;
}

void
genServeRefs(Refs &refs)
{
    std::vector<report::RunSpec> specs;
    for (const WarmKey &k : warmKeys())
        specs.push_back(
            serve::parseRequest(runRequest("g", k).payload(), {}).specs.at(0));
    for (auto &spec : specs)
        spec.opts.config.coreMode = arch::CoreMode::Cycle;
    pipeline::SessionPool pool;
    for (const auto &r : report::SweepRunner(0).run(specs, pool)) {
        if (!r.ok())
            throw std::runtime_error("reference cell failed: " + r.spec.id);
        refs.set(ref(r.spec.workload,
                     report::strategyId(r.spec.opts.sel.strategy),
                     WARM_INSTS),
                 digest(report::runToJson(r).dump()));
    }
}

} // namespace perfbench
