#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "client/client.h"
#include "serve/dispatch.h"
#include "workloads/workload.h"

namespace msc {
namespace serve {

namespace {

/** `obj[key]` as a uint, 0 when absent/mistyped (counters from a
 *  peer's summary frame; lenient like the client decode). */
uint64_t
jsonUInt(const report::Json &obj, const char *key)
{
    const report::Json *v = obj.find(key);
    if (!v || v->kind() != report::Json::Kind::Int)
        return 0;
    return v->asUInt();
}

} // anonymous namespace

/** What one forwarded request resolved to (delivered exactly once,
 *  by the link's reader thread or its death). */
struct CellOutcome
{
    bool ok = false;

    /** run/sweep cells: the shard's `run` object, verbatim. */
    report::Json run;

    /** trace: the shard's raw terminal result frame. */
    report::Json result;

    /** !ok: why (shard error frame, or link loss). */
    runtime::StageErrorInfo error;
};

/**
 * One downstream shard: a send queue drained by the link's sender
 * thread (lazy connect with retry/backoff, then writes in queue
 * order), a demux reader thread per connection resolving forwarded
 * requests by id through their callbacks, and latest-known summary
 * counters. State is guarded by _mu, which is never held across
 * socket I/O or a backoff sleep, so forward() only queues: a shard
 * that is down, restarting or stopped never stalls the client
 * connection that routes to it. Callbacks run with _mu released and
 * only queue frames.
 */
class Router::ShardLink
{
  public:
    using Done = std::function<void(CellOutcome)>;

    ShardLink(unsigned index, client::Endpoint ep,
              const RouterConfig &cfg, obs::MetricsRegistry &metrics,
              obs::JsonLogger &log)
        : _index(index), _ep(std::move(ep)), _cfg(cfg), _log(log)
    {
        std::string base =
            "router.shard." + std::to_string(index) + ".";
        _cells = &metrics.counter(base + "cells");
        _downs = &metrics.counter(base + "down");
        _connects = &metrics.counter(base + "connects");
        _forwarded = &metrics.counter("router.cells.forwarded");
        _sender = std::thread([this] { senderLoop(); });
    }

    ~ShardLink()
    {
        Pending failed;
        {
            // Retiring the connection also unblocks a sender stuck
            // writing to a shard that stopped reading.
            std::lock_guard<std::mutex> lock(_mu);
            _closing = true;
            failed = markDownLocked(_gen, "router shutting down");
        }
        _wake.notify_all();
        _sender.join();
        std::vector<std::thread> readers;
        {
            std::lock_guard<std::mutex> lock(_mu);
            // Queued cells too, not only the ones already written.
            failed.merge(_pending);
            _pending.clear();
            readers.swap(_readers);
        }
        fail(failed, "router shutting down");
        for (auto &th : readers)
            th.join();
    }

    /** Queues one single-cell request on behalf of @p owner; @p done
     *  runs exactly once, when its terminal frame arrives, its write
     *  or connection fails, or the shard stays unreachable (connect
     *  retry with backoff exhausted). Throws runtime::StageError
     *  (ErrorKind::Io) only while the router is shutting down. */
    void
    forward(const std::string &cell_id, std::string payload,
            const Call *owner, Done done)
    {
        {
            std::lock_guard<std::mutex> lock(_mu);
            if (_closing)
                throw unreachable("router shutting down");
            Waiter &w = _pending[cell_id];
            w.done = std::move(done);
            w.owner = owner;
            _outbox.push_back({cell_id, std::move(payload), false});
        }
        _wake.notify_all();
    }

    /** Ids of the cells @p owner has in flight on this shard. */
    std::vector<std::string>
    cellsOf(const Call *owner) const
    {
        std::lock_guard<std::mutex> lock(_mu);
        std::vector<std::string> ids;
        for (const auto &[id, w] : _pending)
            if (w.owner == owner)
                ids.push_back(id);
        return ids;
    }

    /** Best-effort cancel relay for a cell in flight on this shard,
     *  queued behind the cell itself (responses to @p cancel_id are
     *  demuxed and dropped). */
    void
    sendCancel(const std::string &cancel_id, const std::string &target)
    {
        {
            std::lock_guard<std::mutex> lock(_mu);
            _outbox.push_back(
                {target,
                 client::RequestBuilder::cancel(cancel_id, target)
                     .payload(),
                 true});
        }
        _wake.notify_all();
    }

    /** Latest summary counters seen from this shard (cumulative on
     *  the shard's side; the router aggregates the latest values). */
    void
    counters(uint64_t &computed, uint64_t &hits, uint64_t &disk_hits,
             uint64_t &dedup) const
    {
        std::lock_guard<std::mutex> lock(_mu);
        computed = _computed;
        hits = _hits;
        disk_hits = _diskHits;
        dedup = _dedup;
    }

  private:
    /** A connected descriptor, closed once neither the sender nor the
     *  connection's reader holds it any more. */
    struct Socket
    {
        explicit Socket(int f) : fd(f) {}
        ~Socket() { ::close(fd); }
        Socket(const Socket &) = delete;
        Socket &operator=(const Socket &) = delete;
        const int fd;
    };

    struct Waiter
    {
        Done done;
        const Call *owner = nullptr;
        /** Connection generation the request was written on; 0 while
         *  it is still queued. */
        uint64_t gen = 0;
        report::Json run;
        bool haveRun = false;
    };
    using Pending = std::map<std::string, Waiter>;

    struct Outgoing
    {
        std::string cell;  ///< The cell, or the cancel's target.
        std::string payload;
        bool cancel;
    };

    runtime::StageError
    unreachable(const std::string &why) const
    {
        return runtime::StageError(
            runtime::ErrorKind::Io, "router",
            "shard " + std::to_string(_index) + " (" +
                client::formatEndpoint(_ep) + "): " + why);
    }

    /** Connects with the retry ladder, on the sender thread with _mu
     *  released. Null when the shard stays unreachable (@p why says
     *  why) or the link is closing. */
    std::shared_ptr<Socket>
    connectWithRetry(std::string &why)
    {
        // _failFast is sender-thread state: no lock needed.
        unsigned attempts =
            _failFast ? 1 : std::max(1u, _cfg.connectAttempts);
        for (unsigned a = 1; a <= attempts; ++a) {
            try {
                auto sock = std::make_shared<Socket>(
                    client::connectEndpoint(_ep));
                _failFast = false;
                return sock;
            } catch (const runtime::StageError &) {
                if (a == attempts)
                    break;
                std::unique_lock<std::mutex> lock(_mu);
                if (_wake.wait_for(lock,
                                   std::chrono::milliseconds(
                                       a * _cfg.connectBackoffMs),
                                   [&] { return _closing; }))
                    return nullptr;
            }
        }
        // A fully failed round: later cells probe once instead of
        // re-paying the whole backoff ladder per cell.
        _failFast = true;
        why = "unreachable after " + std::to_string(attempts) +
              " connect attempts";
        return nullptr;
    }

    /** Installs a fresh connection as the next generation and starts
     *  its reader. */
    void
    connectedLocked(std::shared_ptr<Socket> sock)
    {
        _sock = sock;
        uint64_t gen = ++_gen;
        _connects->inc();
        if (_log.enabled()) {
            report::Json f = report::Json::object();
            f["shard"] = uint64_t(_index);
            f["endpoint"] = client::formatEndpoint(_ep);
            _log.event("shard.connect", std::move(f));
        }
        _readers.emplace_back([this, sock = std::move(sock), gen] {
            readerLoop(sock, gen);
        });
    }

    void
    senderLoop()
    {
        std::unique_lock<std::mutex> lock(_mu);
        for (;;) {
            _wake.wait(lock,
                       [&] { return _closing || !_outbox.empty(); });
            if (_closing)
                return;  // the destructor fails what is left
            Outgoing out = std::move(_outbox.front());
            _outbox.pop_front();
            // A cell that already failed, or a cancel whose target
            // already finished, has nothing left to send.
            if (!_pending.count(out.cell))
                continue;
            if (!_sock) {
                if (out.cancel)
                    continue;  // its cell died with the connection
                lock.unlock();
                std::string why;
                std::shared_ptr<Socket> sock = connectWithRetry(why);
                lock.lock();
                if (_closing)
                    return;
                if (!sock) {
                    auto it = _pending.find(out.cell);
                    if (it == _pending.end())
                        continue;
                    Done done = std::move(it->second.done);
                    _pending.erase(it);
                    lock.unlock();
                    CellOutcome o;
                    o.error = unreachable(why).info();
                    done(std::move(o));
                    lock.lock();
                    continue;
                }
                connectedLocked(std::move(sock));
            }
            // Tag the cell with its connection before writing, so the
            // reader's markDownLocked fails it if the link dies at any
            // point from here on.
            uint64_t gen = _gen;
            std::shared_ptr<Socket> sock = _sock;
            if (!out.cancel) {
                _pending[out.cell].gen = gen;
                _cells->inc();
                _forwarded->inc();
            }
            lock.unlock();
            bool written = true;
            try {
                FdTransport t(sock->fd, sock->fd);
                writeFrame(t, out.payload);
            } catch (...) {
                written = false;
            }
            sock.reset();
            lock.lock();
            if (!written) {
                Pending failed =
                    markDownLocked(gen, "write to shard failed");
                lock.unlock();
                fail(failed, "write to shard failed");
                lock.lock();
            }
        }
    }

    /** Retires connection generation @p gen and hands back the cells
     *  written on it for fail(); queued cells stay for the sender to
     *  reconnect. A stale generation (reconnect already happened) is
     *  a no-op, so an old reader's exit can never kill a fresh
     *  connection. */
    Pending
    markDownLocked(uint64_t gen, const std::string &why)
    {
        Pending failed;
        if (gen != _gen || !_sock)
            return failed;
        // Wake the reader blocked in readFrame; the descriptor closes
        // when the reader (and any write in progress) lets go of it.
        ::shutdown(_sock->fd, SHUT_RDWR);
        _sock.reset();
        for (auto it = _pending.begin(); it != _pending.end();) {
            if (it->second.gen == gen)
                failed.insert(_pending.extract(it++));
            else
                ++it;
        }
        if (!failed.empty()) {
            _downs->inc();
            if (_log.enabled()) {
                report::Json f = report::Json::object();
                f["shard"] = uint64_t(_index);
                f["pending"] = uint64_t(failed.size());
                f["why"] = why;
                _log.event("shard.down", std::move(f));
            }
        }
        return failed;
    }

    /** Fails @p cells (from markDownLocked) as connection losses;
     *  called with _mu released. */
    void
    fail(Pending &cells, const std::string &why) const
    {
        for (auto &[id, w] : cells) {
            CellOutcome out;
            out.error = unreachable("connection lost (" + why + ")")
                            .info();
            w.done(std::move(out));
        }
        cells.clear();
    }

    void
    readerLoop(const std::shared_ptr<Socket> &sock, uint64_t gen)
    {
        FdTransport t(sock->fd, sock->fd);
        for (;;) {
            FrameResult fr;
            try {
                fr = readFrame(t);
            } catch (const std::exception &) {
                break;  // ECONNRESET etc: same as stream end
            }
            if (fr.status != FrameStatus::Ok)
                break;
            client::ResponseFrame f;
            try {
                f = client::parseResponseFrame(fr.payload);
            } catch (const std::exception &) {
                continue;  // unintelligible frame from a shard: skip
            }
            Done done;
            CellOutcome out;
            {
                std::lock_guard<std::mutex> lock(_mu);
                auto it = _pending.find(f.id);
                if (it == _pending.end())
                    continue;  // e.g. a relayed cancel's result frame
                Waiter &w = it->second;
                switch (f.type) {
                  case client::ResponseFrame::Type::Cell:
                    w.run = std::move(f.run);
                    w.haveRun = true;
                    continue;  // terminal frame still to come
                  case client::ResponseFrame::Type::Summary: {
                    const report::Json *cache = f.raw.find("cache");
                    if (cache) {
                        _computed = jsonUInt(*cache, "computed");
                        _hits = jsonUInt(*cache, "hits");
                        _diskHits = jsonUInt(*cache, "disk_hits");
                    }
                    _dedup = jsonUInt(f.raw, "dedup_hits");
                    if (w.haveRun) {
                        out.ok = true;
                        out.run = std::move(w.run);
                    } else {
                        out.error.kind = runtime::ErrorKind::Internal;
                        out.error.stage = "router";
                        out.error.detail =
                            "shard sent a summary without a cell "
                            "frame";
                    }
                    break;
                  }
                  case client::ResponseFrame::Type::Result:
                    out.ok = true;
                    out.result = std::move(f.raw);
                    break;
                  case client::ResponseFrame::Type::Error:
                    out.error = f.error;
                    break;
                }
                done = std::move(w.done);
                _pending.erase(it);
            }
            done(std::move(out));
        }
        Pending failed;
        {
            std::lock_guard<std::mutex> lock(_mu);
            failed = markDownLocked(gen, "stream ended");
        }
        fail(failed, "stream ended");
    }

    const unsigned _index;
    const client::Endpoint _ep;
    const RouterConfig &_cfg;
    obs::JsonLogger &_log;

    obs::Counter *_cells = nullptr;
    obs::Counter *_downs = nullptr;
    obs::Counter *_connects = nullptr;
    obs::Counter *_forwarded = nullptr;

    mutable std::mutex _mu;
    std::condition_variable _wake;  ///< Sender: queued or closing.
    std::deque<Outgoing> _outbox;
    std::shared_ptr<Socket> _sock;  ///< Null while disconnected.
    uint64_t _gen = 0;
    bool _closing = false;
    Pending _pending;
    std::vector<std::thread> _readers;
    bool _failFast = false;  ///< Sender thread only.
    std::thread _sender;

    uint64_t _computed = 0;
    uint64_t _hits = 0;
    uint64_t _diskHits = 0;
    uint64_t _dedup = 0;
};

Router::Router(RouterConfig cfg)
    : Frontend(cfg, "router"), _cfg(std::move(cfg))
{
    _cellsFailed = &metrics().counter("router.cells.failed");
    _cancelsForwarded = &metrics().counter("router.cancels.forwarded");
    for (size_t i = 0; i < _cfg.shards.size(); ++i)
        _links.push_back(std::make_unique<ShardLink>(
            unsigned(i), _cfg.shards[i], _cfg, metrics(), log()));
}

Router::~Router() = default;

unsigned
Router::shardOf(const report::RunSpec &spec)
{
    unsigned n = unsigned(_links.size());
    try {
        auto session =
            _keys.session(report::sessionKey(spec), [&] {
                return workloads::buildWorkload(spec.workload,
                                                spec.scale);
            });
        uint64_t key = session->stageKey(
            pipeline::StageKind::Simulate, spec.opts);
        return unsigned(key % n);
    } catch (...) {
        // No program, no content key (unknown workload): any shard
        // produces the identical error record, so a stable name hash
        // just spreads the load.
        return unsigned(std::hash<std::string>{}(spec.workload) % n);
    }
}

std::string
Router::nextCellId(char tag)
{
    return tag + std::to_string(_cellSeq.fetch_add(1) + 1);
}

namespace {

/** Re-serializes a parsed spec as the single-cell `run`/`trace`
 *  request reproducing it verbatim on a shard: parseRequest rebuilds
 *  the identical RunSpec (same makeSpec arguments), so the shard's
 *  run object is byte-identical to a direct daemon's. The budget is
 *  propagated exactly — zeros included — so shard-side defaults never
 *  alter a routed cell's outcome. */
std::string
forwardPayload(const report::RunSpec &spec, const std::string &cell_id,
               bool trace, bool include_trace)
{
    client::RequestBuilder b =
        trace ? client::RequestBuilder::trace(cell_id, spec.workload)
              : client::RequestBuilder::run(cell_id, spec.workload);
    b.strategy(report::strategyId(spec.opts.sel.strategy))
        .pusCount(spec.opts.config.numPUs)
        .smallScale(spec.scale == workloads::Scale::Small)
        .insts(spec.opts.trace.traceInsts)
        .targets(spec.opts.sel.maxTargets)
        .inOrder(!spec.opts.config.outOfOrder)
        .sizeHeuristic(spec.opts.sel.taskSizeHeuristic)
        .budgetExact(spec.opts.budget);
    if (trace)
        b.includeTrace(include_trace);
    return b.payload();
}

/** The msc.sweep run object of a cell that failed with @p info. */
report::Json
failedRun(const report::RunSpec &spec,
          const runtime::StageErrorInfo &info)
{
    return report::runToJson(errorRecord(
        spec, std::make_exception_ptr(runtime::StageError(info))));
}

} // anonymous namespace

void
Router::start(const std::shared_ptr<Call> &call)
{
    const Request &req = call->request();
    if (req.kind == RequestKind::Trace) {
        forwardTrace(call);
        return;
    }

    // Per-shard cell counts for the summary, filled as cells are
    // routed; the summary is built only after the last cell completes,
    // which cannot happen before that cell was counted.
    auto shardCells =
        std::make_shared<std::vector<uint64_t>>(_links.size(), 0);
    auto stream = std::make_shared<CellStream>(
        call, [this, id = req.id, shardCells](
                  const std::vector<std::string> &statuses) {
            uint64_t computed = 0, hits = 0, disk = 0, dedup = 0;
            for (const auto &link : _links) {
                uint64_t c, h, d, dd;
                link->counters(c, h, d, dd);
                computed += c;
                hits += h;
                disk += d;
                dedup += dd;
            }
            report::Json cache = report::Json::object();
            cache["computed"] = computed;
            cache["hits"] = hits;
            cache["disk_hits"] = disk;
            return routedSummaryFrame(id, statuses, cache, dedup,
                                      *shardCells);
        });

    // Fan every cell out; each is an independent single-cell request
    // that the shard's own dispatcher pools and dedups, and the
    // stream puts the answers back in grid order.
    size_t n = req.specs.size();
    for (size_t i = 0; i < n; ++i) {
        const report::RunSpec &spec = req.specs[i];
        int shard = int(shardOf(spec));
        ++(*shardCells)[shard];
        if (call->cancelled()) {
            stream->complete(
                i,
                failedRun(spec, runtime::StageError(
                                    runtime::ErrorKind::Cancelled,
                                    "router",
                                    "request cancelled before dispatch")
                                    .info()),
                shard);
            continue;
        }
        std::string cellId = nextCellId('c');
        try {
            _links[shard]->forward(
                cellId, forwardPayload(spec, cellId, false, false),
                call.get(),
                [this, call, stream, i, shard](CellOutcome out) {
                    if (out.ok) {
                        stream->complete(i, std::move(out.run), shard);
                        return;
                    }
                    _cellsFailed->inc();
                    stream->complete(
                        i, failedRun(call->request().specs[i], out.error),
                        shard);
                });
        } catch (const runtime::StageError &e) {
            _cellsFailed->inc();
            stream->complete(i, failedRun(spec, e.info()), shard);
        }
    }
    call->dispatched(n);
}

void
Router::forwardTrace(const std::shared_ptr<Call> &call)
{
    const report::RunSpec &spec = call->request().specs.at(0);
    std::string cellId = nextCellId('c');
    try {
        _links[shardOf(spec)]->forward(
            cellId,
            forwardPayload(spec, cellId, true,
                           call->request().includeTrace),
            call.get(), [this, call](CellOutcome out) {
                if (!out.ok) {
                    _cellsFailed->inc();
                    call->finish(
                        errorFrame(call->request().id, out.error));
                    return;
                }
                // Relay the shard's result frame verbatim under the
                // client's id.
                out.result["id"] = call->request().id;
                call->finish(out.result);
            });
    } catch (const runtime::StageError &) {
        _cellsFailed->inc();
        throw;
    }
}

void
Router::cancel(Call &call)
{
    for (const auto &link : _links)
        for (const std::string &cell : link->cellsOf(&call)) {
            link->sendCancel(nextCellId('x'), cell);
            _cancelsForwarded->inc();
        }
}

} // namespace serve
} // namespace msc
