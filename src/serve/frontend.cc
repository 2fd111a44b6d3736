#include "serve/frontend.h"

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <thread>

#include <unistd.h>

#include "runtime/error.h"

namespace msc {
namespace serve {

/** One connection: the transport, and the queue its writer drains. */
struct Call::Conn
{
    Conn(Transport &tr, uint64_t n) : t(tr), id(n) {}

    /** Queues one frame for the writer. */
    void push(const report::Json &frame)
    {
        std::string payload = frame.dump();
        {
            std::lock_guard<std::mutex> lock(mu);
            queue.push_back(std::move(payload));
        }
        wake.notify_one();
    }

    Transport &t;
    const uint64_t id;  ///< Process-wide connection sequence (logs).

    std::mutex mu;
    std::condition_variable wake;  ///< Writer: frames queued/closing.
    std::condition_variable idle;  ///< Reader: a request finished.
    std::deque<std::string> queue;

    /** Pooled requests in flight. Raised on the reader thread before
     *  the next frame is read and lowered before a request's terminal
     *  frame is queued, so the busy bound is deterministic with
     *  respect to frame arrival order (tests rely on this). */
    unsigned active = 0;
    bool closing = false;  ///< Reader done; writer drains and exits.
};

void
Call::firstFrame()
{
    if (_sent.exchange(true))
        return;
    Frontend::VerbMetrics &vm = _fe._verb[size_t(_req.kind)];
    if (vm.firstFrameUs)
        vm.firstFrameUs->observe(Frontend::sinceUs(_t0));
    if (_fe._log.enabled()) {
        report::Json f = report::Json::object();
        f["rid"] = _rid;
        f["dur_us"] = Frontend::sinceUs(_t0);
        _fe._log.event("request.first_frame", std::move(f));
    }
}

void
Call::dispatched(size_t cells)
{
    Frontend::VerbMetrics &vm = _fe._verb[size_t(_req.kind)];
    if (vm.dispatchUs)
        vm.dispatchUs->observe(Frontend::sinceUs(_t0));
    if (_fe._log.enabled()) {
        report::Json f = report::Json::object();
        f["rid"] = _rid;
        f["cells"] = uint64_t(cells);
        f["dur_us"] = Frontend::sinceUs(_t0);
        _fe._log.event("request.dispatch", std::move(f));
    }
}

void
Call::send(const report::Json &frame)
{
    firstFrame();
    _conn.push(frame);
}

void
Call::finish(const report::Json &frame)
{
    if (_done.exchange(true))
        return;
    const report::Json *type = frame.find("type");
    bool error = type && type->asString() == "error";
    if (!error)
        firstFrame();
    _fe._verb[size_t(_req.kind)].doneUs->observe(
        Frontend::sinceUs(_t0));
    if (_fe._log.enabled()) {
        report::Json f = report::Json::object();
        f["rid"] = _rid;
        if (error) {
            f["error_kind"] =
                frame.get("error").get("kind").asString();
            _fe._log.event("request.error", std::move(f));
        } else {
            const report::Json *status = frame.find("status");
            f["status"] = status ? status->asString() : "ok";
            if (const report::Json *runs = frame.find("runs"))
                f["cells"] = runs->asUInt();
            f["dur_us"] = Frontend::sinceUs(_t0);
            _fe._log.event("request.done", std::move(f));
        }
    }
    std::string payload = frame.dump();
    Conn &conn = _conn;
    _fe.release(*this);
    // Queue and notify under the lock that releases the slot: the
    // reader may tear the connection down once `active` reaches zero.
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.queue.push_back(std::move(payload));
    --conn.active;
    conn.wake.notify_one();
    conn.idle.notify_all();
}

void
Call::fail(std::exception_ptr ep)
{
    runtime::StageErrorInfo info;
    try {
        std::rethrow_exception(ep);
    } catch (const runtime::StageError &e) {
        info = e.info();
    } catch (const std::exception &e) {
        info.kind = runtime::ErrorKind::Internal;
        info.stage = "server";
        info.detail = e.what();
    }
    finish(errorFrame(_req.id, info));
}

CellStream::CellStream(std::shared_ptr<Call> call, Summary summary)
    : _call(std::move(call)), _summary(std::move(summary)),
      _slots(_call->request().specs.size())
{
    _statuses.reserve(_slots.size());
}

void
CellStream::complete(size_t index, report::Json run, int shard)
{
    const std::string &id = _call->request().id;
    size_t n = _slots.size();
    bool last = false;
    {
        std::lock_guard<std::mutex> lock(_mu);
        Slot &s = _slots.at(index);
        s.ready = true;
        s.shard = shard;
        s.run = std::move(run);
        // Emit the ready prefix: whoever fills the next gap emits it,
        // and whoever emits the last cell also owes the summary.
        while (_statuses.size() < n && _slots[_statuses.size()].ready) {
            size_t i = _statuses.size();
            const report::Json *st = _slots[i].run.find("status");
            _statuses.push_back(
                st && st->kind() == report::Json::Kind::String
                    ? st->asString()
                    : std::string("error"));
            _call->send(cellFrame(id, i, n, std::move(_slots[i].run),
                                  _slots[i].shard));
            last = i + 1 == n;
        }
    }
    if (last)
        _call->finish(_summary(_statuses));
}

Frontend::Frontend(const FrontendConfig &cfg, std::string prefix)
    : _cfg(cfg), _prefix(std::move(prefix)), _log(cfg.logJson)
{
    std::string p = _prefix + ".";
    _framesIn = &_metrics.counter(p + "frames.in");
    _framesOut = &_metrics.counter(p + "frames.out");
    _framesTruncated = &_metrics.counter(p + "frames.truncated");
    _framesOversize = &_metrics.counter(p + "frames.oversize");
    _reqMalformed = &_metrics.counter(p + "requests.malformed");
    _reqBusy = &_metrics.counter(p + "requests.busy");
    _connAccepted = &_metrics.counter(p + "connections.accepted");
    _connClosed = &_metrics.counter(p + "connections.closed");
    _connErrors = &_metrics.counter(p + "connections.errors");
    _requestsInflight = &_metrics.gauge(p + "requests.inflight");

    static constexpr RequestKind verbs[] = {
        RequestKind::Run, RequestKind::Sweep, RequestKind::Trace,
        RequestKind::Cancel, RequestKind::Stats};
    for (RequestKind k : verbs) {
        VerbMetrics &vm = _verb[size_t(k)];
        std::string verb = verbName(k);
        vm.requests = &_metrics.counter(p + "requests." + verb);
        std::string base = p + "latency." + verb + ".";
        bool pooled =
            k == RequestKind::Run || k == RequestKind::Sweep;
        if (pooled)
            vm.dispatchUs = &_metrics.histogram(base + "dispatch_us");
        if (pooled || k == RequestKind::Trace)
            vm.firstFrameUs =
                &_metrics.histogram(base + "first_frame_us");
        vm.doneUs = &_metrics.histogram(base + "done_us");
    }
}

uint64_t
Frontend::sinceUs(Clock::time_point t0)
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - t0)
            .count());
}

void
Frontend::writerLoop(Conn &conn)
{
    std::deque<std::string> batch;
    bool broken = false;
    std::unique_lock<std::mutex> lock(conn.mu);
    while (true) {
        conn.wake.wait(lock, [&] {
            return !conn.queue.empty() || conn.closing;
        });
        if (conn.queue.empty())
            return;  // closing and drained
        batch.swap(conn.queue);
        lock.unlock();
        for (const std::string &payload : batch) {
            if (broken)
                break;  // the peer is gone: drop, keep draining
            try {
                writeFrame(conn.t, payload);
                _framesOut->inc();
            } catch (const std::exception &) {
                // The peer is gone: this connection's output is over,
                // but its requests still finish and release.
                broken = true;
                _connErrors->inc();
            }
        }
        batch.clear();
        lock.lock();
    }
}

void
Frontend::serveConnection(Transport &t)
{
    Conn conn{t, _connSeq.fetch_add(1) + 1};
    _connAccepted->inc();
    if (_log.enabled()) {
        report::Json f = report::Json::object();
        f["conn"] = conn.id;
        _log.event("conn.open", std::move(f));
    }
    std::thread writer([this, &conn] { writerLoop(conn); });

    // Whatever ends the read side (end-of-stream or a transport
    // error), requests already started still own frames on this
    // connection: wait for them, then let the writer drain and exit.
    auto drain = [&] {
        std::unique_lock<std::mutex> lock(conn.mu);
        conn.idle.wait(lock, [&] { return conn.active == 0; });
        conn.closing = true;
        lock.unlock();
        conn.wake.notify_one();
        writer.join();
    };
    try {
        readLoop(conn);
    } catch (...) {
        drain();
        throw;
    }
    drain();

    _connClosed->inc();
    if (_log.enabled()) {
        report::Json f = report::Json::object();
        f["conn"] = conn.id;
        _log.event("conn.close", std::move(f));
    }
}

namespace {

/** An `invalid-input` error frame from the protocol layer. */
report::Json
protocolError(const std::string &id, std::string detail)
{
    runtime::StageErrorInfo info;
    info.kind = runtime::ErrorKind::InvalidInput;
    info.stage = "protocol";
    info.detail = std::move(detail);
    return errorFrame(id, info);
}

} // anonymous namespace

void
Frontend::logFrameError(Conn &conn, const char *kind,
                        uint64_t declared)
{
    if (!_log.enabled())
        return;
    report::Json f = report::Json::object();
    f["conn"] = conn.id;
    f["kind"] = kind;
    if (declared)
        f["declared"] = declared;
    _log.event("frame.error", std::move(f));
}

void
Frontend::readLoop(Conn &conn)
{
    while (true) {
        FrameResult fr = readFrame(conn.t, _cfg.maxFrame);
        Clock::time_point t0 = Clock::now();
        switch (fr.status) {
          case FrameStatus::Eof:
            return;
          case FrameStatus::Truncated:
            // The peer still gets a structured reply before the
            // (already half-closed) connection winds down.
            _framesTruncated->inc();
            logFrameError(conn, "truncated");
            conn.push(protocolError(
                "", "truncated frame: stream ended inside a frame"));
            return;
          case FrameStatus::Oversize:
            _framesOversize->inc();
            logFrameError(conn, "oversize", fr.declared);
            conn.push(protocolError(
                "", "frame length " + std::to_string(fr.declared) +
                        " exceeds maximum " +
                        std::to_string(_cfg.maxFrame)));
            continue;
          case FrameStatus::Ok:
            _framesIn->inc();
            handle(conn, fr.payload, t0);
            continue;
        }
    }
}

void
Frontend::inlineDone(const std::string &rid, RequestKind kind,
                     Clock::time_point t0, report::Json fields)
{
    _verb[size_t(kind)].doneUs->observe(sinceUs(t0));
    if (_log.enabled()) {
        fields["rid"] = rid;
        fields["dur_us"] = sinceUs(t0);
        _log.event("request.done", std::move(fields));
    }
}

void
Frontend::handle(Conn &conn, const std::string &payload,
                 Clock::time_point t0)
{
    Request req;
    try {
        req = parseRequest(payload, _cfg.defaults);
    } catch (const runtime::StageError &e) {
        _reqMalformed->inc();
        logFrameError(conn, "malformed");
        conn.push(errorFrame(extractRequestId(payload), e.info()));
        return;
    }

    // The RequestId: minted per well-formed frame, in arrival order,
    // before any handling — so per-verb counters are deterministic
    // with respect to a later stats snapshot on the same connection.
    std::string rid = "r" + std::to_string(_reqSeq.fetch_add(1) + 1);
    _verb[size_t(req.kind)].requests->inc();
    if (_log.enabled()) {
        report::Json f = report::Json::object();
        f["conn"] = conn.id;
        f["rid"] = rid;
        f["req"] = req.id;
        f["verb"] = verbName(req.kind);
        if (!req.specs.empty())
            f["cells"] = uint64_t(req.specs.size());
        _log.event("request.start", std::move(f));
    }

    if (req.kind == RequestKind::Cancel) {
        std::shared_ptr<Call> target;
        {
            std::lock_guard<std::mutex> lock(_callsMu);
            auto it = _calls.find(req.target);
            if (it != _calls.end())
                target = it->second;
        }
        if (target) {
            target->_cancel.requestCancel();
            cancel(*target);
        }
        conn.push(cancelResultFrame(req.id, req.target, bool(target)));
        report::Json f = report::Json::object();
        f["target"] = req.target;
        f["found"] = bool(target);
        inlineDone(rid, req.kind, t0, std::move(f));
        return;
    }

    if (req.kind == RequestKind::Stats) {
        // The verb counter above is already incremented, so the
        // snapshot counts this request — deterministic for byte-exact
        // test assertions.
        conn.push(req.statsFormat == StatsFormat::Prometheus
                      ? statsResultFramePrometheus(
                            req.id, _metrics.toPrometheus())
                      : statsResultFrame(req.id, _metrics.toJson()));
        inlineDone(rid, req.kind, t0, report::Json::object());
        return;
    }

    // Backpressure: refuse (never drop) pooled requests past the
    // per-connection bound. `active` only rises on this thread, so a
    // peer that waits for terminal frames is never spuriously refused.
    unsigned active;
    {
        std::lock_guard<std::mutex> lock(conn.mu);
        active = conn.active;
    }
    if (_cfg.maxInflight && active >= _cfg.maxInflight) {
        _reqBusy->inc();
        if (_log.enabled()) {
            report::Json f = report::Json::object();
            f["rid"] = rid;
            f["inflight"] = uint64_t(active);
            _log.event("request.busy", std::move(f));
        }
        runtime::StageErrorInfo info;
        info.kind = runtime::ErrorKind::Busy;
        info.stage = "server";
        info.detail = "connection has " + std::to_string(active) +
                      " requests in flight (bound " +
                      std::to_string(_cfg.maxInflight) +
                      "); retry after a terminal frame";
        conn.push(errorFrame(req.id, info));
        return;
    }

    // Register before starting: a cancel frame that follows this one
    // on the wire is guaranteed to see the id.
    std::string id = req.id;
    std::shared_ptr<Call> call(
        new Call(*this, conn, std::move(req), rid, t0));
    {
        std::lock_guard<std::mutex> lock(_callsMu);
        if (!_calls.emplace(id, call).second)
            call.reset();
    }
    if (!call) {
        conn.push(protocolError(id, "duplicate request id: \"" + id +
                                        "\" is already in flight"));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(conn.mu);
        ++conn.active;
    }
    _requestsInflight->add(1);
    try {
        start(call);
    } catch (...) {
        call->fail(std::current_exception());
    }
}

void
Frontend::release(Call &call)
{
    {
        std::lock_guard<std::mutex> lock(_callsMu);
        _calls.erase(call._req.id);
    }
    _requestsInflight->add(-1);
}

int
Frontend::serveListener(int listen_fd)
{
    return _accept.run(listen_fd, [this](int c) {
        FdTransport t(c, c);
        try {
            serveConnection(t);
        } catch (const std::exception &e) {
            _connErrors->inc();
            std::fprintf(stderr, "%s: connection error: %s\n",
                         _prefix.c_str(), e.what());
        }
        ::close(c);
    });
}

int
Frontend::serveUnix(const std::string &path)
{
    int fd = bindUnix(path, _prefix.c_str());
    if (fd < 0)
        return 1;
    int rc = serveListener(fd);
    ::unlink(path.c_str());
    return rc;
}

int
Frontend::serveTcp(uint16_t port)
{
    int fd = bindTcp(port, _prefix.c_str());
    if (fd < 0)
        return 1;
    return serveListener(fd);
}

void
Frontend::requestStop()
{
    _accept.requestStop();
}

} // namespace serve
} // namespace msc
