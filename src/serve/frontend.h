/**
 * @file
 * The connection front-end shared by both mscd shapes.
 *
 * A Frontend owns everything between a client's byte stream and the
 * code that actually answers a request, exactly once:
 *
 *  - the per-connection reader loop and its writer: one thread reads
 *    and decodes frames, one thread writes every response frame in
 *    the order it was handed over. Nothing else ever touches the
 *    client transport, so work that completes on a worker or a
 *    shard-link reader only queues a frame and never blocks on a
 *    slow (or absent) reader;
 *  - framing errors: truncated, oversize and malformed frames each
 *    get one structured `error` frame, a counter and a `frame.error`
 *    log line (frame.h documents the resync rules);
 *  - request bookkeeping: rid minting, per-verb counters, the
 *    dispatch/first-frame/done latency histograms, the duplicate-id
 *    check and the `--max-inflight` busy refusal;
 *  - the inline verbs: `stats` snapshots the registry and `cancel`
 *    trips the target's token on the reader thread, so neither ever
 *    queues behind the work it observes or stops;
 *  - the listener glue (serveUnix/serveTcp/requestStop; stdio is
 *    serveConnection over an FdTransport(0, 1)).
 *
 * What remains per daemon shape is two virtual members: start a
 * parsed run/sweep/trace and answer it through its Call, and relay a
 * cancel. Server answers from its Dispatcher, Router from its shard
 * links.
 * Both stream sweep cells through CellStream, the one implementation
 * of grid-order reassembly.
 *
 * Metric and log names are the daemon's prefix (`mscd.`/`router.`)
 * plus the inventory in docs/OBSERVABILITY.md.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/slog.h"
#include "runtime/budget.h"
#include "serve/frame.h"
#include "serve/listen.h"
#include "serve/protocol.h"

namespace msc {
namespace serve {

/** Settings every front-end shares (ServerConfig and RouterConfig
 *  extend this). */
struct FrontendConfig
{
    /** Per-request defaults (budget) merged during parsing. */
    RequestDefaults defaults;

    /** Inbound frame-size cap. */
    uint32_t maxFrame = DEFAULT_MAX_FRAME;

    /** Connection-level backpressure: maximum pooled requests
     *  (run/sweep/trace) in flight per connection. A request past the
     *  bound is refused with a structured `busy` error frame — the
     *  connection stays usable and no frame is lost. Inline verbs
     *  (cancel/stats) are exempt, so a saturated peer can still
     *  cancel or observe. 0 = unlimited (`mscd --max-inflight`). */
    unsigned maxInflight = 0;

    /** Emit one structured JSON log line per request lifecycle event
     *  on stderr (`mscd --log-json`; docs/OBSERVABILITY.md). */
    bool logJson = false;
};

class Frontend;

/**
 * One pooled request (run/sweep/trace) in flight: the handle a
 * daemon shape answers through. Every member may be called from any
 * thread and none blocks on the client transport — frames are queued
 * for the connection's writer.
 */
class Call
{
  public:
    const Request &request() const { return _req; }

    /** The server-minted RequestId (log correlation). */
    const std::string &rid() const { return _rid; }

    /** Tripped by a `cancel` naming this request; poll it. */
    const runtime::CancelToken *cancelToken() const { return &_cancel; }
    bool cancelled() const { return _cancel.cancelled(); }

    /** Every cell has been handed to an executor (observes the
     *  dispatch histogram). */
    void dispatched(size_t cells);

    /** Queues a non-terminal frame (a cell). */
    void send(const report::Json &frame);

    /** Queues the terminal frame. The request id and the connection's
     *  in-flight slot are released first, so a peer that has read the
     *  terminal frame can reuse the id at once. Later calls are
     *  ignored. */
    void finish(const report::Json &frame);

    /** finish() with the error frame for @p ep: a StageError keeps
     *  its attribution, anything else is an `internal` error. */
    void fail(std::exception_ptr ep);

  private:
    friend class Frontend;
    struct Conn;
    using Clock = std::chrono::steady_clock;

    Call(Frontend &fe, Conn &conn, Request req, std::string rid,
         Clock::time_point t0)
        : _fe(fe), _conn(conn), _req(std::move(req)),
          _rid(std::move(rid)), _t0(t0)
    {}

    void firstFrame();

    Frontend &_fe;
    Conn &_conn;
    const Request _req;
    const std::string _rid;
    const Clock::time_point _t0;
    runtime::CancelToken _cancel;
    std::atomic<bool> _sent{false};
    std::atomic<bool> _done{false};
};

/**
 * Streams a run/sweep's cells to its Call in grid order whatever
 * order they complete in, then the summary — the determinism contract
 * that lets cell frames reassemble into a `msc.sweep` document
 * byte-identical to `msctool sweep --json`.
 */
class CellStream
{
  public:
    /** Builds the summary frame from the cells' `status` strings. */
    using Summary = std::function<report::Json(
        const std::vector<std::string> &statuses)>;

    CellStream(std::shared_ptr<Call> call, Summary summary);

    /** Cell @p index finished with @p run (its msc.sweep run object);
     *  @p shard >= 0 tags a router-relayed cell. Thread-safe. */
    void complete(size_t index, report::Json run, int shard = -1);

  private:
    struct Slot
    {
        bool ready = false;
        int shard = -1;
        report::Json run;
    };

    std::shared_ptr<Call> _call;
    Summary _summary;
    std::mutex _mu;
    std::vector<Slot> _slots;
    std::vector<std::string> _statuses;
};

class Frontend
{
  public:
    /** @p prefix names every metric (`mscd`, `router`) and
     *  diagnostics. */
    Frontend(const FrontendConfig &cfg, std::string prefix);
    virtual ~Frontend() = default;

    Frontend(const Frontend &) = delete;
    Frontend &operator=(const Frontend &) = delete;

    /** Serves one connection until end-of-stream and every request
     *  started on it has finished; blocking. Safe to call from
     *  multiple threads (one per connection). */
    void serveConnection(Transport &t);

    /** Binds @p path (replacing any stale socket file), accepts
     *  connections until requestStop(), then unlinks the socket.
     *  Returns 0 on clean shutdown, 1 on setup failure (diagnostic
     *  on stderr). */
    int serveUnix(const std::string &path);

    /** Same over TCP on 127.0.0.1:@p port. */
    int serveTcp(uint16_t port);

    /** Stops the accept loop (async-signal-safe: flags + closes the
     *  listening descriptor). In-flight connections finish. */
    void requestStop();

    /** The process's telemetry registry (what the `stats` verb
     *  snapshots); valid for the Frontend's lifetime. */
    obs::MetricsRegistry &metrics() { return _metrics; }

    obs::JsonLogger &log() { return _log; }

  protected:
    /** Starts a parsed run/sweep/trace on the connection's reader
     *  thread; must not block on I/O. The daemon shape must
     *  eventually finish (or fail) @p call exactly once, from any
     *  thread — possibly before returning. An escaping exception
     *  fails the call. */
    virtual void start(const std::shared_ptr<Call> &call) = 0;

    /** @p call's token is already tripped; relay the cancel to work
     *  that cannot poll it. */
    virtual void cancel(Call &call) = 0;

  private:
    friend class Call;
    using Clock = std::chrono::steady_clock;
    using Conn = Call::Conn;

    /** Pre-registered per-verb instruments (the hot path never takes
     *  the registry mutex). Null = not meaningful for the verb. */
    struct VerbMetrics
    {
        obs::Counter *requests = nullptr;
        obs::Histogram *dispatchUs = nullptr;
        obs::Histogram *firstFrameUs = nullptr;
        obs::Histogram *doneUs = nullptr;
    };

    void readLoop(Conn &conn);
    void handle(Conn &conn, const std::string &payload,
                Clock::time_point t0);
    void logFrameError(Conn &conn, const char *kind,
                       uint64_t declared = 0);
    void writerLoop(Conn &conn);
    void inlineDone(const std::string &rid, RequestKind kind,
                    Clock::time_point t0, report::Json fields);
    void release(Call &call);
    int serveListener(int listen_fd);

    static uint64_t sinceUs(Clock::time_point t0);

    const FrontendConfig _cfg;
    const std::string _prefix;

    obs::MetricsRegistry _metrics;
    obs::JsonLogger _log;
    VerbMetrics _verb[5];
    obs::Counter *_framesIn = nullptr;
    obs::Counter *_framesOut = nullptr;
    obs::Counter *_framesTruncated = nullptr;
    obs::Counter *_framesOversize = nullptr;
    obs::Counter *_reqMalformed = nullptr;
    obs::Counter *_reqBusy = nullptr;
    obs::Counter *_connAccepted = nullptr;
    obs::Counter *_connClosed = nullptr;
    obs::Counter *_connErrors = nullptr;
    obs::Gauge *_requestsInflight = nullptr;
    std::atomic<uint64_t> _reqSeq{0};
    std::atomic<uint64_t> _connSeq{0};

    /** In-flight pooled requests by client id, across connections
     *  (duplicate-id check and cancel lookup). */
    std::mutex _callsMu;
    std::map<std::string, std::shared_ptr<Call>> _calls;

    AcceptLoop _accept;
};

} // namespace serve
} // namespace msc
