/**
 * @file
 * First-class client API for the mscd protocol (docs/API.md).
 *
 * Everything a program needs to talk to a daemon lives here, so no
 * caller hand-rolls sockets, framing, or per-verb JSON again:
 *
 *  - Endpoint (endpoint.h): one grammar for unix:/tcp:/stdio;
 *  - RequestBuilder: typed construction of every protocol verb
 *    (run/sweep/trace/cancel/stats), emitting exactly the payloads
 *    docs/DAEMON.md specifies;
 *  - ResponseFrame: the typed decode of every response frame kind
 *    (cell/summary/result/error), with the raw Json preserved for
 *    fields a caller wants verbatim (e.g. the byte-exact `run`
 *    objects a sweep document is reassembled from);
 *  - ClientConn: a connected peer owning the transport and framing,
 *    with the one-request/stream-responses lifecycle (`call`) and the
 *    raw frame pump (`send`/`next`) underneath it.
 *
 * Consumers in-tree: `msctool` (every verb's `--connect` path), the
 * mscd router's shard links, `daemon_smoke`, and `bench_daemon`.
 *
 * Thread-safety: a ClientConn is a single conversation — callers
 * serialize access (one thread, or an external lock). Distinct
 * ClientConns are fully independent.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/endpoint.h"
#include "report/json.h"
#include "runtime/budget.h"
#include "runtime/error.h"
#include "serve/frame.h"

namespace msc {
namespace client {

/**
 * Typed builder for one request payload. Verb constructors pin the
 * `kind`; fluent setters fill the optional fields the daemon
 * understands (unset fields are omitted, so server defaults apply —
 * docs/DAEMON.md documents each default).
 */
class RequestBuilder
{
  public:
    /// @name Verb constructors.
    /// @{
    static RequestBuilder run(std::string id, std::string workload);
    static RequestBuilder sweep(std::string id);
    static RequestBuilder trace(std::string id, std::string workload);
    static RequestBuilder cancel(std::string id, std::string target);
    static RequestBuilder stats(std::string id);
    /// @}

    /** Sets field @p key to @p value as given, unchecked: the peer's
     *  serve::parseRequest validates it. Every setter below is this
     *  with a typed value; msctool's flag table forwards the user's
     *  text through it, so the CLI and the wire reject a bad value
     *  with the same message. */
    RequestBuilder &set(const std::string &key, report::Json value);

    /// @name Grid axes (sweep: lists; run/trace: scalars).
    /// @{
    RequestBuilder &workloads(std::vector<std::string> names);
    RequestBuilder &strategies(std::vector<std::string> ids);
    RequestBuilder &pus(std::vector<unsigned> counts);
    RequestBuilder &strategy(const std::string &id)
    {
        return set("strategy", id);
    }
    RequestBuilder &pusCount(unsigned n) { return set("pus", n); }
    /// @}

    /// @name Shared knobs.
    /// @{
    RequestBuilder &smallScale(bool small)
    {
        return set("scale", small ? "small" : "full");
    }
    RequestBuilder &insts(uint64_t n) { return set("insts", n); }
    RequestBuilder &targets(unsigned n) { return set("targets", n); }
    RequestBuilder &inOrder(bool in_order)
    {
        return set("in_order", in_order);
    }
    RequestBuilder &sizeHeuristic(bool on) { return set("size", on); }

    /** Emits a `budget` object with every *nonzero* field of @p b
     *  (zero = unlimited = the protocol default, so it is omitted). */
    RequestBuilder &budget(const runtime::ExecBudget &b);

    /** Emits all four budget fields, zeros included. Exact
     *  propagation: a zero means "unlimited" and must override the
     *  peer's own default (the router uses this so shard-side
     *  defaults never alter a routed cell's outcome). */
    RequestBuilder &budgetExact(const runtime::ExecBudget &b);
    /// @}

    /** Trace: embed the full Perfetto document in the result frame. */
    RequestBuilder &includeTrace(bool on)
    {
        return set("include_trace", on);
    }

    /** Stats: "json" (default) or "prometheus". */
    RequestBuilder &format(const std::string &fmt)
    {
        return set("format", fmt);
    }

    const std::string &id() const { return _id; }

    /** The complete request object. */
    report::Json toJson() const;

    /** Compact serialization — the exact frame payload. */
    std::string payload() const { return toJson().dump(); }

  private:
    RequestBuilder(std::string id, const char *kind);

    std::string _id;
    report::Json _doc;
};

/** One decoded response frame. Typed fields cover what every caller
 *  switches on; `raw` is the whole frame for anything else. */
struct ResponseFrame
{
    enum class Type : uint8_t
    {
        Cell,     ///< One streamed sweep cell.
        Summary,  ///< Sweep/run terminator.
        Result,   ///< cancel / trace / stats terminator.
        Error,    ///< Structured failure terminator.
    };

    Type type = Type::Error;
    std::string id;  ///< Echoed request id.

    /// @name Cell fields.
    /// @{
    uint64_t index = 0;
    uint64_t total = 0;
    /** The byte-exact per-run object of the msc.sweep schema (feed
     *  these, in index order, to report::sweepDocFromRuns). */
    report::Json run;
    /// @}

    /// @name Summary fields.
    /// @{
    std::string status;  ///< "ok" | "failed" | "partial".
    int exitCode = 0;
    bool partial = false;
    uint64_t errors = 0;
    uint64_t runs = 0;
    int protocolVersion = 0;
    /** Router provenance (protocol v3; empty/absent when served
     *  directly): via == "router" and one per-shard cell count. */
    std::string via;
    std::vector<uint64_t> shards;
    /// @}

    /** Result: the `kind` member ("cancel" | "trace" | "stats"). */
    std::string resultKind;

    /** Error: the decoded `error` object. */
    runtime::StageErrorInfo error;

    /** The complete frame, undecoded. */
    report::Json raw;

    bool terminal() const { return type != Type::Cell; }

    /** True when this frame ends request @p req_id. */
    bool terminates(const std::string &req_id) const
    {
        return terminal() && id == req_id;
    }
};

/** Decodes one frame payload; throws runtime::StageError
 *  (ErrorKind::InvalidInput, stage "client") on anything that is not
 *  a well-formed response frame. */
ResponseFrame parseResponseFrame(const std::string &payload);

/**
 * A connected protocol peer: owns (or borrows) the byte stream, and
 * speaks frames.
 */
class ClientConn
{
  public:
    /** Connects to @p ep (Stdio wraps fds 0/1 unowned). */
    explicit ClientConn(const Endpoint &ep);

    /** Adopts an fd pair (@p own closes them on destruction; a socket
     *  passes the same fd twice and is closed once). */
    ClientConn(int fd_in, int fd_out, bool own);

    /** Borrows @p t (tests, in-process peers); caller keeps it alive
     *  and open. */
    explicit ClientConn(serve::Transport &t);

    ~ClientConn();

    ClientConn(const ClientConn &) = delete;
    ClientConn &operator=(const ClientConn &) = delete;

    /// @name Raw frame pump.
    /// @{
    void send(const RequestBuilder &req);
    void sendPayload(const std::string &payload);

    /** Reads and decodes the next response frame. Throws
     *  runtime::StageError (ErrorKind::Io, stage "client") when the
     *  stream ends or a frame is oversize/truncated. */
    ResponseFrame next();
    /// @}

    /**
     * The one-request/stream-responses lifecycle: sends @p req, then
     * reads frames until @p req's terminal frame (summary / result /
     * error) arrives and returns it. Every frame belonging to @p req
     * — including the terminal one — is first handed to @p onFrame
     * (nullable); frames of other in-flight requests on this
     * connection are skipped.
     */
    ResponseFrame
    call(const RequestBuilder &req,
         const std::function<void(const ResponseFrame &)> &onFrame = {});

    /**
     * Convenience for run/sweep: `call` plus in-order collection of
     * the cell `run` objects. On return, `runs[i]` is cell i (Null if
     * the request ended in an error frame before cell i arrived).
     */
    struct SweepOutcome
    {
        std::vector<report::Json> runs;
        ResponseFrame last;  ///< Summary, or the error that ended it.

        bool ok() const
        {
            return last.type == ResponseFrame::Type::Summary;
        }
    };

    SweepOutcome
    collectSweep(const RequestBuilder &req,
                 const std::function<void(const ResponseFrame &)>
                     &onFrame = {});

  private:
    serve::Transport &transport();

    std::unique_ptr<serve::FdTransport> _fdTransport;
    serve::Transport *_borrowed = nullptr;
    int _fdIn = -1;
    int _fdOut = -1;
    bool _own = false;
};

} // namespace client
} // namespace msc
