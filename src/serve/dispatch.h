/**
 * @file
 * Request dispatch for mscd: a fixed-size worker pool executing sweep
 * cells against one shared pipeline::SessionPool, with in-flight
 * dedup keyed by the Session's content-addressed stage keys.
 *
 * Dedup semantics: submit() derives a cell's identity from
 * Session::stageKey(StageKind::Simulate, opts) — the exact key the
 * artifact cache uses, chaining the printed program bytes and every
 * option field any stage reads — plus the cell's budget (budgets are
 * deliberately outside artifact keys, but two requests with
 * different budgets may legitimately produce different *outcomes*,
 * so they must not coalesce). While a cell with that identity is
 * queued or executing, further submits join its waiter list: N
 * concurrent identical requests share one computation and receive
 * byte-identical records. Entries are
 * dropped on completion — long-term memoization belongs to the
 * Session artifact caches, which make a repeat after completion a
 * pure cache-hit replay.
 *
 * A deduped cell runs under the cancel token of the request that
 * FIRST submitted it; if that request is cancelled, followers
 * observe the same `cancelled` error record (docs/DAEMON.md).
 *
 * Fault containment: submit() never throws and a cell job never lets
 * an exception escape — unknown workloads, budget exhaustion,
 * cancellation and internal errors all become error records, exactly
 * as in report::SweepRunner. A request that dies takes no worker
 * thread with it.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/slog.h"
#include "pipeline/pool.h"
#include "report/record.h"
#include "runtime/budget.h"

namespace msc {
namespace serve {

/** Turns an escaping exception into a cell's error record, exactly
 *  as report::SweepRunner classifies sweep-cell failures. Shared by
 *  the Dispatcher (worker/submit failures) and the Router (shard
 *  loss, forwarding failures), so both paths emit records with the
 *  same shape and attribution. */
report::RunRecord errorRecord(const report::RunSpec &spec,
                              std::exception_ptr ep);

/** Dispatcher-level counters (cache traffic lives in
 *  pipeline::CacheStats; these count request coalescing). */
struct DispatchStats
{
    uint64_t cellsSubmitted = 0;  ///< submit() calls.
    uint64_t dedupHits = 0;       ///< Coalesced onto an in-flight cell.
};

/** The dispatcher-side counters of a summary frame, captured by one
 *  Dispatcher::snapshot() call instead of two racy reads: dedup
 *  counters freeze under the dispatcher lock (no submit or completion
 *  can slip between the two members), then the pool's cumulative
 *  cache counters are read under that same lock. Cells already
 *  *executing* may still move cache counters mid-snapshot — stopping
 *  the world is not worth it for telemetry — but the
 *  submit/complete/dedup bookkeeping and the cache totals can no
 *  longer disagree about which cells exist. */
struct ServiceSnapshot
{
    pipeline::CacheStats cache;
    DispatchStats dispatch;
};

class Dispatcher
{
  public:
    struct Config
    {
        /** Worker threads executing cells; 0 = hardware concurrency. */
        unsigned jobs = 0;

        /** Session configuration (on-disk cache dir) shared by every
         *  request. */
        pipeline::SessionConfig session;

        /** Telemetry registry (nullable = the no-op fast path: no
         *  gauge/counter traffic on the submit or worker paths). Must
         *  outlive the dispatcher; the dispatcher registers cache-
         *  counter callback gauges reading its own pool, so the
         *  registry must not be snapshotted after the dispatcher is
         *  destroyed. */
        obs::MetricsRegistry *metrics = nullptr;

        /** Structured request-lifecycle logger (nullable). */
        obs::JsonLogger *log = nullptr;
    };

    explicit Dispatcher(Config cfg);

    /** Joins the worker pool (pending cells still execute). */
    ~Dispatcher();

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    unsigned jobs() const { return unsigned(_workers.size()); }

    /** Completion callback of one cell: runs on the worker that
     *  finished it (or inline in submit() when the cell fails before
     *  reaching the pool). Must not block. */
    using CellDone = std::function<void(const report::RunRecord &)>;

    /**
     * Schedules @p spec on the worker pool; @p done receives the
     * record. @p cancel (nullable, must outlive @p done's call) is
     * polled by the cell's Governor. @p rid is the server-minted
     * RequestId of the submitting request, threaded to the worker
     * thread for cell-lifecycle log lines (a deduped cell keeps the
     * FIRST submitter's rid, matching whose cancel token it runs
     * under). Never throws; failures resolve to error records with
     * the workload attributed.
     */
    void submit(const report::RunSpec &spec,
                const runtime::CancelToken *cancel,
                const std::string &rid, CellDone done);

    /** submit() returning the record as a future. */
    std::shared_future<report::RunRecord>
    submit(const report::RunSpec &spec,
           const runtime::CancelToken *cancel,
           const std::string &rid = {});

    /** Queues @p job on the worker pool as-is — no dedup, no record
     *  (trace requests). The job must not throw. */
    void post(std::function<void()> job);

    /** The shared session pool. */
    pipeline::SessionPool &pool() { return _pool; }

    DispatchStats stats() const;

    /** One-call consistent capture of the summary-frame counters
     *  (see ServiceSnapshot) — use this, not stats() + pool().stats()
     *  back to back. */
    ServiceSnapshot snapshot() const;

  private:
    void workerLoop();

    static report::RunRecord
    executeCell(pipeline::Session &session, report::RunSpec spec,
                const runtime::CancelToken *cancel);

    pipeline::SessionPool _pool;

    /// @name Telemetry (null in the uninstrumented fast path).
    /// @{
    obs::JsonLogger *_log = nullptr;
    obs::Gauge *_queueDepth = nullptr;
    obs::Gauge *_workersBusy = nullptr;
    obs::Gauge *_cellsInflight = nullptr;
    obs::Counter *_cellsSubmitted = nullptr;
    obs::Counter *_dedupHits = nullptr;
    /// @}

    mutable std::mutex _mu;
    std::deque<std::function<void()>> _queue;
    std::condition_variable _cv;
    bool _stopping = false;
    std::vector<std::thread> _workers;

    /** Cell identity -> callbacks waiting on its computation. */
    std::unordered_map<uint64_t, std::vector<CellDone>> _inflight;
    DispatchStats _stats;
};

} // namespace serve
} // namespace msc
