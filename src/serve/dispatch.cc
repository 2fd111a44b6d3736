#include "serve/dispatch.h"

#include <chrono>

#include "pipeline/hash.h"
#include "runtime/error.h"
#include "workloads/workload.h"

namespace msc {
namespace serve {

namespace {

/** Key domain for dispatcher cell identities (distinct from the
 *  per-stage tags in pipeline/session.cc). */
constexpr uint64_t TAG_CELL = 0x6d73636463656c6cull;  // "mscdcell"

} // anonymous namespace

report::RunRecord
errorRecord(const report::RunSpec &spec, std::exception_ptr ep)
{
    report::RunRecord rec;
    rec.spec = spec;
    try {
        std::rethrow_exception(ep);
    } catch (const runtime::StageError &e) {
        rec.error = e.info();
    } catch (const std::exception &e) {
        rec.error.kind = runtime::ErrorKind::Internal;
        rec.error.detail = e.what();
    }
    if (rec.error.workload.empty())
        rec.error.workload = spec.workload;
    return rec;
}

Dispatcher::Dispatcher(Config cfg) : _pool(std::move(cfg.session))
{
    _log = cfg.log;
    if (cfg.metrics) {
        // Pre-registered so the worker/submit hot paths touch stable
        // atomics, never the registry mutex.
        _queueDepth = &cfg.metrics->gauge("mscd.dispatch.queue_depth");
        _workersBusy =
            &cfg.metrics->gauge("mscd.dispatch.workers_busy");
        _cellsInflight =
            &cfg.metrics->gauge("mscd.dispatch.cells_inflight");
        _cellsSubmitted =
            &cfg.metrics->counter("mscd.dispatch.cells_submitted");
        _dedupHits = &cfg.metrics->counter("mscd.dispatch.dedup_hits");
        // Cache traffic is owned by the pool's KeyedCaches; surface
        // it as snapshot-time callback gauges so the `stats` verb and
        // the summary frame can never drift apart on meaning.
        cfg.metrics->gaugeCallback("mscd.cache.computed", [this] {
            return int64_t(_pool.stats().computed());
        });
        cfg.metrics->gaugeCallback("mscd.cache.hits", [this] {
            return int64_t(_pool.stats().hits());
        });
        cfg.metrics->gaugeCallback("mscd.cache.disk_hits", [this] {
            return int64_t(_pool.stats().diskHits());
        });
    }

    unsigned n = cfg.jobs;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    _workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

Dispatcher::~Dispatcher()
{
    {
        std::lock_guard<std::mutex> lock(_mu);
        _stopping = true;
    }
    _cv.notify_all();
    for (auto &w : _workers)
        w.join();
}

void
Dispatcher::workerLoop()
{
    while (true) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lk(_mu);
            _cv.wait(lk,
                     [&] { return _stopping || !_queue.empty(); });
            if (_queue.empty())
                return;  // stopping and drained
            job = std::move(_queue.front());
            _queue.pop_front();
        }
        if (_queueDepth)
            _queueDepth->add(-1);
        if (_workersBusy)
            _workersBusy->add(1);
        job();
        if (_workersBusy)
            _workersBusy->add(-1);
    }
}

report::RunRecord
Dispatcher::executeCell(pipeline::Session &session,
                        report::RunSpec spec,
                        const runtime::CancelToken *cancel)
{
    spec.opts.cancel = cancel;
    report::RunRecord rec;
    try {
        rec = report::runSpec(spec, session);
    } catch (...) {
        rec = errorRecord(spec, std::current_exception());
    }
    // The token's lifetime ends with the request; never let the
    // record carry the dangling pointer out.
    rec.spec.opts.cancel = nullptr;
    return rec;
}

std::shared_future<report::RunRecord>
Dispatcher::submit(const report::RunSpec &spec,
                   const runtime::CancelToken *cancel,
                   const std::string &rid)
{
    auto prom = std::make_shared<std::promise<report::RunRecord>>();
    submit(spec, cancel, rid, [prom](const report::RunRecord &rec) {
        prom->set_value(rec);
    });
    return prom->get_future().share();
}

void
Dispatcher::submit(const report::RunSpec &spec,
                   const runtime::CancelToken *cancel,
                   const std::string &rid, CellDone done)
{
    // Resolve the cell's identity: the Session's own simulate-stage
    // key (program bytes + every option field any stage reads) plus
    // the budget, which is outside artifact keys by design but part
    // of a request's observable outcome.
    std::shared_ptr<pipeline::Session> session;
    uint64_t key;
    try {
        session = _pool.session(report::sessionKey(spec), [&] {
            return workloads::buildWorkload(spec.workload, spec.scale);
        });
        pipeline::Hasher h(TAG_CELL);
        h.word(session->stageKey(pipeline::StageKind::Simulate,
                                 spec.opts))
            .word(spec.opts.budget.maxFuel)
            .word(spec.opts.budget.maxSimCycles)
            .word(spec.opts.budget.maxHeapBytes)
            .word(uint64_t(spec.opts.budget.wallMs))
            .word(spec.opts.verifyPartition);
        key = h.digest();
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(_mu);
            ++_stats.cellsSubmitted;
            if (_cellsSubmitted)
                _cellsSubmitted->inc();
        }
        done(errorRecord(spec, std::current_exception()));
        return;
    }

    {
        std::lock_guard<std::mutex> lock(_mu);
        ++_stats.cellsSubmitted;
        if (_cellsSubmitted)
            _cellsSubmitted->inc();
        auto [it, fresh] = _inflight.try_emplace(key);
        it->second.push_back(std::move(done));
        if (!fresh) {
            ++_stats.dedupHits;
            if (_dedupHits)
                _dedupHits->inc();
            return;
        }
        if (_cellsInflight)
            _cellsInflight->add(1);
        _queue.push_back([this, session, spec, cancel, key, rid] {
            if (_log && _log->enabled()) {
                report::Json f = report::Json::object();
                f["rid"] = rid;
                f["run"] = spec.id;
                _log->event("cell.start", std::move(f));
            }
            auto t0 = std::chrono::steady_clock::now();
            report::RunRecord rec =
                executeCell(*session, spec, cancel);
            std::vector<CellDone> waiters;
            {
                std::lock_guard<std::mutex> lk(_mu);
                auto node = _inflight.extract(key);
                waiters = std::move(node.mapped());
            }
            if (_cellsInflight)
                _cellsInflight->add(-1);
            if (_log && _log->enabled()) {
                report::Json f = report::Json::object();
                f["rid"] = rid;
                f["run"] = spec.id;
                f["status"] = rec.ok() ? "ok" : "error";
                if (!rec.ok())
                    f["error_kind"] =
                        runtime::errorKindId(rec.error.kind);
                f["dur_us"] = uint64_t(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
                _log->event("cell.done", std::move(f));
            }
            for (auto &w : waiters)
                w(rec);
        });
        if (_queueDepth)
            _queueDepth->add(1);
    }
    _cv.notify_one();
}

void
Dispatcher::post(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(_mu);
        _queue.push_back(std::move(job));
        if (_queueDepth)
            _queueDepth->add(1);
    }
    _cv.notify_one();
}

DispatchStats
Dispatcher::stats() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _stats;
}

ServiceSnapshot
Dispatcher::snapshot() const
{
    // _mu freezes submit/dedup/complete bookkeeping while the pool's
    // cache counters are read (lock order _mu -> pool._mu, the same
    // order submit's callers establish; nothing takes them reversed).
    std::lock_guard<std::mutex> lock(_mu);
    ServiceSnapshot s;
    s.dispatch = _stats;
    s.cache = _pool.stats();
    return s;
}

} // namespace serve
} // namespace msc
