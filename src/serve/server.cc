#include "serve/server.h"

#include "obs/perfetto.h"
#include "obs/taskprof.h"
#include "obs/tracesink.h"
#include "workloads/workload.h"

namespace msc {
namespace serve {

namespace {

/** The server's registry/logger are injected into the dispatcher
 *  config before the dispatcher is constructed. */
Dispatcher::Config
withTelemetry(Dispatcher::Config cfg, obs::MetricsRegistry *metrics,
              obs::JsonLogger *log)
{
    cfg.metrics = metrics;
    cfg.log = log;
    return cfg;
}

} // anonymous namespace

Server::Server(ServerConfig cfg)
    : Frontend(cfg, "mscd"),
      _dispatch(withTelemetry(std::move(cfg.dispatch), &metrics(),
                              &log()))
{}

void
Server::start(const std::shared_ptr<Call> &call)
{
    const Request &req = call->request();
    if (req.kind == RequestKind::Trace) {
        _dispatch.post([this, call] {
            try {
                runTrace(*call);
            } catch (...) {
                call->fail(std::current_exception());
            }
        });
        return;
    }

    auto stream = std::make_shared<CellStream>(
        call, [this, id = req.id](const std::vector<std::string> &st) {
            // One consistent capture for the summary counters — not
            // two sequential reads racing concurrent requests.
            ServiceSnapshot snap = _dispatch.snapshot();
            return summaryFrame(id, st, snap.cache,
                                snap.dispatch.dedupHits);
        });
    for (size_t i = 0; i < req.specs.size(); ++i)
        _dispatch.submit(req.specs[i], call->cancelToken(), call->rid(),
                         [stream, i](const report::RunRecord &rec) {
                             stream->complete(i,
                                              report::runToJson(rec));
                         });
    call->dispatched(req.specs.size());
}

void
Server::runTrace(Call &call)
{
    // Trace cells bypass dedup: a sink is a side effect, so
    // pipeline::Session already bypasses the simulate memo for them —
    // coalescing two trace requests would lose one request's event
    // stream.
    report::RunSpec spec = call.request().specs.at(0);
    obs::PerfettoTraceWriter writer(spec.opts.config.numPUs,
                                    spec.workload);
    obs::TaskProfiler prof;
    obs::TeeSink tee({&writer, &prof});
    spec.opts.sink = &tee;
    spec.opts.cancel = call.cancelToken();

    auto session =
        _dispatch.pool().session(report::sessionKey(spec), [&] {
            return workloads::buildWorkload(spec.workload, spec.scale);
        });
    pipeline::StageResults res = session->runAll(spec.opts);
    report::RunRecord rec = report::recordFromResults(spec, res);
    rec.spec.opts.sink = nullptr;
    rec.spec.opts.cancel = nullptr;

    report::Json trace;
    if (call.request().includeTrace)
        trace = writer.toJson();
    call.finish(traceResultFrame(
        call.request().id, report::runToJson(rec),
        obs::taskProfileToJson(prof, res.partition->partition,
                               spec.workload),
        std::move(trace)));
}

} // namespace serve
} // namespace msc
