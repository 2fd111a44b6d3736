/**
 * @file
 * The mscd backend that executes requests locally.
 *
 * One Server owns one Dispatcher (worker pool + shared SessionPool +
 * optional on-disk artifact cache) and serves any number of
 * connections against it — identical program+option requests
 * coalesce onto one computation through the content-addressed stage
 * keys, whatever connection they arrive on.
 *
 * Connections, framing, the inline verbs, backpressure and telemetry
 * belong to the shared serve::Frontend (frontend.h); a Server is the
 * daemon shape behind it:
 *
 *  - `run`/`sweep` submit every cell to the Dispatcher; each cell's
 *    completion callback feeds a CellStream, which streams cells in
 *    input order and then one summary whose status/exit_code come
 *    from the shared report::sweepExitCode mapping;
 *  - `trace` runs as one job on the same worker pool, bypassing
 *    dedup (its sinks are a side effect);
 *  - `cancel` needs no relay: cells poll the request's token.
 *
 * No request owns a thread: per connection there is one reader and
 * one writer, plus the Dispatcher's fixed workers. Telemetry
 * (docs/OBSERVABILITY.md) lives under the `mscd.` prefix; the
 * Dispatcher adds its queue/cache instruments to the same registry.
 *
 * Nothing a peer sends can crash the process or leak a worker: cell
 * failures become error records (dispatch.h), protocol failures
 * become error frames, and write failures tear down only their own
 * connection.
 */

#pragma once

#include <memory>

#include "serve/dispatch.h"
#include "serve/frontend.h"

namespace msc {
namespace serve {

struct ServerConfig : FrontendConfig
{
    Dispatcher::Config dispatch;
};

class Server final : public Frontend
{
  public:
    explicit Server(ServerConfig cfg);

    Dispatcher &dispatcher() { return _dispatch; }

  private:
    void start(const std::shared_ptr<Call> &call) override;
    void cancel(Call &) override {}
    void runTrace(Call &call);

    // After the Frontend base: the dispatcher registers callback
    // gauges into its registry, which must outlive it.
    Dispatcher _dispatch;
};

} // namespace serve
} // namespace msc
