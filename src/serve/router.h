/**
 * @file
 * Shard-mode mscd: the hash-partitioning router front-end.
 *
 * A Router accepts the ordinary mscd protocol — same frames, same
 * verbs, same validation — and executes nothing itself. Each sweep
 * cell is forwarded as a single-cell `run` request to one of N
 * downstream shard daemons, chosen by the cell's content-addressed
 * identity: `Session::stageKey(Simulate, opts) % N`, the exact key
 * the shards' dispatchers dedup on. Identical cells therefore always
 * land on the same shard, so in-flight coalescing and the on-disk
 * artifact caches stay shard-local and hot — the router needs no
 * cache of its own (cf. hierarchical task dispatch in Myrmics, and
 * BDDT-SCC's explicit division of the keyspace across non-shared
 * workers; PAPERS.md).
 *
 * Reassembly: relayed cell frames carry the shard's `run` object
 * verbatim (plus a `shard` provenance field, protocol v3) and are
 * streamed to the client in grid order, so a routed sweep reassembles
 * into a `msc.sweep` document byte-identical to a single daemon's.
 * The summary is synthesized from the relayed statuses through the
 * same exit-code mapping, with `via: "router"` + per-shard cell
 * counts appended and the shards' cache counters aggregated.
 *
 * Failure containment mirrors the single daemon's: a shard that
 * cannot be reached (connect retry with backoff exhausted) or dies
 * mid-sweep fails only the cells assigned to it — each becomes an
 * `io` error record, the sweep completes `partial` with exit code 3,
 * and the other shards' cells are unaffected.
 *
 * The router is the second daemon shape behind the shared
 * serve::Frontend (frontend.h), which owns client connections,
 * framing errors, the inline verbs, backpressure and the `router.*`
 * front-end telemetry. What is left here is forwarding: start()
 * routes every cell on the reader thread and queues it on its shard
 * link, never touching a shard socket there. Each link has one
 * sender thread (connect with retry/backoff, then write the queued
 * frames in order) and one reader thread per connection, which
 * demultiplexes answers by id into the cells' callbacks (these only
 * queue frames, through the same CellStream as the daemon's).
 * cancel() relays a cancel for every cell the request still has in
 * flight. The router's `stats` verb serves its own registry, adding
 * `router.cells.*`, `router.cancels.forwarded` and per-shard
 * `router.shard.N.*` (docs/OBSERVABILITY.md); each shard's `stats`
 * verb still serves the shard's own.
 */

#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "client/endpoint.h"
#include "pipeline/pool.h"
#include "serve/frontend.h"

namespace msc {
namespace serve {

struct RouterConfig : FrontendConfig
{
    /** Downstream shard daemons, in shard-index order. */
    std::vector<client::Endpoint> shards;

    /** Connect retry policy per shard: up to @p connectAttempts
     *  attempts, sleeping attempt * connectBackoffMs between them.
     *  After a fully failed round, the link fails fast (one attempt
     *  per later cell) until a connect succeeds again. */
    unsigned connectAttempts = 5;
    unsigned connectBackoffMs = 20;
};

class Router final : public Frontend
{
  public:
    explicit Router(RouterConfig cfg);

    /** Joins every shard link's reader thread. */
    ~Router();

    size_t shardCount() const { return _links.size(); }

  private:
    class ShardLink;

    void start(const std::shared_ptr<Call> &call) override;
    void cancel(Call &call) override;
    void forwardTrace(const std::shared_ptr<Call> &call);

    /** Shard index for @p spec: Simulate stageKey % N (budget
     *  excluded — artifacts are budget-independent, so budget
     *  variants of a cell still colocate). Unroutable specs (unknown
     *  workload: there is no program to key) fall back to a stable
     *  name hash; every shard reports the identical error record. */
    unsigned shardOf(const report::RunSpec &spec);

    std::string nextCellId(char tag);

    RouterConfig _cfg;

    obs::Counter *_cellsFailed = nullptr;
    obs::Counter *_cancelsForwarded = nullptr;

    std::atomic<uint64_t> _cellSeq{0};

    /** Key-only pool: Sessions here just build + print the workload
     *  program to derive stage keys; no stage ever *runs* on the
     *  router, and SessionConfig{} means no disk cache. */
    pipeline::SessionPool _keys;

    std::vector<std::unique_ptr<ShardLink>> _links;
};

} // namespace serve
} // namespace msc
