/**
 * @file
 * mscd request/response protocol: JSON payloads inside the length-
 * prefixed frames of frame.h. Schemas are documented field-by-field
 * in docs/DAEMON.md; this header is the single in-tree source of
 * truth for both directions.
 *
 * Requests are one JSON object per frame:
 *
 *   {"id": "...", "kind": "run|sweep|trace|cancel|stats", ...params}
 *
 * Every malformed payload — not UTF-8, not JSON, not an object,
 * wrong field types, unknown kind, out-of-range values — throws
 * runtime::StageError (ErrorKind::InvalidInput, stage "protocol"),
 * which the server turns into exactly one `error` response frame;
 * nothing a peer sends can crash the daemon or silently drop the
 * connection (docs/DAEMON.md, tests/test_mscd.cc).
 *
 * Responses echo the request id on every frame:
 *
 *   {"id", "type": "cell",    "index", "total", "run": {...}}
 *   {"id", "type": "summary", "status", "exit_code", "partial",
 *                             "errors", "runs", "cache", "dedup_hits"}
 *   {"id", "type": "result",  "kind": "cancel"|"trace", ...}
 *   {"id", "type": "error",   "error": {...}}
 *
 * The `run` object of a cell frame is byte-for-byte the per-run
 * object of the `msc.sweep` v2 schema (report::runToJson), and the
 * summary's status/exit_code pair is report::sweepExitCode over the
 * same records — so a sweep served by mscd can be reassembled into a
 * document byte-identical to `msctool sweep --json` output
 * (report::sweepDocFromRuns; proven end-to-end by the daemon_smoke
 * ctest target).
 */

#pragma once

#include <string>
#include <vector>

#include "pipeline/session.h"
#include "report/record.h"
#include "runtime/budget.h"

namespace msc {
namespace serve {

/** Protocol revision emitted in summary/result frames (v2 added the
 *  `stats` verb; v3 added optional router provenance — `via`/`shards`
 *  on summaries, `shard` on relayed cells. Every v1/v2 request
 *  remains valid: v3 changed no request field.) */
constexpr int PROTOCOL_VERSION = 3;

enum class RequestKind : uint8_t
{
    Run,     ///< One pipeline cell (a 1-cell sweep).
    Sweep,   ///< workload x strategy x PU grid, streamed per cell.
    Trace,   ///< One cell with Perfetto timeline + task profile.
    Cancel,  ///< Cancel an in-flight request by id.
    Stats,   ///< Live telemetry snapshot (`msc.metrics` document).
};

/** Stable lower-case verb name for @p k ("run", "sweep", ...), as
 *  used in request payloads and per-verb metric names. */
const char *verbName(RequestKind k);

/** Rendering of a `stats` result requested via the optional `format`
 *  field (default json). */
enum class StatsFormat : uint8_t
{
    Json,        ///< `metrics`: the msc.metrics v1 document.
    Prometheus,  ///< `prometheus`: text exposition as one string.
};

/** Upper bound on cells in one sweep request (DoS containment). */
constexpr size_t MAX_SWEEP_CELLS = 4096;

/** A validated, fully-resolved request. */
struct Request
{
    std::string id;
    RequestKind kind = RequestKind::Run;

    /** Run/Sweep/Trace: the resolved grid (Run/Trace: exactly one
     *  spec). Budgets are already merged (server default overridden
     *  by any per-request `budget` fields). */
    std::vector<report::RunSpec> specs;

    /** Trace: embed the full Perfetto document in the result frame. */
    bool includeTrace = false;

    /** Cancel: the id of the request to cancel. */
    std::string target;

    /** Stats: how to render the snapshot in the result frame. */
    StatsFormat statsFormat = StatsFormat::Json;
};

/** Server-side defaults merged into every parsed request. */
struct RequestDefaults
{
    /** Applied per cell unless the request's `budget` object
     *  overrides a field (docs/DAEMON.md). */
    runtime::ExecBudget budget;
};

/**
 * Parses and validates one request payload. Throws
 * runtime::StageError (ErrorKind::InvalidInput, stage "protocol") on
 * any malformed input; the thrown detail never embeds unbounded
 * peer-controlled bytes.
 */
Request parseRequest(const std::string &payload,
                     const RequestDefaults &defaults);

/**
 * Best-effort extraction of the `id` field from a payload that failed
 * full parsing, so error frames can still be correlated. Returns ""
 * when unavailable.
 */
std::string extractRequestId(const std::string &payload);

/// @name Response-frame builders. Each returns the complete frame
/// object; the server serializes with dump(0) (compact) — the
/// determinism of cell frames follows from report::Json determinism.
/// @{
/** @p shard >= 0 appends the owning shard's index (protocol v3;
 *  router-relayed cells only — direct daemons omit the field). The
 *  `run` object is identical either way: provenance rides on the
 *  frame envelope, never inside the byte-determinism contract. */
report::Json cellFrame(const std::string &id, size_t index,
                       size_t total, report::Json run,
                       int shard = -1);

/** The summary over the cells' `status` strings (`ok`/`error`, as
 *  in each run object): status/exit_code follow the
 *  report::sweepExitCode mapping. @p cache/@p dedup_hits are the
 *  pool-wide counters — outside the byte-determinism contract. */
report::Json summaryFrame(const std::string &id,
                          const std::vector<std::string> &statuses,
                          const pipeline::CacheStats &cache,
                          uint64_t dedup_hits);

/** The same summary over records. */
report::Json summaryFrame(const std::string &id,
                          const std::vector<report::RunRecord> &records,
                          const pipeline::CacheStats &cache,
                          uint64_t dedup_hits);

/**
 * The router's synthesized summary (protocol v3). Identical member
 * set and order to summaryFrame — status/exit_code derive from
 * @p statuses (the per-cell `status` strings of the relayed run
 * objects) through the same sweepExitCode mapping — plus two
 * provenance members: `via: "router"` and `shards`, the per-shard
 * relayed-cell counts. @p cache/@p dedup_hits aggregate the shards'
 * summary counters (like the direct counters, outside the
 * byte-determinism contract).
 */
report::Json routedSummaryFrame(
    const std::string &id, const std::vector<std::string> &statuses,
    const report::Json &cache, uint64_t dedup_hits,
    const std::vector<uint64_t> &shard_cells);

report::Json errorFrame(const std::string &id,
                        const runtime::StageErrorInfo &info);

report::Json cancelResultFrame(const std::string &id,
                               const std::string &target, bool found);

/** @p trace may be Null (omitted unless includeTrace). */
report::Json traceResultFrame(const std::string &id, report::Json run,
                              report::Json taskprof,
                              report::Json trace);

/** `stats` result carrying the msc.metrics document (StatsFormat::
 *  Json) — the `metrics` member is the document verbatim. */
report::Json statsResultFrame(const std::string &id,
                              report::Json metrics);

/** `stats` result carrying the Prometheus text exposition
 *  (StatsFormat::Prometheus) as the `prometheus` string member. */
report::Json statsResultFramePrometheus(const std::string &id,
                                        std::string text);
/// @}

/** True when @p s is well-formed UTF-8 (request payloads must be;
 *  the check keeps invalid bytes out of echoed response fields). */
bool utf8Valid(const std::string &s);

} // namespace serve
} // namespace msc
