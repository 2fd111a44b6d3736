/**
 * @file
 * Structured experiment records and their serialized forms.
 *
 * A RunSpec names one point of a sweep grid (workload + full
 * pipeline::StageOptions); a RunRecord is the flattened, owning result
 * of executing it — every metric a paper artifact needs, but not the
 * program or partition themselves, so thousands of records are cheap
 * to hold. `sweepToJson` / `sweepToCsv` serialize a record list into
 * the versioned schema documented field-by-field in docs/METRICS.md.
 *
 * Determinism contract: serialization depends only on the records —
 * no timestamps, hostnames or wall-clock — so a sweep emitted with
 * `--jobs 8` is byte-identical to `--jobs 1`, and a warm-cache run is
 * byte-identical to a cold one.
 */

#pragma once

#include <string>
#include <vector>

#include "arch/stats.h"
#include "pipeline/session.h"
#include "report/json.h"
#include "runtime/error.h"
#include "workloads/workload.h"

namespace msc {
namespace report {

/** Schema version emitted as `schema_version` (see docs/METRICS.md
 *  for the compatibility rule). v2 adds per-run `status`/`error` and
 *  the top-level `partial` marker (docs/ROBUSTNESS.md). */
constexpr int SCHEMA_VERSION = 2;

/** Schema identifier emitted as `schema`. */
constexpr const char *SCHEMA_NAME = "msc.sweep";

/** One grid point: everything needed to run a pipeline once. */
struct RunSpec
{
    /** Unique key within a sweep, e.g. "go/dd/8pu/ooo". */
    std::string id;

    /** Workload registry name (or the stem of a .mir file). */
    std::string workload;

    workloads::Scale scale = workloads::Scale::Full;

    pipeline::StageOptions opts;
};

/**
 * Builds the standard paper-configuration spec (the `runOne` shape
 * every bench uses): @p strategy tasks on @p pus PUs. The id is
 * derived as "workload/strategy/pusNpu/ooo|ino[-size][-tN]".
 */
RunSpec makeSpec(const std::string &workload, tasksel::Strategy strategy,
                 unsigned pus, bool out_of_order,
                 workloads::Scale scale, uint64_t trace_insts,
                 bool size_heur = false, unsigned max_targets = 4);

/** Flattened result of executing one RunSpec. */
struct RunRecord
{
    RunSpec spec;
    arch::SimStats stats;

    /// @name Partition shape (from the artifacts, sans the partition).
    /// @{
    uint64_t staticTasks = 0;
    double avgStaticInsts = 0;
    uint64_t includedCalls = 0;
    unsigned loopsUnrolled = 0;
    unsigned ivsHoisted = 0;
    uint64_t dynTasksCut = 0;
    /// @}

    /** Failure captured by the fault-isolating sweep (kind == None
     *  for a successful run; then stats/shape above are meaningless
     *  and the record serializes with status "error", no metrics). */
    runtime::StageErrorInfo error;

    bool ok() const { return error.kind == runtime::ErrorKind::None; }
};

/**
 * The SessionPool key for @p spec: specs agreeing on it run the same
 * input program, so they share one Session (and thus every frontend
 * artifact their options agree on).
 */
std::string sessionKey(const RunSpec &spec);

/** Executes @p spec against @p session (which must hold the workload
 *  @p spec names) and flattens the result. Thread-safe; frontend
 *  artifacts shared with every other spec run on the session. */
RunRecord runSpec(const RunSpec &spec, pipeline::Session &session);

/** Flattens already-computed stage artifacts into a record (the
 *  runSpec shape). For callers that need the artifacts themselves
 *  too — e.g. the mscd trace handler, which also serializes the
 *  partition's task profile. */
RunRecord recordFromResults(const RunSpec &spec,
                            const pipeline::StageResults &results);

/** Executes @p spec on a throwaway Session (builds the workload, runs
 *  the full pipeline) and flattens the result. Thread-safe. */
RunRecord runSpec(const RunSpec &spec);

/** Serializes one record to the schema's per-run object. */
Json runToJson(const RunRecord &r);

/** Serializes a StageErrorInfo to the v2 `error` object: kind id,
 *  stage, workload, detail, budget_exhausted, and (when nonzero)
 *  limit/used. Deterministic kinds produce byte-identical objects
 *  across runs (runtime/error.h). */
Json errorToJson(const runtime::StageErrorInfo &e);

/** Decodes an `error` object back into a StageErrorInfo — the one
 *  reader of errorToJson's output, for error frames and error rows
 *  alike. Lenient, as a protocol client must be: a missing or
 *  mistyped member, or an unknown kind id, leaves that field at its
 *  default. */
runtime::StageErrorInfo errorFromJson(const Json &e);

/** Serializes a whole sweep to the versioned top-level document.
 *  With any error records present, the document carries
 *  `partial: true` and those runs have `status: "error"`. */
Json sweepToJson(const std::vector<RunRecord> &records);

/**
 * Assembles the versioned top-level `msc.sweep` document from
 * already-serialized per-run objects (the `runs` array entries).
 * sweepToJson is exactly this over runToJson; the mscd smoke test
 * reassembles streamed cell frames through the same function, so
 * byte-identity between a daemon-served sweep and `msctool sweep
 * --json` holds by construction. `partial`/`errors` are derived from
 * each run's `status` field.
 */
Json sweepDocFromRuns(std::vector<Json> runs);

/** Serializes a whole sweep as CSV (header + one row per run), with
 *  the same fields flattened to dotted column names. The header is
 *  the union of all rows' columns in first-seen order, so mixed
 *  ok/error sweeps stay rectangular (missing cells are empty). */
std::string sweepToCsv(const std::vector<RunRecord> &records);

/// @name Sweep process exit codes (documented in msctool --help).
/// @{
constexpr int EXIT_SWEEP_CLEAN = 0;    ///< Every cell succeeded.
constexpr int EXIT_SWEEP_FAILED = 1;   ///< Every cell failed.
constexpr int EXIT_SWEEP_PARTIAL = 3;  ///< Mixed: valid partial output.
/// @}

/** Maps a record list to the exit codes above (empty sweeps are
 *  clean). */
int sweepExitCode(const std::vector<RunRecord> &records);

/** The same mapping from counts: @p failed of @p total cells failed.
 *  The daemon's summary frames use this over relayed cell statuses. */
int sweepExitCode(size_t failed, size_t total);

/** Stable name for a sweep exit code — "ok" (0), "failed" (1),
 *  "partial" (3) — as emitted in mscd summary frames. The daemon
 *  derives its summary `status` from sweepExitCode through this
 *  mapping, so daemon frames and `msctool sweep` exit codes cannot
 *  disagree (regression-pinned by tests/test_mscd.cc). Unknown codes
 *  return "?". */
const char *sweepStatusName(int exit_code);

/** Writes @p content to @p path; throws runtime::StageError
 *  (ErrorKind::Io) on failure. */
void writeFile(const std::string &path, const std::string &content);

/** Short name for @p s as used in ids and the schema ("bb", "cf",
 *  "dd"). */
const char *strategyId(tasksel::Strategy s);

/** Parses "bb" / "cf" / "dd"; throws runtime::StageError
 *  (ErrorKind::InvalidInput, stage @p stage) on anything else, echoing
 *  at most 64 bytes of @p id. */
tasksel::Strategy strategyFromId(const std::string &id,
                                 const char *stage = "cli");

} // namespace report
} // namespace msc
