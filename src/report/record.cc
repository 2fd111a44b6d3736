#include "report/record.h"

#include <fstream>
#include <stdexcept>

#include "arch/stats.h"

namespace msc {
namespace report {

const char *
strategyId(tasksel::Strategy s)
{
    switch (s) {
      case tasksel::Strategy::BasicBlock:     return "bb";
      case tasksel::Strategy::ControlFlow:    return "cf";
      case tasksel::Strategy::DataDependence: return "dd";
    }
    return "?";
}

tasksel::Strategy
strategyFromId(const std::string &id, const char *stage)
{
    if (id == "bb")
        return tasksel::Strategy::BasicBlock;
    if (id == "cf")
        return tasksel::Strategy::ControlFlow;
    if (id == "dd")
        return tasksel::Strategy::DataDependence;
    throw runtime::StageError(runtime::ErrorKind::InvalidInput, stage,
                              "unknown strategy \"" + id.substr(0, 64) +
                                  "\" (expected bb|cf|dd)");
}

RunSpec
makeSpec(const std::string &workload, tasksel::Strategy strategy,
         unsigned pus, bool out_of_order, workloads::Scale scale,
         uint64_t trace_insts, bool size_heur, unsigned max_targets)
{
    RunSpec s;
    s.workload = workload;
    s.scale = scale;
    tasksel::SelectionOptions sel;
    sel.strategy = strategy;
    sel.taskSizeHeuristic = size_heur;
    sel.maxTargets = max_targets;
    s.opts = pipeline::StageOptions::fromSelection(sel);
    s.opts.config = arch::SimConfig::paperConfig(pus, out_of_order);
    s.opts.config.maxTargets = max_targets;
    s.opts.trace.traceInsts = trace_insts;

    s.id = workload;
    s.id += '/';
    s.id += strategyId(strategy);
    s.id += '/';
    s.id += std::to_string(pus) + "pu/";
    s.id += out_of_order ? "ooo" : "ino";
    if (size_heur)
        s.id += "-size";
    if (max_targets != 4)
        s.id += "-t" + std::to_string(max_targets);
    return s;
}

std::string
sessionKey(const RunSpec &spec)
{
    return spec.workload +
           (spec.scale == workloads::Scale::Small ? "@small" : "@full");
}

RunRecord
recordFromResults(const RunSpec &spec,
                  const pipeline::StageResults &a)
{
    RunRecord r;
    r.spec = spec;
    r.stats = a.sim->stats;
    r.staticTasks = a.partition->partition.size();
    r.avgStaticInsts = a.partition->partition.avgStaticSize();
    r.includedCalls = a.partition->partition.includedCalls.size();
    r.loopsUnrolled = a.transformed->loopsUnrolled;
    r.ivsHoisted = a.transformed->ivsHoisted;
    r.dynTasksCut = a.trace->tasks.tasks.size();
    return r;
}

RunRecord
runSpec(const RunSpec &spec, pipeline::Session &session)
{
    return recordFromResults(spec, session.runAll(spec.opts));
}

RunRecord
runSpec(const RunSpec &spec)
{
    pipeline::Session session(std::make_shared<const ir::Program>(
        workloads::buildWorkload(spec.workload, spec.scale)));
    return runSpec(spec, session);
}

Json
errorToJson(const runtime::StageErrorInfo &e)
{
    Json err = Json::object();
    err["kind"] = runtime::errorKindId(e.kind);
    err["stage"] = e.stage;
    err["workload"] = e.workload;
    err["detail"] = e.detail;
    err["budget_exhausted"] = e.budgetExhausted();
    if (e.limit)
        err["limit"] = e.limit;
    if (e.used)
        err["used"] = e.used;
    return err;
}

runtime::StageErrorInfo
errorFromJson(const Json &e)
{
    auto text = [&](const char *key) {
        const Json *v = e.find(key);
        return v && v->kind() == Json::Kind::String ? v->asString()
                                                    : std::string();
    };
    auto count = [&](const char *key) {
        const Json *v = e.find(key);
        return v && v->kind() == Json::Kind::Int ? v->asUInt()
                                                 : uint64_t(0);
    };
    runtime::StageErrorInfo info;
    runtime::errorKindFromId(text("kind"), info.kind);
    info.stage = text("stage");
    info.workload = text("workload");
    info.detail = text("detail");
    info.limit = count("limit");
    info.used = count("used");
    return info;
}

Json
runToJson(const RunRecord &r)
{
    const arch::SimStats &s = r.stats;
    const arch::SimConfig &c = r.spec.opts.config;

    Json run = Json::object();
    run["id"] = r.spec.id;
    run["workload"] = r.spec.workload;
    run["status"] = r.ok() ? "ok" : "error";

    Json cfg = Json::object();
    cfg["strategy"] = strategyId(r.spec.opts.sel.strategy);
    cfg["pus"] = c.numPUs;
    cfg["out_of_order"] = c.outOfOrder;
    cfg["max_targets"] = r.spec.opts.sel.maxTargets;
    cfg["task_size_heuristic"] = r.spec.opts.sel.taskSizeHeuristic;
    cfg["scale"] =
        r.spec.scale == workloads::Scale::Small ? "small" : "full";
    cfg["trace_insts"] = r.spec.opts.trace.traceInsts;
    run["config"] = std::move(cfg);

    // Failed cells carry the error object and no metrics: every
    // metric field present in a v2 document is a real measurement.
    if (!r.ok()) {
        run["error"] = errorToJson(r.error);
        return run;
    }

    Json m = Json::object();
    m["cycles"] = s.cycles;
    m["retired_insts"] = s.retiredInsts;
    m["retired_tasks"] = s.retiredTasks;
    m["ipc"] = s.ipc();

    Json buckets = Json::object();
    for (size_t i = 0; i < arch::NUM_CYCLE_KINDS; ++i)
        buckets[arch::cycleKindId(arch::CycleKind(i))] =
            s.buckets.counts[i];
    m["cycle_breakdown"] = std::move(buckets);
    m["occupied_pu_cycles"] = s.buckets.total();
    m["idle_pu_cycles"] = s.idlePuCycles;

    Json pred = Json::object();
    pred["task_predictions"] = s.taskPredictions;
    pred["task_mispredictions"] = s.taskMispredictions;
    pred["task_mispredict_pct"] = s.taskMispredictPct();
    pred["per_branch_mispredict_pct"] = s.perBranchMispredictPct();
    pred["branch_predictions"] = s.branchPredictions;
    pred["branch_mispredictions"] = s.branchMispredictions;
    pred["branch_mispredict_pct"] = s.branchMispredictPct();
    m["prediction"] = std::move(pred);

    Json mem = Json::object();
    mem["violations"] = s.memViolations;
    mem["tasks_squashed_ctrl"] = s.tasksSquashedCtrl;
    mem["tasks_squashed_mem"] = s.tasksSquashedMem;
    mem["sync_stall_cycles"] = s.syncStallCycles;
    mem["arb_overflow_stalls"] = s.arbOverflowStalls;
    mem["l1i_accesses"] = s.l1iAccesses;
    mem["l1i_misses"] = s.l1iMisses;
    mem["l1d_accesses"] = s.l1dAccesses;
    mem["l1d_misses"] = s.l1dMisses;
    m["memory"] = std::move(mem);

    Json tasks = Json::object();
    tasks["dyn_tasks"] = s.dynTasks;
    tasks["avg_task_insts"] = s.avgTaskSize();
    tasks["avg_task_ctl_insts"] = s.avgTaskCtlInsts();
    tasks["dyn_tasks_cut"] = r.dynTasksCut;
    m["tasks"] = std::move(tasks);

    Json span = Json::object();
    span["measured"] = s.measuredWindowSpan;
    span["formula"] = s.formulaWindowSpan(c.numPUs);
    m["window_span"] = std::move(span);

    Json part = Json::object();
    part["static_tasks"] = r.staticTasks;
    part["avg_static_insts"] = r.avgStaticInsts;
    part["included_calls"] = r.includedCalls;
    part["loops_unrolled"] = r.loopsUnrolled;
    part["ivs_hoisted"] = r.ivsHoisted;
    m["partition"] = std::move(part);

    run["metrics"] = std::move(m);
    return run;
}

int
sweepExitCode(const std::vector<RunRecord> &records)
{
    size_t failed = 0;
    for (const auto &r : records)
        failed += !r.ok();
    return sweepExitCode(failed, records.size());
}

int
sweepExitCode(size_t failed, size_t total)
{
    if (failed == 0)
        return EXIT_SWEEP_CLEAN;
    if (failed == total)
        return EXIT_SWEEP_FAILED;
    return EXIT_SWEEP_PARTIAL;
}

const char *
sweepStatusName(int exit_code)
{
    switch (exit_code) {
      case EXIT_SWEEP_CLEAN:   return "ok";
      case EXIT_SWEEP_FAILED:  return "failed";
      case EXIT_SWEEP_PARTIAL: return "partial";
    }
    return "?";
}

Json
sweepDocFromRuns(std::vector<Json> runs)
{
    size_t failed = 0;
    for (const auto &r : runs) {
        const Json *status = r.find("status");
        failed += status && status->kind() == Json::Kind::String &&
                  status->asString() == "error";
    }

    Json doc = Json::object();
    doc["schema"] = SCHEMA_NAME;
    doc["schema_version"] = SCHEMA_VERSION;
    doc["partial"] = failed != 0;
    doc["errors"] = uint64_t(failed);
    Json arr = Json::array();
    for (auto &r : runs)
        arr.push(std::move(r));
    doc["runs"] = std::move(arr);
    return doc;
}

Json
sweepToJson(const std::vector<RunRecord> &records)
{
    std::vector<Json> runs;
    runs.reserve(records.size());
    for (const auto &r : records)
        runs.push_back(runToJson(r));
    return sweepDocFromRuns(std::move(runs));
}

namespace {

/** Appends the dotted column names / values of one run object. The
 *  CSV is defined as the flattening of the JSON schema, so the two
 *  stay in lockstep by construction. */
void
flatten(const Json &v, const std::string &prefix,
        std::vector<std::pair<std::string, std::string>> &out)
{
    if (v.kind() == Json::Kind::Object) {
        for (const auto &kv : v.members())
            flatten(kv.second,
                    prefix.empty() ? kv.first : prefix + "." + kv.first,
                    out);
        return;
    }
    // Scalars only below runs[] — dump() of a scalar is its CSV cell
    // (strings keep their quotes, which also escapes any commas).
    out.emplace_back(prefix, v.dump());
}

} // anonymous namespace

std::string
sweepToCsv(const std::vector<RunRecord> &records)
{
    // Error rows flatten to a different column set than ok rows
    // (error.* instead of metrics.*), so the header is the union of
    // every row's columns in first-seen order and missing cells are
    // left empty — the table stays rectangular for any ok/error mix.
    if (records.empty())
        return {};

    std::vector<std::vector<std::pair<std::string, std::string>>> rows;
    rows.reserve(records.size());
    std::vector<std::string> header;
    for (const auto &r : records) {
        rows.emplace_back();
        flatten(runToJson(r), "", rows.back());
        for (const auto &col : rows.back()) {
            bool known = false;
            for (const auto &h : header)
                known = known || h == col.first;
            if (!known)
                header.push_back(col.first);
        }
    }

    std::string out;
    for (size_t i = 0; i < header.size(); ++i) {
        if (i)
            out += ',';
        out += header[i];
    }
    out += '\n';
    for (const auto &cols : rows) {
        for (size_t i = 0; i < header.size(); ++i) {
            if (i)
                out += ',';
            for (const auto &col : cols) {
                if (col.first == header[i]) {
                    out += col.second;
                    break;
                }
            }
        }
        out += '\n';
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        throw runtime::StageError(runtime::ErrorKind::Io, "report",
                                  "cannot open " + path +
                                      " for writing");
    f << content;
    if (!f)
        throw runtime::StageError(runtime::ErrorKind::Io, "report",
                                  "write failed for " + path);
}

} // namespace report
} // namespace msc
