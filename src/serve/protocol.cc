#include "serve/protocol.h"

#include "arch/config.h"
#include "runtime/error.h"
#include "workloads/workload.h"

namespace msc {
namespace serve {

namespace {

/** Accepted range of "pus" (every value of a sweep's list). */
constexpr uint64_t MAX_PUS = 512;

/** Accepted range of "targets", the successors tracked per task. */
constexpr uint64_t MIN_TARGETS = 1;
constexpr uint64_t MAX_TARGETS = 64;

/** Accepted range of "insts": a cell traces at least one instruction. */
constexpr uint64_t MIN_INSTS = 1;

[[noreturn]] void
bad(const std::string &detail)
{
    throw runtime::StageError(runtime::ErrorKind::InvalidInput,
                              "protocol", detail);
}

const report::Json &
member(const report::Json &obj, const char *key)
{
    const report::Json *v = obj.find(key);
    if (!v)
        bad(std::string("missing required field \"") + key + "\"");
    return *v;
}

std::string
stringField(const report::Json &obj, const char *key)
{
    const report::Json &v = member(obj, key);
    if (v.kind() != report::Json::Kind::String)
        bad(std::string("field \"") + key + "\" must be a string");
    return v.asString();
}

bool
boolField(const report::Json &obj, const char *key, bool dflt)
{
    const report::Json *v = obj.find(key);
    if (!v)
        return dflt;
    if (v->kind() != report::Json::Kind::Bool)
        bad(std::string("field \"") + key + "\" must be a boolean");
    return v->asBool();
}

uint64_t
uintField(const report::Json &obj, const char *key, uint64_t dflt)
{
    const report::Json *v = obj.find(key);
    if (!v)
        return dflt;
    if (v->kind() != report::Json::Kind::Int || v->asInt() < 0)
        bad(std::string("field \"") + key +
            "\" must be a non-negative integer");
    return v->asUInt();
}

/** @p v (@p dflt when absent), checked to be an integer in
 *  [@p lo, @p hi] as the 64-bit number it was sent as, before any
 *  narrowing cast. A wrong type gets the same message as a wrong
 *  value. */
uint64_t
rangedValue(const report::Json *v, const char *what, uint64_t dflt,
            uint64_t lo, uint64_t hi)
{
    if (!v)
        return dflt;
    if (v->kind() != report::Json::Kind::Int || v->asDouble() < 0 ||
        v->asUInt() < lo || v->asUInt() > hi)
        bad(std::string(what) + " must be in [" + std::to_string(lo) +
            ", " + std::to_string(hi) + "]");
    return v->asUInt();
}

std::vector<std::string>
stringListField(const report::Json &obj, const char *key)
{
    std::vector<std::string> out;
    const report::Json *v = obj.find(key);
    if (!v)
        return out;
    if (v->kind() != report::Json::Kind::Array)
        bad(std::string("field \"") + key +
            "\" must be an array of strings");
    for (size_t i = 0; i < v->size(); ++i) {
        if (v->at(i).kind() != report::Json::Kind::String)
            bad(std::string("field \"") + key +
                "\" must be an array of strings");
        out.push_back(v->at(i).asString());
    }
    return out;
}

workloads::Scale
scaleField(const report::Json &obj)
{
    const report::Json *v = obj.find("scale");
    if (!v)
        return workloads::Scale::Full;
    if (v->kind() == report::Json::Kind::String) {
        if (v->asString() == "small")
            return workloads::Scale::Small;
        if (v->asString() == "full")
            return workloads::Scale::Full;
    }
    bad("field \"scale\" must be \"small\" or \"full\"");
}

runtime::ExecBudget
budgetField(const report::Json &obj, const runtime::ExecBudget &dflt)
{
    runtime::ExecBudget b = dflt;
    const report::Json *v = obj.find("budget");
    if (!v)
        return b;
    if (v->kind() != report::Json::Kind::Object)
        bad("field \"budget\" must be an object");
    b.wallMs = uint32_t(rangedValue(v->find("timeout_ms"),
                                    "\"budget.timeout_ms\"", b.wallMs,
                                    0, UINT32_MAX));
    b.maxFuel = uintField(*v, "max_fuel", b.maxFuel);
    b.maxSimCycles = uintField(*v, "max_cycles", b.maxSimCycles);
    b.maxHeapBytes = uintField(*v, "max_heap_bytes", b.maxHeapBytes);
    return b;
}

/** `core` is validated for compatibility and otherwise ignored: the
 *  event and cycle cores are byte-identical by contract
 *  (docs/PERFORMANCE.md), so the choice cannot change a result. */
void
checkCoreField(const report::Json &obj)
{
    const report::Json *v = obj.find("core");
    arch::CoreMode core;
    if (v && (v->kind() != report::Json::Kind::String ||
              !arch::parseCoreMode(v->asString().c_str(), core)))
        bad("field \"core\" must be \"cycle\" or \"event\"");
}

Request
parseImpl(const std::string &payload, const RequestDefaults &defaults)
{
    if (payload.empty())
        bad("zero-length frame (empty payload)");
    if (!utf8Valid(payload))
        bad("payload is not valid UTF-8");

    report::Json doc = report::Json::parse(payload);
    if (doc.kind() != report::Json::Kind::Object)
        bad("request payload must be a JSON object");

    Request req;
    req.id = stringField(doc, "id");
    if (req.id.empty() || req.id.size() > 256)
        bad("field \"id\" must be a non-empty string of at most "
            "256 bytes");

    std::string kind = stringField(doc, "kind");
    if (kind == "cancel") {
        req.kind = RequestKind::Cancel;
        req.target = stringField(doc, "target");
        if (req.target.empty() || req.target.size() > 256)
            bad("field \"target\" must be a non-empty string of at "
                "most 256 bytes");
        return req;
    }
    if (kind == "stats") {
        req.kind = RequestKind::Stats;
        const report::Json *fmt = doc.find("format");
        if (fmt) {
            if (fmt->kind() != report::Json::Kind::String ||
                (fmt->asString() != "json" &&
                 fmt->asString() != "prometheus"))
                bad("field \"format\" must be \"json\" or "
                    "\"prometheus\"");
            if (fmt->asString() == "prometheus")
                req.statsFormat = StatsFormat::Prometheus;
        }
        return req;
    }

    bool sweep = kind == "sweep";
    if (kind == "run") {
        req.kind = RequestKind::Run;
    } else if (sweep) {
        req.kind = RequestKind::Sweep;
    } else if (kind == "trace") {
        req.kind = RequestKind::Trace;
        req.includeTrace = boolField(doc, "include_trace", false);
    } else {
        bad("unknown request kind \"" + kind.substr(0, 64) +
            "\" (expected run|sweep|trace|cancel|stats)");
    }

    // Grid axes. Single-cell kinds take scalar fields (workload,
    // strategy, pus); sweep takes list fields with msctool sweep's
    // defaults so the same request text means the same grid in both
    // drivers.
    std::vector<std::string> names;
    std::vector<std::string> strategies;
    std::vector<uint64_t> pus;
    if (sweep) {
        names = stringListField(doc, "workloads");
        if (names.empty())
            for (const auto &w : workloads::allWorkloads())
                names.push_back(w.name);
        strategies = stringListField(doc, "strategies");
        if (strategies.empty())
            strategies = {"bb", "cf", "dd"};
        const report::Json *pv = doc.find("pus");
        if (!pv) {
            pus = {4, 8};
        } else {
            if (pv->kind() != report::Json::Kind::Array)
                bad("field \"pus\" must be an array of integers");
            for (size_t i = 0; i < pv->size(); ++i)
                pus.push_back(rangedValue(&pv->at(i), "\"pus\" values",
                                          0, 1, MAX_PUS));
        }
    } else {
        names.push_back(stringField(doc, "workload"));
        const report::Json *sv = doc.find("strategy");
        strategies.push_back(
            sv ? stringField(doc, "strategy") : std::string("dd"));
        pus.push_back(rangedValue(doc.find("pus"), "\"pus\" values", 4,
                                  1, MAX_PUS));
    }

    std::vector<tasksel::Strategy> strats;
    for (const auto &s : strategies)
        strats.push_back(report::strategyFromId(s, "protocol"));

    workloads::Scale scale = scaleField(doc);
    const uint64_t insts = rangedValue(doc.find("insts"), "\"insts\"",
                                       250'000, MIN_INSTS, UINT64_MAX);
    const uint64_t targets = rangedValue(doc.find("targets"), "\"targets\"",
                                         4, MIN_TARGETS, MAX_TARGETS);
    bool in_order = boolField(doc, "in_order", false);
    bool size_heur = boolField(doc, "size", false);
    checkCoreField(doc);
    runtime::ExecBudget budget = budgetField(doc, defaults.budget);

    size_t cells = names.size() * strats.size() * pus.size();
    if (cells == 0)
        bad("request resolves to an empty grid");
    if (cells > MAX_SWEEP_CELLS)
        bad("sweep grid of " + std::to_string(cells) +
            " cells exceeds the limit of " +
            std::to_string(MAX_SWEEP_CELLS));

    for (const auto &n : names)
        for (tasksel::Strategy s : strats)
            for (uint64_t p : pus) {
                report::RunSpec sp = report::makeSpec(
                    n, s, unsigned(p), !in_order, scale, insts,
                    size_heur, unsigned(targets));
                sp.opts.budget = budget;
                req.specs.push_back(std::move(sp));
            }
    return req;
}

} // anonymous namespace

const char *
verbName(RequestKind k)
{
    switch (k) {
      case RequestKind::Run: return "run";
      case RequestKind::Sweep: return "sweep";
      case RequestKind::Trace: return "trace";
      case RequestKind::Cancel: return "cancel";
      case RequestKind::Stats: return "stats";
    }
    return "unknown";
}

bool
utf8Valid(const std::string &s)
{
    size_t i = 0, n = s.size();
    while (i < n) {
        unsigned char c = (unsigned char)s[i];
        size_t len;
        uint32_t cp;
        if (c < 0x80) {
            ++i;
            continue;
        } else if ((c & 0xE0) == 0xC0) {
            len = 2;
            cp = c & 0x1F;
        } else if ((c & 0xF0) == 0xE0) {
            len = 3;
            cp = c & 0x0F;
        } else if ((c & 0xF8) == 0xF0) {
            len = 4;
            cp = c & 0x07;
        } else {
            return false;
        }
        if (i + len > n)
            return false;
        for (size_t k = 1; k < len; ++k) {
            unsigned char cc = (unsigned char)s[i + k];
            if ((cc & 0xC0) != 0x80)
                return false;
            cp = (cp << 6) | (cc & 0x3F);
        }
        // Overlong forms, surrogates, and out-of-range code points.
        if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
            (len == 4 && cp < 0x10000) ||
            (cp >= 0xD800 && cp <= 0xDFFF) || cp > 0x10FFFF)
            return false;
        i += len;
    }
    return true;
}

Request
parseRequest(const std::string &payload, const RequestDefaults &defaults)
{
    try {
        return parseImpl(payload, defaults);
    } catch (runtime::StageError &) {
        throw;
    } catch (const std::exception &e) {
        // Json::parse position errors and accessor kind mismatches
        // land here; their messages carry positions, not raw payload
        // bytes.
        throw runtime::StageError(runtime::ErrorKind::InvalidInput,
                                  "protocol",
                                  std::string("malformed request: ") +
                                      e.what());
    }
}

std::string
extractRequestId(const std::string &payload)
{
    try {
        report::Json doc = report::Json::parse(payload);
        if (doc.kind() != report::Json::Kind::Object)
            return {};
        const report::Json *id = doc.find("id");
        if (!id || id->kind() != report::Json::Kind::String ||
            id->asString().size() > 256 || !utf8Valid(id->asString()))
            return {};
        return id->asString();
    } catch (const std::exception &) {
        return {};
    }
}

report::Json
cellFrame(const std::string &id, size_t index, size_t total,
          report::Json run, int shard)
{
    report::Json f = report::Json::object();
    f["id"] = id;
    f["type"] = "cell";
    f["index"] = uint64_t(index);
    f["total"] = uint64_t(total);
    f["run"] = std::move(run);
    if (shard >= 0)
        f["shard"] = uint64_t(shard);
    return f;
}

namespace {

report::Json
summaryOf(const std::string &id,
          const std::vector<std::string> &statuses, report::Json cache,
          uint64_t dedup_hits)
{
    size_t failed = 0;
    for (const auto &s : statuses)
        failed += s != "ok";
    int exit_code = report::sweepExitCode(failed, statuses.size());

    report::Json f = report::Json::object();
    f["id"] = id;
    f["type"] = "summary";
    f["protocol_version"] = PROTOCOL_VERSION;
    f["status"] = report::sweepStatusName(exit_code);
    f["exit_code"] = exit_code;
    f["partial"] = failed != 0;
    f["errors"] = uint64_t(failed);
    f["runs"] = uint64_t(statuses.size());
    f["cache"] = std::move(cache);
    f["dedup_hits"] = dedup_hits;
    return f;
}

} // anonymous namespace

report::Json
summaryFrame(const std::string &id,
             const std::vector<std::string> &statuses,
             const pipeline::CacheStats &cache, uint64_t dedup_hits)
{
    // Cumulative pool-wide counters — deliberately OUTSIDE the
    // byte-determinism contract of cell frames (docs/DAEMON.md).
    report::Json c = report::Json::object();
    c["computed"] = cache.computed();
    c["hits"] = cache.hits();
    c["disk_hits"] = cache.diskHits();
    return summaryOf(id, statuses, std::move(c), dedup_hits);
}

report::Json
summaryFrame(const std::string &id,
             const std::vector<report::RunRecord> &records,
             const pipeline::CacheStats &cache, uint64_t dedup_hits)
{
    std::vector<std::string> statuses;
    statuses.reserve(records.size());
    for (const auto &r : records)
        statuses.push_back(r.ok() ? "ok" : "error");
    return summaryFrame(id, statuses, cache, dedup_hits);
}

report::Json
routedSummaryFrame(const std::string &id,
                   const std::vector<std::string> &statuses,
                   const report::Json &cache, uint64_t dedup_hits,
                   const std::vector<uint64_t> &shard_cells)
{
    report::Json f = summaryOf(id, statuses, cache, dedup_hits);
    f["via"] = "router";
    report::Json shards = report::Json::array();
    for (uint64_t n : shard_cells)
        shards.push(n);
    f["shards"] = std::move(shards);
    return f;
}

report::Json
errorFrame(const std::string &id, const runtime::StageErrorInfo &info)
{
    report::Json f = report::Json::object();
    f["id"] = id;
    f["type"] = "error";
    f["error"] = report::errorToJson(info);
    return f;
}

report::Json
cancelResultFrame(const std::string &id, const std::string &target,
                  bool found)
{
    report::Json f = report::Json::object();
    f["id"] = id;
    f["type"] = "result";
    f["kind"] = "cancel";
    f["target"] = target;
    f["found"] = found;
    return f;
}

report::Json
statsResultFrame(const std::string &id, report::Json metrics)
{
    report::Json f = report::Json::object();
    f["id"] = id;
    f["type"] = "result";
    f["kind"] = "stats";
    f["protocol_version"] = PROTOCOL_VERSION;
    f["metrics"] = std::move(metrics);
    return f;
}

report::Json
statsResultFramePrometheus(const std::string &id, std::string text)
{
    report::Json f = report::Json::object();
    f["id"] = id;
    f["type"] = "result";
    f["kind"] = "stats";
    f["protocol_version"] = PROTOCOL_VERSION;
    f["prometheus"] = std::move(text);
    return f;
}

report::Json
traceResultFrame(const std::string &id, report::Json run,
                 report::Json taskprof, report::Json trace)
{
    report::Json f = report::Json::object();
    f["id"] = id;
    f["type"] = "result";
    f["kind"] = "trace";
    f["run"] = std::move(run);
    f["taskprof"] = std::move(taskprof);
    if (!trace.isNull())
        f["trace"] = std::move(trace);
    return f;
}

} // namespace serve
} // namespace msc
