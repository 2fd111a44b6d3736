/**
 * @file
 * msctool — command-line front end to the whole library.
 *
 *   msctool list
 *       List bundled workloads.
 *   msctool disasm <workload|file.mir>
 *       Print a program in the textual IR format (parseable back).
 *   msctool run <workload|file.mir> [--pus N] [--strategy bb|cf|dd]
 *               [--in-order] [--size] [--targets N] [--insts N]
 *               [--timeout-ms N] [--max-fuel N] [--max-cycles N]
 *       Full pipeline: transforms, profile, partition, simulate.
 *   msctool exec <workload|file.mir>
 *       Functional execution only; prints the checksum.
 *   msctool sweep [workloads...] [--strategy bb,cf,dd] [--pus 4,8]
 *               [--jobs N] [--json file] [--csv file] [--in-order]
 *               [--size] [--targets N] [--insts N] [--small]
 *               [--cache-dir DIR] [--timeout-ms N] [--max-fuel N]
 *               [--max-cycles N]
 *       Run a workload × strategy × PU grid (all bundled workloads
 *       when none are named), optionally in parallel, and emit the
 *       structured results (schema: docs/METRICS.md). Grid points
 *       share frontend artifacts through a SessionPool; --cache-dir
 *       persists them across invocations (docs/API.md). Failing
 *       cells are isolated: they print as ERROR rows and serialize
 *       as `status: "error"` objects in a `partial: true` document
 *       (docs/ROBUSTNESS.md). Exit code: 0 all cells ok, 1 all
 *       failed, 3 partial (some of each).
 *   msctool fuzz [--count N] [--seed S] [--jobs N] [--max-insts N]
 *               [--corpus-dir DIR] [--no-shrink] [--timeout-ms N]
 *               [--max-fuel N]
 *       Differential fuzzing: random programs through three
 *       independent oracles under every selection strategy
 *       (docs/TESTING.md). Nonzero exit on any divergence.
 *       --timeout-ms/--max-fuel bound each seed's whole differential;
 *       exhaustion records the seed as a `timeout` failure (written
 *       to --corpus-dir as timeout-seed<N>.mir, never shrunk)
 *       instead of hanging the campaign.
 *   msctool trace <workload|file.mir> [--out trace.json]
 *               [--taskprof prof.json] [--pus N] [--strategy bb|cf|dd]
 *               [--in-order] [--size] [--targets N] [--insts N]
 *               [--top N] [--phase-times] [--check]
 *       Full pipeline with task-lifecycle tracing: write a
 *       Perfetto/chrome://tracing timeline and a per-static-task
 *       msc.taskprof attribution profile, print the hot-tasks table
 *       (docs/TRACING.md). --check re-parses the emitted trace and
 *       verifies the span-vs-SimStats accounting invariant.
 *   msctool stats (--connect EP | --unix PATH | --tcp PORT | --stdio)
 *               [--json | --prom]
 *       Query a live mscd for its telemetry snapshot via the `stats`
 *       protocol verb (docs/OBSERVABILITY.md): counters, gauges, and
 *       latency histograms as a table, the raw `msc.metrics` JSON
 *       document (--json), or Prometheus text exposition (--prom).
 *   msctool cancel <request-id> --connect EP
 *       Ask a live daemon to cancel the in-flight request whose id is
 *       <request-id>; prints whether the target was found.
 *   msctool version
 *       Print the daemon protocol version and the schema versions of
 *       every structured document this build emits.
 *
 * Remote execution: `run`, `sweep`, `trace`, `stats`, and `cancel`
 * all accept `--connect unix:/path | tcp:host:port | tcp:port |
 * stdio` (src/client endpoint grammar, docs/API.md). With --connect
 * the work happens in the daemon at that endpoint — which may be a
 * `mscd --router` front-end — and the tool becomes a thin protocol
 * client rendering the streamed frames. With `stdio` the wire owns
 * this process's stdin/stdout (for piping through a spawned `mscd
 * --stdio`), so all rendering moves to stderr. Host-side flags
 * (--cache-dir, --jobs, --check, --phase-times) and `.mir` files
 * don't travel over the wire and are rejected with --connect.
 *
 * The other flags of run/sweep/trace fill the request a daemon would
 * get, and serve::parseRequest checks it before any work starts, so
 * local runs take the wire's ranges and messages (docs/DAEMON.md).
 * Host-side numbers parse through client::parseUInt.
 *
 * Files with a `.mir` extension are parsed with ir::parseProgram, so
 * hand-written programs work everywhere a workload name does
 * (locally).
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "arch/stats.h"
#include "client/cli.h"
#include "client/client.h"
#include "fuzz/campaign.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "obs/crosscheck.h"
#include "obs/metrics.h"
#include "obs/perfetto.h"
#include "obs/phase.h"
#include "obs/taskprof.h"
#include "pipeline/session.h"
#include "profile/interpreter.h"
#include "report/record.h"
#include "report/sweep.h"
#include "serve/protocol.h"
#include "workloads/workload.h"

using namespace msc;

namespace {

/** True for a `.mir` file name (parsed, not looked up as a
 *  workload). */
bool
isMirFile(const std::string &spec)
{
    return spec.size() > 4 &&
           spec.compare(spec.size() - 4, 4, ".mir") == 0;
}

ir::Program
loadProgram(const std::string &spec, workloads::Scale scale)
{
    if (isMirFile(spec)) {
        std::ifstream in(spec);
        if (!in)
            throw std::runtime_error("cannot open " + spec);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ir::parseProgram(ss.str());
    }
    return workloads::buildWorkload(spec, scale);
}

// ---------------------------------------------------------------------------
// Flags. Request flags copy the user's text into a client::Request-
// Builder, and serve::parseRequest checks the request exactly as a
// daemon would, so each field has one range and one message whether
// the work runs here or behind --connect. Host-side flags never enter
// the request.

/** The verbs taking request flags, as RequestFlag::verbs bits. */
constexpr unsigned RUN = 1, SWEEP = 2, TRACE = 4, ALL = 7;

/** How a request flag becomes a request field. */
enum class Form : uint8_t
{
    True,    ///< A switch: the field becomes true.
    Small,   ///< A switch: the field becomes "small".
    Number,  ///< An integer value.
    Name,    ///< A string value.
    Budget,  ///< An integer value inside the `budget` object.
};

struct RequestFlag
{
    const char *flag;
    unsigned verbs;  ///< The verbs accepting it.
    const char *field;
    Form form;
    /** Sweep: the list field a comma-separated value fills instead
     *  (null: one value into `field`, as for run and trace). */
    const char *sweepList = nullptr;
};

const RequestFlag REQUEST_FLAGS[] = {
    {"--pus", ALL, "pus", Form::Number, "pus"},
    {"--strategy", ALL, "strategy", Form::Name, "strategies"},
    {"--targets", ALL, "targets", Form::Number},
    {"--insts", ALL, "insts", Form::Number},
    {"--in-order", ALL, "in_order", Form::True},
    {"--size", ALL, "size", Form::True},
    {"--small", SWEEP, "scale", Form::Small},
    {"--timeout-ms", RUN | SWEEP, "timeout_ms", Form::Budget},
    {"--max-fuel", RUN | SWEEP, "max_fuel", Form::Budget},
    {"--max-cycles", RUN | SWEEP, "max_cycles", Form::Budget},
};

/** A host-side flag; exactly one target is set. */
struct HostFlag
{
    const char *flag;
    std::string *text = nullptr;  ///< Receives the value as given.
    uint64_t *number = nullptr;   ///< Receives the parseUInt'd value.
    uint64_t max = UINT64_MAX;    ///< Upper bound for `number`.
    bool *on = nullptr;           ///< A switch: set when present.
};

/** The wire value for a numeric flag: the integer its text spells,
 *  else the text itself, which the request parser then rejects with
 *  its own message. */
report::Json
wireNumber(const std::string &text)
{
    const char *end = text.data() + text.size();
    int64_t n = 0;
    auto [ptr, ec] = std::from_chars(text.data(), end, n);
    if (ec == std::errc() && ptr == end)
        return report::Json(n);
    return report::Json(text);
}

/** Splits "a,b,c" into {"a","b","c"}. */
std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/**
 * Parses @p argv: @p host flags into their targets, the request flags
 * @p verb accepts into @p req, bare words into @p words (null: a bare
 * word is an unknown flag). Throws on anything else.
 */
void
parseFlags(int argc, char **argv, std::initializer_list<HostFlag> host,
           client::RequestBuilder *req = nullptr, unsigned verb = 0,
           std::vector<std::string> *words = nullptr)
{
    report::Json budget = report::Json::object();
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                throw std::runtime_error(a + " needs a value");
            return argv[++i];
        };
        const HostFlag *hf = nullptr;
        for (const HostFlag &f : host)
            hf = a == f.flag ? &f : hf;
        if (hf) {
            if (hf->on)
                *hf->on = true;
            else if (hf->text)
                *hf->text = value();
            else
                *hf->number = client::parseUInt(hf->flag, value(),
                                                hf->max);
            continue;
        }
        const RequestFlag *rf = nullptr;
        for (const RequestFlag &f : REQUEST_FLAGS)
            rf = (f.verbs & verb) && a == f.flag ? &f : rf;
        if (!rf) {
            if (!words || a.rfind("--", 0) == 0)
                throw std::runtime_error("unknown flag " + a);
            words->push_back(a);
            continue;
        }
        if (rf->form == Form::True || rf->form == Form::Small) {
            req->set(rf->field, rf->form == Form::True
                                    ? report::Json(true)
                                    : report::Json("small"));
            continue;
        }
        const std::string text = value();
        auto one = [&](const std::string &item) {
            return rf->form == Form::Name ? report::Json(item)
                                          : wireNumber(item);
        };
        if (rf->form == Form::Budget) {
            budget[rf->field] = one(text);
        } else if (verb == SWEEP && rf->sweepList) {
            report::Json list = report::Json::array();
            for (const auto &item : splitList(text))
                list.push(one(item));
            req->set(rf->sweepList, std::move(list));
        } else {
            req->set(rf->field, one(text));
        }
    }
    if (budget.size())
        req->set("budget", std::move(budget));
}

/** The grid @p req resolves to, checked by the protocol's parser. */
std::vector<report::RunSpec>
requestSpecs(const client::RequestBuilder &req)
{
    return serve::parseRequest(req.payload(), {}).specs;
}

// ---------------------------------------------------------------------------
// Remote execution (--connect): every daemon-facing verb rides the
// src/client API; nothing below hand-rolls sockets or frames.

/** The parsed `--connect ENDPOINT` state of one invocation. */
struct Remote
{
    std::string spec;  ///< Raw endpoint text; empty = run locally.

    bool enabled() const { return !spec.empty(); }

    client::Endpoint endpoint() const
    {
        return client::parseEndpoint(spec);
    }

    /** Rendering stream: with a stdio endpoint the wire owns stdout,
     *  so human output moves to stderr. */
    std::FILE *out() const
    {
        return endpoint().kind == client::Endpoint::Kind::Stdio
                   ? stderr
                   : stdout;
    }

    /** Guards host-side flags that cannot travel over the wire. */
    void reject(bool present, const char *what) const
    {
        if (enabled() && present)
            throw std::runtime_error(std::string(what) +
                                     " is host-side; drop it or drop "
                                     "--connect");
    }
};

/** The header of the sweep table printRunRow fills. */
void
printRunHeader(std::FILE *out)
{
    std::fprintf(out, "%-28s %8s %9s %7s %7s %8s\n", "run", "IPC",
                 "cycles", "tasks", "tpred%", "span");
}

/** One sweep-table row from a `run` object of the msc.sweep schema:
 *  a local record's report::runToJson, or a daemon's cell. */
void
printRunRow(std::FILE *out, const report::Json &run)
{
    const std::string &id = run.get("id").asString();
    if (run.get("status").asString() == "ok") {
        const report::Json &m = run.get("metrics");
        std::fprintf(out, "%-28s %8.3f %9llu %7llu %7.2f %8.0f\n",
                     id.c_str(), m.get("ipc").asDouble(),
                     (unsigned long long)m.get("cycles").asUInt(),
                     (unsigned long long)
                         m.get("tasks").get("dyn_tasks").asUInt(),
                     m.get("prediction")
                         .get("task_mispredict_pct")
                         .asDouble(),
                     m.get("window_span").get("measured").asDouble());
    } else {
        std::fprintf(
            out, "%-28s ERROR %s\n", id.c_str(),
            report::errorFromJson(run.get("error")).render().c_str());
    }
}

/** Streams one run/sweep request over @p remote: rows print as cell
 *  frames arrive, @p json_path (optional) receives the reassembled
 *  msc.sweep document, and the daemon summary maps straight onto the
 *  local sweep exit-code contract (0 clean / 1 all failed /
 *  3 partial). */
int
streamRemoteSweep(const Remote &remote,
                  const client::RequestBuilder &req,
                  const std::string &json_path)
{
    std::FILE *out = remote.out();
    client::ClientConn conn(remote.endpoint());
    printRunHeader(out);
    client::ClientConn::SweepOutcome sw = conn.collectSweep(
        req, [&](const client::ResponseFrame &f) {
            if (f.type == client::ResponseFrame::Type::Cell) {
                printRunRow(out, f.run);
                std::fflush(out);  // rows stream even through a pipe
            }
        });
    if (!sw.ok()) {
        std::fprintf(stderr, "msctool: request failed: %s\n",
                     sw.last.error.render().c_str());
        return 1;
    }
    if (sw.last.via == "router")
        std::fprintf(stderr, "sweep: routed across %zu shards\n",
                     sw.last.shards.size());
    if (sw.last.errors)
        std::fprintf(stderr,
                     "sweep: %llu of %llu runs failed (results are "
                     "partial)\n",
                     (unsigned long long)sw.last.errors,
                     (unsigned long long)sw.last.runs);
    if (!json_path.empty()) {
        size_t n = sw.runs.size();
        report::writeFile(
            json_path,
            report::sweepDocFromRuns(std::move(sw.runs)).dump(2));
        std::fprintf(stderr, "sweep: wrote %zu runs to %s\n", n,
                     json_path.c_str());
    }
    return sw.last.exitCode;
}

int
cmdList()
{
    std::printf("%-10s %-14s %s\n", "name", "models", "suite");
    for (const auto &w : workloads::allWorkloads())
        std::printf("%-10s %-14s %s\n", w.name.c_str(),
                    w.models.c_str(), w.isFp ? "fp" : "int");
    return 0;
}

int
cmdDisasm(const std::string &spec)
{
    ir::Program p = loadProgram(spec, workloads::Scale::Small);
    std::printf("%s", ir::toString(p).c_str());
    return 0;
}

int
cmdExec(const std::string &spec)
{
    ir::Program p = loadProgram(spec, workloads::Scale::Small);
    profile::Interpreter in(p);
    uint64_t n = in.runQuiet();
    std::printf("%s: %llu instructions, halted=%d, checksum mem[0]=%lld\n",
                spec.c_str(), (unsigned long long)n, in.halted(),
                (long long)in.mem(0));
    return in.halted() ? 0 : 1;
}

int
cmdRun(int argc, char **argv)
{
    const std::string spec = argv[0];
    client::RequestBuilder req =
        client::RequestBuilder::run("run-cli", spec);
    req.smallScale(true).insts(400'000);  // run's defaults
    std::string cache_dir;
    Remote remote;
    parseFlags(argc - 1, argv + 1,
               {{.flag = "--cache-dir", .text = &cache_dir},
                {.flag = "--connect", .text = &remote.spec}},
               &req, RUN);
    const report::RunSpec sp = requestSpecs(req).at(0);
    if (remote.enabled()) {
        remote.reject(!cache_dir.empty(), "--cache-dir");
        remote.reject(isMirFile(spec), "a .mir file");
        return streamRemoteSweep(remote, req, "");
    }
    const pipeline::StageOptions &o = sp.opts;

    pipeline::Session session(loadProgram(spec, sp.scale),
                              pipeline::SessionConfig{cache_dir});
    pipeline::StageResults r = session.runAll(o);
    const tasksel::TaskPartition &partition = r.partition->partition;
    const arch::SimStats &st = r.sim->stats;
    std::printf("%s | %s tasks | %u %s PUs | N=%u%s\n", spec.c_str(),
                tasksel::strategyName(o.sel.strategy), o.config.numPUs,
                o.config.outOfOrder ? "out-of-order" : "in-order",
                o.sel.maxTargets,
                o.sel.taskSizeHeuristic ? " | +size" : "");
    std::printf("  static tasks %zu (avg %.1f insts), unrolled %u, "
                "hoisted %u, included calls %zu\n",
                partition.size(), partition.avgStaticSize(),
                r.transformed->loopsUnrolled, r.transformed->ivsHoisted,
                partition.includedCalls.size());
    std::printf("  IPC %.3f | %llu cycles | %llu insts | %llu tasks "
                "(avg %.1f)\n",
                st.ipc(), (unsigned long long)st.cycles,
                (unsigned long long)st.retiredInsts,
                (unsigned long long)st.dynTasks, st.avgTaskSize());
    std::printf("  task mispred %.2f%% | branch mispred %.2f%% | "
                "mem violations %llu | window span %.0f\n",
                st.taskMispredictPct(),
                st.branchPredictions
                    ? 100.0 * double(st.branchMispredictions) /
                          double(st.branchPredictions)
                    : 0.0,
                (unsigned long long)st.memViolations,
                st.measuredWindowSpan);
    std::printf("%s", arch::formatBuckets(st).c_str());
    return 0;
}

int
cmdSweep(int argc, char **argv)
{
    client::RequestBuilder req =
        client::RequestBuilder::sweep("sweep-cli");
    std::vector<std::string> names;
    uint64_t jobs = 0;  // default: all cores
    std::string json_path, csv_path, cache_dir;
    Remote remote;
    parseFlags(argc, argv,
               {{.flag = "--jobs", .number = &jobs,
                 .max = client::MAX_JOBS},
                {.flag = "--json", .text = &json_path},
                {.flag = "--csv", .text = &csv_path},
                {.flag = "--cache-dir", .text = &cache_dir},
                {.flag = "--connect", .text = &remote.spec}},
               &req, SWEEP, &names);
    if (!names.empty())
        req.workloads(names);  // else: the wire's default, all
    const std::vector<report::RunSpec> specs = requestSpecs(req);
    if (remote.enabled()) {
        remote.reject(!cache_dir.empty(), "--cache-dir");
        remote.reject(jobs != 0, "--jobs");
        remote.reject(!csv_path.empty(), "--csv");
        return streamRemoteSweep(remote, req, json_path);
    }

    report::SweepRunner runner{unsigned(jobs)};
    std::fprintf(stderr, "sweep: %zu runs on %u threads\n",
                 specs.size(), runner.jobs());
    pipeline::SessionPool pool(pipeline::SessionConfig{cache_dir});
    std::vector<report::RunRecord> records = runner.run(specs, pool);
    std::fprintf(stderr, "sweep: artifact cache: %s\n",
                 pool.stats().summary().c_str());

    printRunHeader(stdout);
    size_t failed = 0;
    for (const auto &r : records) {
        failed += !r.ok();
        printRunRow(stdout, report::runToJson(r));
    }
    if (failed)
        std::fprintf(stderr, "sweep: %zu of %zu runs failed "
                             "(results are partial)\n",
                     failed, records.size());

    if (!json_path.empty()) {
        report::writeFile(json_path,
                          report::sweepToJson(records).dump(2));
        std::fprintf(stderr, "sweep: wrote %zu runs to %s\n",
                     records.size(), json_path.c_str());
    }
    if (!csv_path.empty()) {
        report::writeFile(csv_path, report::sweepToCsv(records));
        std::fprintf(stderr, "sweep: wrote %zu runs to %s\n",
                     records.size(), csv_path.c_str());
    }
    return report::sweepExitCode(records);
}

int
cmdTrace(int argc, char **argv)
{
    const std::string spec = argv[0];
    client::RequestBuilder req =
        client::RequestBuilder::trace("trace-cli", spec);
    req.smallScale(true).insts(400'000);  // trace's defaults
    std::string out_path, prof_path;
    uint64_t top_n = 10;
    bool phase_spans = false, check = false;
    Remote remote;
    parseFlags(argc - 1, argv + 1,
               {{.flag = "--out", .text = &out_path},
                {.flag = "--taskprof", .text = &prof_path},
                {.flag = "--top", .number = &top_n, .max = UINT32_MAX},
                {.flag = "--connect", .text = &remote.spec},
                {.flag = "--phase-times", .on = &phase_spans},
                {.flag = "--check", .on = &check}},
               &req, TRACE);
    const report::RunSpec sp = requestSpecs(req).at(0);
    if (remote.enabled()) {
        remote.reject(check, "--check");
        remote.reject(phase_spans, "--phase-times");
        remote.reject(isMirFile(spec), "a .mir file");
        req.includeTrace(!out_path.empty());
        client::ClientConn conn(remote.endpoint());
        client::ResponseFrame last = conn.call(req);
        if (last.type == client::ResponseFrame::Type::Error) {
            std::fprintf(stderr, "msctool: trace failed: %s\n",
                         last.error.render().c_str());
            return 1;
        }
        std::FILE *out = remote.out();
        printRunHeader(out);
        printRunRow(out, last.raw.get("run"));
        if (!out_path.empty()) {
            report::writeFile(out_path,
                              last.raw.get("trace").dump());
            std::fprintf(stderr, "trace: wrote %s\n",
                         out_path.c_str());
        }
        if (!prof_path.empty()) {
            report::writeFile(prof_path,
                              last.raw.get("taskprof").dump(2));
            std::fprintf(stderr, "trace: wrote %s\n",
                         prof_path.c_str());
        }
        // The hot-task table stays host-side (it needs the partition
        // object); the taskprof file carries the per-task data.
        return 0;
    }
    pipeline::StageOptions o = sp.opts;
    const unsigned pus = o.config.numPUs;

    obs::PerfettoTraceWriter writer(pus, spec);
    obs::TaskProfiler prof;
    obs::SpanAccounting xcheck(pus);
    obs::TeeSink tee({&writer, &prof, &xcheck});
    obs::PhaseTimes phases;
    o.sink = &tee;
    o.phaseTimes = &phases;

    pipeline::Session session(loadProgram(spec, sp.scale));
    pipeline::StageResults res = session.runAll(o);
    const tasksel::TaskPartition &partition = res.partition->partition;
    const arch::SimStats &st = res.sim->stats;

    // Host-time breakdown goes to stderr (and, on request, into the
    // trace file) — never into structured result documents.
    std::fprintf(stderr, "pipeline wall-clock phases:\n%s",
                 obs::formatPhaseTimes(phases).c_str());
    if (phase_spans)
        writer.addPhaseSpans(phases);

    std::printf("%s | %s tasks | %u %s PUs | %llu cycles | IPC %.3f\n",
                spec.c_str(), tasksel::strategyName(o.sel.strategy),
                pus, o.config.outOfOrder ? "out-of-order" : "in-order",
                (unsigned long long)st.cycles, st.ipc());
    std::printf("%s", arch::formatBuckets(st).c_str());
    std::printf("hot static tasks (of %zu in partition):\n%s",
                partition.size(),
                obs::formatHotTasks(prof, partition, unsigned(top_n))
                    .c_str());

    if (!out_path.empty()) {
        writer.write(out_path);
        std::fprintf(stderr, "trace: wrote %s\n", out_path.c_str());
    }
    if (!prof_path.empty()) {
        report::writeFile(
            prof_path,
            obs::taskProfileToJson(prof, partition, spec).dump(2));
        std::fprintf(stderr, "trace: wrote %s\n", prof_path.c_str());
    }

    if (!check)
        return 0;

    // The timeline must BE the accounting: live event sums first,
    // then the emitted JSON re-parsed and re-summed per PU.
    std::string err = xcheck.verify(st);
    if (!err.empty()) {
        std::fprintf(stderr,
                     "trace: accounting cross-check FAILED: %s\n",
                     err.c_str());
        return 1;
    }

    std::string text;
    if (out_path.empty()) {
        text = writer.str();
    } else {
        std::ifstream in(out_path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    report::Json doc = report::Json::parse(text);
    const report::Json &events = doc.get("traceEvents");
    std::vector<uint64_t> per_pu(pus, 0);
    for (size_t i = 0; i < events.size(); ++i) {
        const report::Json &e = events.at(i);
        const std::string &ph = e.get("ph").asString();
        if (e.get("ts").asDouble() < 0 ||
            (e.find("dur") && e.get("dur").asDouble() < 0))
            throw std::runtime_error("negative ts/dur in trace event");
        if (ph != "X" ||
            e.get("pid").asInt() != obs::PerfettoTraceWriter::PID_SIM)
            continue;
        per_pu.at(size_t(e.get("tid").asInt())) += e.get("dur").asUInt();
    }
    for (unsigned pu = 0; pu < pus; ++pu) {
        if (per_pu[pu] != st.puOccupiedCycles[pu]) {
            std::fprintf(stderr,
                         "trace: emitted file cross-check FAILED: PU %u "
                         "spans %llu != accounted %llu\n",
                         pu, (unsigned long long)per_pu[pu],
                         (unsigned long long)st.puOccupiedCycles[pu]);
            return 1;
        }
    }
    std::fprintf(stderr,
                 "trace: accounting cross-check passed (%zu events, "
                 "%u PUs)\n",
                 events.size(), pus);
    return 0;
}

int
cmdFuzz(int argc, char **argv)
{
    fuzz::CampaignOptions o;
    uint64_t jobs = 0;  // default: all cores
    uint64_t wall_ms = 0;
    bool no_shrink = false, quiet = false;
    parseFlags(argc, argv,
               {{.flag = "--count", .number = &o.count},
                {.flag = "--seed", .number = &o.seedBase},
                {.flag = "--jobs", .number = &jobs,
                 .max = client::MAX_JOBS},
                {.flag = "--max-insts", .number = &o.maxInsts},
                {.flag = "--corpus-dir", .text = &o.corpusDir},
                {.flag = "--timeout-ms", .number = &wall_ms,
                 .max = UINT32_MAX},
                {.flag = "--max-fuel", .number = &o.budget.maxFuel},
                {.flag = "--no-shrink", .on = &no_shrink},
                {.flag = "--quiet", .on = &quiet}});
    o.jobs = unsigned(jobs);
    o.budget.wallMs = uint32_t(wall_ms);
    o.shrinkFailures = !no_shrink;

    report::SweepRunner pool(o.jobs);
    std::fprintf(stderr,
                 "fuzz: seeds [%llu, %llu) on %u threads, "
                 "%zu configs per seed\n",
                 (unsigned long long)o.seedBase,
                 (unsigned long long)(o.seedBase + o.count),
                 pool.jobs(), fuzz::defaultConfigs().size());

    fuzz::CampaignResult r = fuzz::runCampaign(o);

    if (!quiet) {
        for (const auto &f : r.failures) {
            std::printf("seed %llu: %s", (unsigned long long)f.seed,
                        fuzz::diffKindName(f.diff.kind));
            if (!f.diff.config.empty())
                std::printf(" [%s]", f.diff.config.c_str());
            if (!f.diff.detail.empty())
                std::printf(": %s", f.diff.detail.c_str());
            if (!f.reproPath.empty())
                std::printf(" -> %s", f.reproPath.c_str());
            std::printf("\n");
        }
    }
    std::printf("fuzz: %llu programs, %zu divergence%s\n",
                (unsigned long long)r.executed, r.failures.size(),
                r.failures.size() == 1 ? "" : "s");
    return r.ok() ? 0 : 1;
}

int
cmdVersion()
{
    std::printf("msctool protocol %d\n"
                "  %s schema v%d\n"
                "  %s schema v%d\n"
                "  %s schema v%d\n",
                serve::PROTOCOL_VERSION, report::SCHEMA_NAME,
                report::SCHEMA_VERSION, obs::TASKPROF_SCHEMA_NAME,
                obs::TASKPROF_SCHEMA_VERSION, obs::METRICS_SCHEMA_NAME,
                obs::METRICS_SCHEMA_VERSION);
    return 0;
}

/** Renders a `msc.metrics` document as a human table: counters and
 *  gauges name/value, histograms count/sum/mean. */
void
renderStatsTable(std::FILE *out, const report::Json &m)
{
    std::fprintf(out, "counters:\n");
    for (const auto &kv : m.get("counters").members())
        std::fprintf(out, "  %-40s %12llu\n", kv.first.c_str(),
                     (unsigned long long)kv.second.asUInt());
    std::fprintf(out, "gauges:\n");
    for (const auto &kv : m.get("gauges").members())
        std::fprintf(out, "  %-40s %12lld\n", kv.first.c_str(),
                     (long long)kv.second.asInt());
    std::fprintf(out, "histograms:%36s %12s %12s\n", "count", "sum",
                 "mean");
    for (const auto &kv : m.get("histograms").members()) {
        uint64_t count = kv.second.get("count").asUInt();
        double sum = kv.second.get("sum").asDouble();
        std::fprintf(out, "  %-40s %12llu %12.0f %12.1f\n",
                     kv.first.c_str(), (unsigned long long)count, sum,
                     count ? sum / double(count) : 0.0);
    }
}

int
cmdStats(int argc, char **argv)
{
    Remote remote;
    std::string unix_path, tcp_port;
    bool stdio = false, raw_json = false, prom = false;
    parseFlags(argc, argv,
               {{.flag = "--connect", .text = &remote.spec},
                {.flag = "--unix", .text = &unix_path},
                {.flag = "--tcp", .text = &tcp_port},
                {.flag = "--stdio", .on = &stdio},
                {.flag = "--json", .on = &raw_json},
                {.flag = "--prom", .on = &prom}});
    // Legacy spellings desugar onto the endpoint grammar.
    if (!unix_path.empty())
        remote.spec = "unix:" + unix_path;
    else if (!tcp_port.empty())
        remote.spec = "tcp:" + tcp_port;
    else if (stdio)
        remote.spec = "stdio";
    if (!remote.enabled())
        throw std::runtime_error(
            "stats needs one of --connect ENDPOINT, --unix PATH, "
            "--tcp PORT, --stdio");

    std::FILE *out = remote.out();
    client::ClientConn conn(remote.endpoint());
    client::RequestBuilder req =
        client::RequestBuilder::stats("stats-cli");
    if (prom)
        req.format("prometheus");

    client::ResponseFrame last = conn.call(req);
    if (last.type != client::ResponseFrame::Type::Result) {
        std::fprintf(stderr, "msctool: stats failed: %s\n",
                     last.error.render().c_str());
        return 1;
    }
    if (prom)
        std::fprintf(out, "%s",
                     last.raw.get("prometheus").asString().c_str());
    else if (raw_json)
        std::fprintf(out, "%s\n",
                     last.raw.get("metrics").dump(2).c_str());
    else
        renderStatsTable(out, last.raw.get("metrics"));
    return 0;
}

int
cmdCancel(int argc, char **argv)
{
    std::string target = argv[0];
    Remote remote;
    parseFlags(argc - 1, argv + 1,
               {{.flag = "--connect", .text = &remote.spec}});
    if (!remote.enabled())
        throw std::runtime_error("cancel needs --connect ENDPOINT");

    client::ClientConn conn(remote.endpoint());
    client::ResponseFrame last =
        conn.call(client::RequestBuilder::cancel("cancel-cli", target));
    if (last.type != client::ResponseFrame::Type::Result) {
        std::fprintf(stderr, "msctool: cancel failed: %s\n",
                     last.error.render().c_str());
        return 1;
    }
    bool found = last.raw.get("found").asBool();
    std::fprintf(remote.out(), "cancel %s: %s\n", target.c_str(),
                 found ? "delivered" : "no such in-flight request");
    return found ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        if (argc >= 2 && std::strcmp(argv[1], "list") == 0)
            return cmdList();
        if (argc >= 3 && std::strcmp(argv[1], "disasm") == 0)
            return cmdDisasm(argv[2]);
        if (argc >= 3 && std::strcmp(argv[1], "exec") == 0)
            return cmdExec(argv[2]);
        if (argc >= 3 && std::strcmp(argv[1], "run") == 0)
            return cmdRun(argc - 2, argv + 2);
        if (argc >= 2 && std::strcmp(argv[1], "sweep") == 0)
            return cmdSweep(argc - 2, argv + 2);
        if (argc >= 2 && std::strcmp(argv[1], "fuzz") == 0)
            return cmdFuzz(argc - 2, argv + 2);
        if (argc >= 3 && std::strcmp(argv[1], "trace") == 0)
            return cmdTrace(argc - 2, argv + 2);
        if (argc >= 2 && std::strcmp(argv[1], "stats") == 0)
            return cmdStats(argc - 2, argv + 2);
        if (argc >= 3 && std::strcmp(argv[1], "cancel") == 0)
            return cmdCancel(argc - 2, argv + 2);
        if (argc >= 2 && std::strcmp(argv[1], "version") == 0)
            return cmdVersion();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "msctool: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr,
                 "usage: msctool list\n"
                 "       msctool disasm <workload|file.mir>\n"
                 "       msctool exec   <workload|file.mir>\n"
                 "       msctool run    <workload|file.mir> [--pus N]\n"
                 "              [--strategy bb|cf|dd] [--in-order]\n"
                 "              [--size] [--targets N] [--insts N]\n"
                 "              [--cache-dir DIR] [--timeout-ms N]\n"
                 "              [--max-fuel N] [--max-cycles N]\n"
                 "       msctool sweep  [workloads...]\n"
                 "              [--strategy bb,cf,dd] [--pus 4,8]\n"
                 "              [--jobs N] [--json file] [--csv file]\n"
                 "              [--in-order] [--size] [--targets N]\n"
                 "              [--insts N] [--small] [--cache-dir DIR]\n"
                 "              [--timeout-ms N] [--max-fuel N]\n"
                 "              [--max-cycles N]\n"
                 "              exit: 0 clean, 1 all failed, 3 partial\n"
                 "       msctool fuzz   [--count N] [--seed S]\n"
                 "              [--jobs N] [--max-insts N]\n"
                 "              [--corpus-dir DIR] [--no-shrink]\n"
                 "              [--timeout-ms N] [--max-fuel N]\n"
                 "       msctool trace  <workload|file.mir>\n"
                 "              [--out trace.json] [--taskprof p.json]\n"
                 "              [--pus N] [--strategy bb|cf|dd]\n"
                 "              [--in-order] [--size] [--targets N]\n"
                 "              [--insts N] [--top N] [--phase-times]\n"
                 "              [--check]\n"
                 "       msctool stats  (--connect EP | --unix PATH |\n"
                 "              --tcp PORT | --stdio) [--json | --prom]\n"
                 "       msctool cancel <request-id> --connect EP\n"
                 "       msctool version\n"
                 "\n"
                 "run/sweep/trace/stats/cancel accept --connect\n"
                 "(unix:/path | tcp:host:port | tcp:port | stdio) to\n"
                 "execute in a live mscd or mscd --router instead of\n"
                 "in-process; either way the daemon protocol's\n"
                 "parser checks their values (docs/DAEMON.md).\n");
    return 2;
}
