/**
 * @file
 * The figure5 workload: one cold pass of the paper's full-scale
 * Figure-5 grid through report::SweepRunner with one job.
 *
 * Why: it is the paper's headline experiment, and timing simulation
 * is ~90% of its host time, so it moves with simulator and Session
 * changes and should not move with service-path changes.
 */

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "arch/processor.h"
#include "bench.h"
#include "fuzz/rng.h"
#include "obs/perfetto.h"
#include "pipeline/pool.h"
#include "report/record.h"
#include "report/sweep.h"
#include "workloads/workload.h"

using namespace msc;

namespace perfbench {

namespace {

constexpr uint64_t FULL_TRACE_INSTS = 250'000;

/** The 224 cells of bench_figure5: 18 analogs x bb/cf/dd (plus
 *  dd+size for compress and fpppp) x 4/8 PUs x OoO/in-order. */
std::vector<report::RunSpec>
grid()
{
    std::vector<report::RunSpec> specs;
    for (bool ooo : {true, false}) {
        for (unsigned pus : {4u, 8u}) {
            for (const std::string &n : analogs()) {
                for (auto s : {tasksel::Strategy::BasicBlock,
                               tasksel::Strategy::ControlFlow,
                               tasksel::Strategy::DataDependence})
                    specs.push_back(report::makeSpec(
                        n, s, pus, ooo, workloads::Scale::Full,
                        FULL_TRACE_INSTS));
                if (n == "compress" || n == "fpppp")
                    specs.push_back(report::makeSpec(
                        n, tasksel::Strategy::DataDependence, pus, ooo,
                        workloads::Scale::Full, FULL_TRACE_INSTS, true));
            }
        }
    }
    return specs;
}

/** The grid with its workloads in seeded order. Each workload's cells
 *  keep their grid order, so the same cell of each frontend group
 *  pays for the shared frontend whatever the seed, and every seed
 *  runs the same set of cell costs. */
std::vector<report::RunSpec>
seededGrid(uint64_t seed)
{
    std::vector<std::string> order = analogs();
    fuzz::Rng rng(seed);
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.bounded(i)]);
    const std::vector<report::RunSpec> all = grid();
    std::vector<report::RunSpec> specs;
    for (const std::string &w : order)
        for (const auto &spec : all)
            if (spec.workload == w)
                specs.push_back(spec);
    return specs;
}

std::string
refKey(const report::RunSpec &spec)
{
    return "figure5/" + spec.id;
}

/** A cold pool with every workload's Session (program built and
 *  hashed) already created: the work before the timed phase. */
std::unique_ptr<pipeline::SessionPool>
coldPool(const std::vector<report::RunSpec> &specs)
{
    auto pool = std::make_unique<pipeline::SessionPool>();
    for (const auto &spec : specs)
        pool->session(report::sessionKey(spec), [&] {
            return workloads::buildWorkload(spec.workload, spec.scale);
        });
    return pool;
}

struct Pass
{
    double wallS = 0;
    std::vector<double> cellUs;
    std::vector<report::RunRecord> records;
    pipeline::CacheStats cache;
};

/** One pass through SweepRunner::run; a cell's latency is the gap
 *  between consecutive progress callbacks. */
Pass
sweepPass(const std::vector<report::RunSpec> &specs,
          pipeline::SessionPool &pool)
{
    Pass p;
    p.cellUs.reserve(specs.size());
    report::SweepRunner runner(1);
    Clock::time_point t0 = Clock::now();
    Clock::time_point last = t0;
    p.records = runner.run(specs, pool, [&](size_t, size_t) {
        Clock::time_point now = Clock::now();
        p.cellUs.push_back(
            std::chrono::duration<double, std::micro>(now - last).count());
        last = now;
    });
    p.wallS = secondsSince(t0);
    p.cache = pool.stats();
    return p;
}

/**
 * The traced pass: the same cells, with the benchmark calling the
 * Session's five stage functions itself (in pipeline order, so each
 * span holds its own stage's compute and its upstream stages are
 * cache hits) and then the report layer's record + JSON calls.
 */
Pass
tracedPass(const std::vector<report::RunSpec> &specs,
           pipeline::SessionPool &pool, Ledger &l)
{
    Pass p;
    Clock::time_point t0 = Clock::now();
    uint32_t pass = l.begin("figure5.pass", 0, 0);
    for (size_t i = 0; i < specs.size(); ++i) {
        const report::RunSpec &spec = specs[i];
        const pipeline::StageOptions &o = spec.opts;
        Scope cell(l, "figure5.cell", pass, i + 1);
        auto session = pool.session(report::sessionKey(spec), [&] {
            return workloads::buildWorkload(spec.workload, spec.scale);
        });
        pipeline::StageResults r;
        {
            Scope s(l, "pipeline.transform", cell.id(), i + 1);
            r.transformed = session->transform(o);
        }
        {
            Scope s(l, "pipeline.profile", cell.id(), i + 1);
            r.profile = session->profile(o);
        }
        {
            Scope s(l, "pipeline.select", cell.id(), i + 1);
            r.partition = session->select(o);
        }
        {
            Scope s(l, "pipeline.trace", cell.id(), i + 1);
            r.trace = session->trace(o);
        }
        {
            Scope s(l, "pipeline.simulate", cell.id(), i + 1);
            r.sim = session->simulate(o);
        }
        Scope s(l, "report.record_json", cell.id(), i + 1);
        p.records.push_back(report::recordFromResults(spec, r));
        report::runToJson(p.records.back()).dump();
    }
    l.end(pass);
    p.wallS = secondsSince(t0);
    return p;
}

/** Checks every record against its reference; returns the ok count. */
uint64_t
checkRecords(const std::vector<report::RunRecord> &records,
             const Refs &refs)
{
    uint64_t ok = 0;
    for (const auto &r : records)
        if (r.ok() && refs.check(refKey(r.spec),
                                 report::runToJson(r).dump()))
            ++ok;
        else
            std::fprintf(stderr, "figure5: cell %s does not match its "
                                 "reference\n",
                         r.spec.id.c_str());
    return ok;
}

/** Simulate time with a PerfettoTraceWriter attached over simulate
 *  time without, on compress/dd/8pu/ooo (median of 3 each). */
double
perfettoSimRatio(pipeline::SessionPool &pool, Ledger &l)
{
    report::RunSpec spec = report::makeSpec(
        "compress", tasksel::Strategy::DataDependence, 8, true,
        workloads::Scale::Full, FULL_TRACE_INSTS);
    auto session = pool.session(report::sessionKey(spec), [&] {
        return workloads::buildWorkload(spec.workload, spec.scale);
    });
    auto trace = session->trace(spec.opts);
    const tasksel::TaskPartition &part = trace->partition->partition;
    const arch::SimConfig &cfg = spec.opts.config;
    std::vector<double> on, off;
    for (int i = 0; i < 3; ++i) {
        off.push_back(probeUs(l, "obs.sim_sink_off", 1, [&] {
            arch::simulate(part, trace->tasks, cfg);
        }));
        on.push_back(probeUs(l, "obs.sim_sink_on", 1, [&] {
            obs::PerfettoTraceWriter w(cfg.numPUs, spec.workload);
            arch::simulate(part, trace->tasks, cfg, &w);
        }));
    }
    return median(on) / median(off);
}

} // anonymous namespace

Result
runFigure5(const Options &o, Refs &refs)
{
    const std::vector<report::RunSpec> specs = seededGrid(o.seed);

    // Set-up is ~1 ms, so it is repeated and the median reported. The
    // first tens of ms of a process can run ~50% slow on the reference
    // host; 201 repeats keep that out of the median.
    std::vector<double> setup;
    std::unique_ptr<pipeline::SessionPool> pool;
    for (int i = 0; i < 201; ++i) {
        pool.reset();
        Clock::time_point t0 = Clock::now();
        pool = coldPool(specs);
        setup.push_back(secondsSince(t0));
    }

    Result res;
    Ledger l(o.trace);
    std::map<std::string, double> layer;

    // Whole passes, each on a cold pool, until --seconds have passed.
    std::vector<Pass> passes;
    double cpu0 = processCpuSeconds();
    Clock::time_point t0 = Clock::now();
    do {
        if (!pool)
            pool = coldPool(specs);
        passes.push_back(sweepPass(specs, *pool));
        pool.reset();
    } while (secondsSince(t0) < o.seconds);
    double cpuS = processCpuSeconds() - cpu0;

    double wall = 0;
    uint64_t retired = 0;
    std::vector<double> cellUs;
    for (const Pass &p : passes) {
        wall += p.wallS;
        cellUs.insert(cellUs.end(), p.cellUs.begin(), p.cellUs.end());
        res.attempted += p.records.size();
        uint64_t ok = checkRecords(p.records, refs);
        res.failed += p.records.size() - ok;
        for (const auto &r : p.records)
            retired += r.stats.retiredInsts;
    }
    res.correct = res.failed == 0;

    if (!o.trace) {
        double ops = double(res.attempted);
        res.add("setup_s", median(setup), "s");
        res.add("ops_per_s", ops / wall, "1/s");
        res.add("p50_us", quantile(cellUs, 0.50), "us");
        res.add("p95_us", quantile(cellUs, 0.95), "us");
        res.add("cpu_us_per_op", cpuS * 1e6 / ops, "us");
        res.add("sim_minsts_per_s", double(retired) / wall / 1e6,
                "Minst/s");
        res.add("peak_rss_mb", peakRssMb(), "MB");
        res.add("ok_rate", double(res.attempted - res.failed) / ops,
                "ratio");
        return res;
    }

    // Traced run: the untraced SweepRunner pass above gives the cache
    // counts and simulator statistics; a second, traced pass on a cold
    // pool gives the per-stage spans.
    const Pass &base = passes.front();
    layer["workloads.build_ms"] = probeUs(l, "workloads.build", 5, [&] {
        for (const std::string &n : analogs())
            workloads::buildWorkload(n, workloads::Scale::Full);
    }) / 1e3;

    pool = coldPool(specs);
    size_t spans0 = l.size();
    Pass traced = tracedPass(specs, *pool, l);
    layer["bench.trace_overhead_frac"] =
        double(l.size() - spans0) * spanCostNs() / (traced.wallS * 1e9);
    uint64_t ok = checkRecords(traced.records, refs);
    res.correct = res.correct && ok == traced.records.size();

    double stageNs = 0;
    for (size_t s = 0; s < pipeline::NUM_STAGES; ++s) {
        std::string name = pipeline::stageName(pipeline::StageKind(s));
        double ns = l.totalNs("pipeline." + name);
        stageNs += ns;
        layer["pipeline." + name + "_ms"] = ns / 1e6;
    }
    cacheDeltas({}, base.cache, layer);

    uint64_t cycles = 0, skipped = 0, insts = 0;
    for (const auto &r : base.records) {
        cycles += r.stats.cycles;
        skipped += r.stats.eventSkippedCycles;
        insts += r.stats.retiredInsts;
    }
    double simNs = l.totalNs("pipeline.simulate");
    layer["arch.sim_cycles"] = double(cycles);
    layer["arch.retired_insts"] = double(insts);
    layer["arch.skipped_cycle_frac"] = double(skipped) / double(cycles);
    layer["arch.ns_per_sim_cycle"] = simNs / double(cycles);
    layer["arch.ns_per_active_cycle"] = simNs / double(cycles - skipped);

    double cellNs = l.totalNs("figure5.cell");
    layer["report.sweep_overhead_ms"] = (cellNs - stageNs) / 1e6;
    layer["report.record_json_us"] =
        median(l.durationsNs("report.record_json")) / 1e3;
    // The pass's self time is what no cell span covers.
    layer["bench.attributed_frac"] =
        1 - l.selfNs("figure5.pass") / l.totalNs("figure5.pass");
    layer["obs.perfetto_sim_ratio"] = perfettoSimRatio(*pool, l);
    pool.reset();

    addLayerMetrics(res, layer);
    l.write(o.outDir + "/spans-figure5-" + std::to_string(o.seed) +
            ".json");
    return res;
}

void
genFigure5Refs(Refs &refs)
{
    std::vector<report::RunSpec> specs = grid();
    for (auto &s : specs)
        s.opts.config.coreMode = arch::CoreMode::Cycle;
    pipeline::SessionPool pool;
    for (const auto &r : report::SweepRunner(0).run(specs, pool)) {
        if (!r.ok())
            throw std::runtime_error("reference cell failed: " + r.spec.id);
        refs.set(refKey(r.spec), digest(report::runToJson(r).dump()));
    }
}

} // namespace perfbench
