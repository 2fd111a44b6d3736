/**
 * @file
 * Smoke test for the sweep/report harness, registered as the
 * `bench_smoke` ctest target so the structured-results pipeline
 * cannot silently rot.
 *
 * Runs a tiny workload × strategy grid three times — serially and
 * with the requested --jobs under the --core simulator core, and
 * serially under the other core — then asserts that
 *
 *   1. the three JSON documents are byte-identical (the determinism
 *      contract of report/sweep.h and the cycle/event core contract
 *      of docs/PERFORMANCE.md),
 *   2. the emitted file parses back and carries the documented
 *      schema envelope (schema / schema_version / runs),
 *   3. every run has the top-level metric groups docs/METRICS.md
 *      promises, and the cycle breakdown sums to occupied_pu_cycles,
 *   4. the shared-frontend contract holds: a 2-strategy × 4-SimConfig
 *      sweep through a SessionPool computes exactly 2 of each
 *      frontend artifact (transform/profile/select/trace) and 8
 *      timing sims, and re-running the sweep on the warm pool is
 *      all cache hits with byte-identical output.
 *
 * Always runs at MSC_SMALL scale regardless of the environment: this
 * is a harness check, not a measurement.
 */

#include <cstdio>

#include "bench_common.h"

using namespace msc;
using namespace msc::bench;
using report::Json;

namespace {

std::vector<report::RunSpec>
tinyGrid()
{
    std::vector<report::RunSpec> specs;
    for (const char *w : {"compress", "tomcatv"})
        for (auto s : {tasksel::Strategy::BasicBlock,
                       tasksel::Strategy::DataDependence})
            specs.push_back(report::makeSpec(w, s, 2, true,
                                             workloads::Scale::Small,
                                             20'000));
    return specs;
}

int
failed(const char *what)
{
    std::fprintf(stderr, "bench_smoke: FAIL: %s\n", what);
    return 1;
}

/**
 * The ISSUE acceptance grid: 2 strategies × 4 hardware configs on one
 * workload. The strategies differ in the transform stage too (the
 * task-size heuristic unrolls loops), so every frontend stage must
 * compute exactly twice; the 4 SimConfigs per strategy reuse it.
 */
int
checkSharedFrontend(unsigned jobs, arch::CoreMode core)
{
    std::vector<report::RunSpec> specs;
    struct Strat
    {
        tasksel::Strategy s;
        bool size;
    };
    for (Strat st : {Strat{tasksel::Strategy::BasicBlock, false},
                     Strat{tasksel::Strategy::DataDependence, true}})
        for (unsigned pus : {2u, 4u})
            for (bool ooo : {false, true})
                specs.push_back(report::makeSpec(
                    "compress", st.s, pus, ooo,
                    workloads::Scale::Small, 20'000, st.size));
    for (auto &s : specs)
        s.opts.config.coreMode = core;

    pipeline::SessionPool pool;
    report::SweepRunner runner(jobs);
    auto cold = runner.run(specs, pool);
    std::string cold_json = report::sweepToJson(cold).dump(2);

    const pipeline::CacheStats stats = pool.stats();
    using SK = pipeline::StageKind;
    struct Want
    {
        SK stage;
        uint64_t computed;
    };
    for (Want w : {Want{SK::Transform, 2}, Want{SK::Profile, 2},
                   Want{SK::Select, 2}, Want{SK::Trace, 2},
                   Want{SK::Simulate, 8}}) {
        if (stats[w.stage].computed != w.computed) {
            std::fprintf(stderr,
                         "bench_smoke: FAIL: stage %s computed %llu "
                         "times, want %llu\n",
                         pipeline::stageName(w.stage),
                         (unsigned long long)stats[w.stage].computed,
                         (unsigned long long)w.computed);
            return 1;
        }
    }

    // Warm re-run through the same pool: zero new computes, and the
    // document must stay byte-identical (the determinism contract).
    auto warm = runner.run(specs, pool);
    if (report::sweepToJson(warm).dump(2) != cold_json)
        return failed("warm sweep output differs from cold output");
    const pipeline::CacheStats warm_stats = pool.stats();
    if (warm_stats.computed() != stats.computed())
        return failed("warm sweep recomputed an artifact");
    if (warm_stats.hits() <= stats.hits())
        return failed("warm sweep did not hit the cache");

    std::printf("bench_smoke: shared-frontend OK (%zu sweep points, "
                "%s)\n",
                specs.size(), stats.summary().c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchArgs(argc, argv);
    if (opts.jobs <= 1)
        opts.jobs = 2;
    if (opts.jsonPath.empty())
        opts.jsonPath = "bench_smoke.json";

    std::vector<report::RunSpec> specs = tinyGrid();
    // Like Sweep::run: --core selects the simulator core everywhere;
    // the other core runs the grid once more for the comparison.
    auto serialUnder = [&](arch::CoreMode core) {
        for (auto &s : specs)
            s.opts.config.coreMode = core;
        return report::sweepToJson(report::SweepRunner(1).run(specs))
            .dump(2);
    };
    const arch::CoreMode other = opts.core == arch::CoreMode::Event
        ? arch::CoreMode::Cycle
        : arch::CoreMode::Event;
    const std::string otherCore = serialUnder(other);
    // Leaves every spec on --core for the parallel run below.
    const std::string serial = serialUnder(opts.core);
    if (otherCore != serial)
        return failed("sweep output differs between the cycle and "
                      "event cores");
    auto records = report::SweepRunner(opts.jobs).run(specs);
    std::string parallel = report::sweepToJson(records).dump(2);

    if (serial != parallel)
        return failed("--jobs output differs from serial output");

    try {
        report::writeFile(opts.jsonPath, parallel);
        if (!opts.csvPath.empty())
            report::writeFile(opts.csvPath, report::sweepToCsv(records));
    } catch (const std::exception &e) {
        return failed(e.what());
    }

    // Read the file back through the parser, as a consumer would.
    std::string text;
    {
        std::FILE *f = std::fopen(opts.jsonPath.c_str(), "rb");
        if (!f)
            return failed("cannot reopen emitted json");
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }

    Json doc;
    try {
        doc = Json::parse(text);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_smoke: FAIL: emitted json does not "
                             "parse: %s\n",
                     e.what());
        return 1;
    }

    try {
        if (doc.get("schema").asString() != report::SCHEMA_NAME)
            return failed("wrong schema name");
        if (doc.get("schema_version").asInt() != report::SCHEMA_VERSION)
            return failed("wrong schema_version");
        const Json &runs = doc.get("runs");
        if (runs.size() != specs.size())
            return failed("wrong run count");
        for (size_t i = 0; i < runs.size(); ++i) {
            const Json &run = runs.at(i);
            if (run.get("id").asString() != specs[i].id)
                return failed("runs out of input order");
            const Json &m = run.get("metrics");
            for (const char *group :
                 {"cycle_breakdown", "prediction", "memory", "tasks",
                  "window_span", "partition"})
                (void)m.get(group);
            if (m.get("retired_insts").asUInt() == 0)
                return failed("run retired no instructions");
            uint64_t sum = 0;
            for (const auto &kv : m.get("cycle_breakdown").members())
                sum += kv.second.asUInt();
            if (sum != m.get("occupied_pu_cycles").asUInt())
                return failed("cycle breakdown does not sum to "
                              "occupied_pu_cycles");
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "bench_smoke: FAIL: schema violation: %s\n",
                     e.what());
        return 1;
    }

    if (int rc = checkSharedFrontend(opts.jobs, opts.core))
        return rc;

    std::printf("bench_smoke: OK (%zu runs, %u jobs, %s validated)\n",
                specs.size(), opts.jobs, opts.jsonPath.c_str());
    return 0;
}
