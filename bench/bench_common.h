/**
 * @file
 * Shared driver code for the paper-reproduction benchmark binaries,
 * built on the src/report sweep subsystem.
 *
 * Every binary follows the same three-phase shape:
 *
 *   1. enqueue its whole workload × strategy × PU grid into a Sweep
 *      under string keys;
 *   2. sweep.run(opts) executes the grid — in parallel when --jobs N
 *      is given — and optionally emits the structured results
 *      (--json / --csv, schema in docs/METRICS.md);
 *   3. print the paper-shaped text tables by key lookup.
 *
 * Results are deterministic and independent of --jobs (see
 * report/sweep.h). Every binary honours the MSC_SMALL environment
 * variable: when set, workloads run at test scale (seconds instead of
 * minutes) — the shapes survive, absolute numbers shift slightly.
 */

#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/config.h"
#include "client/cli.h"
#include "report/record.h"
#include "report/sweep.h"
#include "tasksel/options.h"
#include "workloads/workload.h"

namespace msc {
namespace bench {

inline bool
smallMode()
{
    const char *e = std::getenv("MSC_SMALL");
    return e && *e && *e != '0';
}

inline workloads::Scale
benchScale()
{
    return smallMode() ? workloads::Scale::Small : workloads::Scale::Full;
}

inline uint64_t
benchTraceInsts()
{
    return smallMode() ? 60'000 : 250'000;
}

/** Command-line options common to every bench binary. */
struct BenchOptions
{
    unsigned jobs = 1;          ///< Sweep worker threads (--jobs N).
    std::string jsonPath;       ///< --json <file>: structured results.
    std::string csvPath;        ///< --csv <file>: flat results.
    std::string cacheDir;       ///< --cache-dir <dir>: artifact cache.
    /// --core cycle|event: simulator core. Outputs are byte-identical
    /// either way (docs/PERFORMANCE.md); cycle is the slow reference.
    arch::CoreMode core = arch::CoreMode::Event;
};

/**
 * Parses --jobs/--json/--csv (and --help) from argv. Exits with a
 * usage message on unknown flags so a typo can't silently run a
 * multi-minute sweep with default settings, and with parseUInt's
 * message (exit 2) on a bad --jobs.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv)
try {
    BenchOptions o;
    auto usage = [&](int code) {
        std::fprintf(stderr,
                     "usage: %s [--jobs N] [--json file] [--csv file]"
                     " [--cache-dir dir] [--core cycle|event]\n"
                     "  --jobs N        run the sweep on N threads "
                     "(default 1; 0 = all cores)\n"
                     "  --json file     write structured results "
                     "(schema: docs/METRICS.md)\n"
                     "  --csv file      write flat results\n"
                     "  --cache-dir d   persist frontend artifacts "
                     "across runs (docs/API.md)\n"
                     "  --core m        simulator core: event (default)"
                     " or the cycle-stepping reference; results are "
                     "byte-identical (docs/PERFORMANCE.md)\n"
                     "  MSC_SMALL=1     reduced workload scale\n",
                     argv[0]);
        std::exit(code);
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                usage(2);
            }
            return argv[++i];
        };
        if (a == "--jobs")
            o.jobs = unsigned(
                client::parseUInt("--jobs", val(), client::MAX_JOBS));
        else if (a == "--json")
            o.jsonPath = val();
        else if (a == "--csv")
            o.csvPath = val();
        else if (a == "--cache-dir")
            o.cacheDir = val();
        else if (a == "--core") {
            const char *v = val();
            if (!arch::parseCoreMode(v, o.core)) {
                std::fprintf(stderr, "bad --core value %s\n", v);
                usage(2);
            }
        } else if (a == "--help" || a == "-h")
            usage(0);
        else {
            std::fprintf(stderr, "unknown flag %s\n", a.c_str());
            usage(2);
        }
    }
    return o;
} catch (const std::exception &e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
}

/**
 * A keyed sweep: enqueue the grid, run it once, read results back by
 * key while printing tables. Keys are arbitrary but must be unique.
 */
class Sweep
{
  public:
    /** Enqueues a standard paper-config run (the classic `runOne`
     *  shape). Returns the key (= the spec id). */
    std::string
    add(const std::string &workload, tasksel::Strategy strategy,
        unsigned pus, bool out_of_order, bool size_heur = false,
        unsigned max_targets = 4)
    {
        report::RunSpec s = report::makeSpec(
            workload, strategy, pus, out_of_order, benchScale(),
            benchTraceInsts(), size_heur, max_targets);
        addSpec(s);
        return s.id;
    }

    /** Enqueues a fully custom spec (ablation / centralized configs).
     *  @p spec.id must be set and unique. */
    void
    addSpec(const report::RunSpec &spec)
    {
        if (spec.id.empty())
            throw std::runtime_error("sweep: spec without id");
        if (!_index.emplace(spec.id, _specs.size()).second)
            throw std::runtime_error("sweep: duplicate key " + spec.id);
        _specs.push_back(spec);
    }

    /** Executes the grid and emits --json/--csv files if requested.
     *  Run/write failures exit(1) with a message rather than
     *  escaping main as an uncaught exception. */
    void
    run(const BenchOptions &opts)
    {
        try {
            // One knob for the whole grid: --core selects the
            // simulator core on every spec (it does not change
            // results or spec ids, only how fast they compute).
            for (auto &s : _specs)
                s.opts.config.coreMode = opts.core;
            report::SweepRunner runner(opts.jobs);
            if (runner.jobs() > 1)
                std::fprintf(stderr, "[sweep] %zu runs on %u threads\n",
                             _specs.size(), runner.jobs());
            pipeline::SessionPool pool(
                pipeline::SessionConfig{opts.cacheDir});
            _records = runner.run(_specs, pool);
            _cacheStats = pool.stats();
            std::fprintf(stderr, "[sweep] artifact cache: %s\n",
                         _cacheStats.summary().c_str());
            // Benches print paper tables straight from the records,
            // so any error cell means the tables would be garbage:
            // report it and bail rather than print partial data
            // (msctool sweep is the partial-tolerant driver).
            size_t failed = 0;
            for (const auto &r : _records) {
                if (!r.ok()) {
                    ++failed;
                    std::fprintf(stderr, "[sweep] ERROR %s: %s\n",
                                 r.spec.id.c_str(),
                                 r.error.render().c_str());
                }
            }
            if (failed) {
                std::fprintf(stderr,
                             "[sweep] %zu of %zu runs failed\n",
                             failed, _records.size());
                std::exit(1);
            }
            if (!opts.jsonPath.empty()) {
                report::writeFile(opts.jsonPath,
                                  report::sweepToJson(_records).dump(2));
                std::fprintf(stderr, "[sweep] wrote %zu runs to %s\n",
                             _records.size(), opts.jsonPath.c_str());
            }
            if (!opts.csvPath.empty()) {
                report::writeFile(opts.csvPath,
                                  report::sweepToCsv(_records));
                std::fprintf(stderr, "[sweep] wrote %zu runs to %s\n",
                             _records.size(), opts.csvPath.c_str());
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "[sweep] error: %s\n", e.what());
            std::exit(1);
        }
    }

    /** Result lookup; throws if the key was never enqueued or the
     *  sweep has not run. */
    const report::RunRecord &
    operator[](const std::string &key) const
    {
        auto it = _index.find(key);
        if (it == _index.end())
            throw std::runtime_error("sweep: unknown key " + key);
        if (it->second >= _records.size())
            throw std::runtime_error("sweep: not run yet");
        return _records[it->second];
    }

    const std::vector<report::RunRecord> &records() const
    {
        return _records;
    }

    /** Pooled cache counters from the last run() (bench_smoke asserts
     *  the shared-frontend contract on these). */
    const pipeline::CacheStats &cacheStats() const
    {
        return _cacheStats;
    }

  private:
    std::vector<report::RunSpec> _specs;
    std::vector<report::RunRecord> _records;
    std::unordered_map<std::string, size_t> _index;
    pipeline::CacheStats _cacheStats;
};

/** The key Sweep::add assigned to a standard paper-config run — use
 *  it to look results back up in the printing phase. */
inline std::string
runKey(const std::string &workload, tasksel::Strategy strategy,
       unsigned pus, bool out_of_order, bool size_heur = false,
       unsigned max_targets = 4)
{
    return report::makeSpec(workload, strategy, pus, out_of_order,
                            benchScale(), benchTraceInsts(), size_heur,
                            max_targets)
        .id;
}

inline void
printHeader(const char *title)
{
    std::printf("\n=== %s%s ===\n", title,
                smallMode() ? " (MSC_SMALL scale)" : "");
}

/** Integer benchmarks in paper order, then floating point. */
inline std::vector<std::string>
intBenchmarks()
{
    return {"go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl",
            "vortex"};
}

inline std::vector<std::string>
fpBenchmarks()
{
    return {"tomcatv", "swim", "su2cor", "hydro2d", "mgrid", "applu",
            "turb3d", "apsi", "fpppp", "wave5"};
}

} // namespace bench
} // namespace msc
