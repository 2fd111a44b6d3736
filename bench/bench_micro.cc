/**
 * @file
 * Component micro-benchmarks (google-benchmark): interpreter
 * throughput, profiling, task selection, dynamic task cutting, the
 * timing model, and the predictor/ARB primitives.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/arb.h"
#include "arch/predictors.h"
#include "arch/processor.h"
#include "arch/taskstream.h"
#include "pipeline/session.h"
#include "profile/interpreter.h"
#include "profile/profiler.h"
#include "tasksel/selector.h"
#include "workloads/workload.h"

using namespace msc;

static void
BM_Interpreter(benchmark::State &state)
{
    ir::Program p = workloads::buildWorkload("m88ksim",
                                             workloads::Scale::Small);
    uint64_t insts = 0;
    for (auto _ : state) {
        profile::Interpreter in(p);
        insts += in.runQuiet(50'000);
    }
    state.SetItemsProcessed(int64_t(insts));
}
BENCHMARK(BM_Interpreter);

static void
BM_Profiler(benchmark::State &state)
{
    ir::Program p = workloads::buildWorkload("compress",
                                             workloads::Scale::Small);
    for (auto _ : state)
        benchmark::DoNotOptimize(profile::profileProgram(p, 50'000));
}
BENCHMARK(BM_Profiler);

static void
BM_TaskSelection(benchmark::State &state)
{
    ir::Program p = workloads::buildWorkload("go",
                                             workloads::Scale::Small);
    profile::Profile prof = profile::profileProgram(p, 50'000);
    tasksel::SelectionOptions opts;
    opts.strategy = tasksel::Strategy(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(tasksel::selectTasks(p, prof, opts));
}
BENCHMARK(BM_TaskSelection)->Arg(0)->Arg(1)->Arg(2);

static void
BM_TaskCutting(benchmark::State &state)
{
    ir::Program p = workloads::buildWorkload("perl",
                                             workloads::Scale::Small);
    profile::Profile prof = profile::profileProgram(p, 50'000);
    tasksel::SelectionOptions opts;
    tasksel::TaskPartition part = tasksel::selectTasks(p, prof, opts);
    profile::Interpreter in(p);
    profile::Trace t = in.trace(50'000);
    for (auto _ : state)
        benchmark::DoNotOptimize(arch::cutTasks(t, part));
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(t.size()));
}
BENCHMARK(BM_TaskCutting);

static void
BM_TimingSimulation(benchmark::State &state)
{
    ir::Program p = workloads::buildWorkload("ijpeg",
                                             workloads::Scale::Small);
    pipeline::StageOptions o;
    o.trace.traceInsts = 50'000;
    o.config = arch::SimConfig::paperConfig(unsigned(state.range(0)));
    uint64_t insts = 0;
    for (auto _ : state) {
        // Fresh Session per iteration: the cold full-pipeline cost.
        pipeline::Session session(p);
        insts += session.runAll(o).sim->stats.retiredInsts;
    }
    state.SetItemsProcessed(int64_t(insts));
}
BENCHMARK(BM_TimingSimulation)->Arg(4)->Arg(8);

static void
BM_WarmSessionSimulation(benchmark::State &state)
{
    ir::Program p = workloads::buildWorkload("ijpeg",
                                             workloads::Scale::Small);
    pipeline::StageOptions o;
    o.trace.traceInsts = 50'000;
    o.config = arch::SimConfig::paperConfig(unsigned(state.range(0)));
    pipeline::Session session(p);
    session.trace(o);  // warm the frontend artifacts once
    uint64_t insts = 0, n = 0;
    for (auto _ : state) {
        // Bump the runaway cap (never reached) so every iteration has
        // a distinct sim key: measures a timing-sim compute against a
        // warm frontend — the marginal cost of one extra sweep point.
        o.config.maxCycles = 2'000'000'000ull + (++n);
        insts += session.simulate(o)->stats.retiredInsts;
    }
    state.SetItemsProcessed(int64_t(insts));
}
BENCHMARK(BM_WarmSessionSimulation)->Arg(4)->Arg(8);

/**
 * Quiescent-heavy timing model: tiny caches and a DRAM-class memory
 * latency make the machine spend most cycles with every PU stalled on
 * the same misses, which is exactly the stretch the event core skips.
 * Arg 0 runs the cycle (reference) core, Arg 1 the event core;
 * items/s is simulated cycles per second, the figure bench_snapshot.sh
 * records in BENCH_pr7.json. The frontend (profile / select / trace /
 * cut) runs once outside the timed loop so the counter isolates
 * arch::simulate.
 */
static void
BM_QuiescentSimulation(benchmark::State &state)
{
    ir::Program p = workloads::buildWorkload("swim",
                                             workloads::Scale::Small);
    profile::Profile prof = profile::profileProgram(p, 50'000);
    tasksel::SelectionOptions opts;
    opts.strategy = tasksel::Strategy::ControlFlow;
    tasksel::TaskPartition part = tasksel::selectTasks(p, prof, opts);
    profile::Interpreter in(p);
    profile::Trace t = in.trace(60'000);
    arch::TaskStream tasks = arch::cutTasks(t, part);

    arch::SimConfig cfg = arch::SimConfig::paperConfig(4);
    cfg.coreMode = state.range(0) ? arch::CoreMode::Event
                                  : arch::CoreMode::Cycle;
    cfg.l1i = {4 * 1024, 1, 32, 1, 4};
    cfg.l1d = {4 * 1024, 1, 32, 1, 4};
    cfg.l2 = {16 * 1024, 1, 32, 24, 1};
    cfg.memLatency = 300;

    uint64_t cycles = 0, skipped = 0;
    for (auto _ : state) {
        arch::SimStats s = arch::simulate(part, tasks, cfg);
        cycles += s.cycles;
        skipped += s.eventSkippedCycles;
    }
    state.SetItemsProcessed(int64_t(cycles));
    state.counters["skip_frac"] =
        cycles ? double(skipped) / double(cycles) : 0.0;
}
BENCHMARK(BM_QuiescentSimulation)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("event")
    ->Unit(benchmark::kMillisecond);

static void
BM_TaskPredictor(benchmark::State &state)
{
    arch::TaskPredictor tp(16, 64 * 1024, 4);
    uint64_t addr = 0x1000;
    unsigned i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tp.predict(addr));
        tp.update(addr, i & 3);
        addr = addr * 1664525 + 1013904223;
        ++i;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_TaskPredictor);

static void
BM_Gshare(benchmark::State &state)
{
    arch::Gshare g(16, 64 * 1024);
    uint64_t pc = 0x4000;
    unsigned i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(g.predict(pc));
        g.update(pc, (i & 3) != 0);
        pc += 4;
        ++i;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_Gshare);

static void
BM_ArbTraffic(benchmark::State &state)
{
    arch::Arb arb(256);
    uint64_t a = 0;
    arch::TaskSeq t = 0;
    for (auto _ : state) {
        arb.recordLoad(t + 1, a & 1023, a);
        benchmark::DoNotOptimize(arb.recordStore(t, (a + 7) & 1023));
        if ((++a & 63) == 0)
            arb.retireUpTo(t++);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 2);
}
BENCHMARK(BM_ArbTraffic);

/**
 * Accepts the harness-wide --json/--csv/--jobs flags (see
 * bench_common.h) by translating them to google-benchmark's
 * reporters: --json F → --benchmark_out=F in JSON format (gbench's
 * own schema, not docs/METRICS.md — these are component timings, not
 * simulation metrics), --csv F likewise in CSV format. --jobs is
 * accepted and ignored: micro-benchmarks time single-threaded
 * primitives, so parallel dispatch would perturb them.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    args.emplace_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--json") {
            args.push_back("--benchmark_out=" + val());
            args.push_back("--benchmark_out_format=json");
        } else if (a == "--csv") {
            args.push_back("--benchmark_out=" + val());
            args.push_back("--benchmark_out_format=csv");
        } else if (a == "--jobs") {
            (void)val();
            std::fprintf(stderr,
                         "bench_micro: --jobs ignored (timing "
                         "micro-benchmarks run serially)\n");
        } else {
            args.push_back(a);
        }
    }
    std::vector<char *> cargs;
    for (auto &s : args)
        cargs.push_back(s.data());
    int cargc = int(cargs.size());
    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
