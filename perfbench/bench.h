/**
 * @file
 * Shared infrastructure of the repository benchmark (README.md in
 * this directory): run options, the result line, reference digests,
 * host probes, and the in-memory span ledger of a traced run.
 *
 * Everything here lives outside the library: spans are recorded by
 * the benchmark around its own calls into each layer's public
 * functions, never inside src/.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pipeline/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p t0 to now. */
double secondsSince(Clock::time_point t0);

/** Nanoseconds of the steady clock since an arbitrary epoch. */
int64_t nowNs();

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string refsPath;   ///< Reference digest file.
    std::string outDir = ".perfbench";  ///< Span ledgers of traced runs.
    std::string sockDir;    ///< Unix sockets of the in-process daemons.
    bool genRefs = false;   ///< Regenerate refsPath and exit.
};

/// @name The result line.
/// @{
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** The one-line JSON object the benchmark ends its stdout with. */
    std::string line() const;
};
/// @}

/// @name Sample statistics.
/// @{
/** Linear-interpolated quantile of @p v (copied, sorted inside). */
double quantile(std::vector<double> v, double q);

double median(std::vector<double> v);
/// @}

/// @name Host and process probes.
/// @{
/** User + system CPU seconds of the whole process (every thread). */
double processCpuSeconds();

/** Peak resident set size of the process, MB. */
double peakRssMb();

/** Current virtual size of the process, MB. */
double vmSizeMb();

/** Live threads of the process. */
unsigned threadCount();

/** Pins the calling thread (and so every thread it creates later) to
 *  the last @p n CPUs of the allowed set; returns the pinned CPU
 *  ids, empty when the host refuses (the run then goes unpinned). */
std::vector<int> pinCpus(unsigned n);

/** The host line written before the result line: a JSON object with
 *  nproc, the CPU model and the pinned CPU set. */
std::string hostLine(const std::vector<int> &pinned);
/// @}

/// @name Reference digests.
/// A reference is the FNV-1a 64 digest of
/// `report::runToJson(record).dump()` for one cell, keyed by a cell
/// name. The committed file is generated with the cycle-stepping
/// reference core (`--gen-refs`).
/// @{
uint64_t digest(const std::string &bytes);

class Refs
{
  public:
    /** Loads "<hex digest> <key>" lines; throws on a missing or
     *  malformed file. */
    void load(const std::string &path);
    void save(const std::string &path) const;

    void set(const std::string &key, uint64_t d) { _map[key] = d; }

    /** True when @p key has a reference equal to digest(@p bytes). */
    bool check(const std::string &key, const std::string &bytes) const;

    size_t size() const { return _map.size(); }

  private:
    std::map<std::string, uint64_t> _map;
};
/// @}

/**
 * In-memory span ledger of a traced run. A span has a name, start,
 * end, parent and the id of the op it belongs to; spans are kept in
 * memory and written out once, when the run ends. With tracing off
 * every call is a no-op, so the untraced timed phases run the same
 * code without recording.
 */
class Ledger
{
  public:
    explicit Ledger(bool on) : _on(on) {}

    /** Opens a span; returns its id (0 when tracing is off). */
    uint32_t begin(const char *name, uint32_t parent, uint64_t op);
    void end(uint32_t id);

    /** Records an already-measured interval. */
    uint32_t record(const char *name, uint32_t parent, uint64_t op,
                    int64_t start_ns, int64_t end_ns);

    /** Summed duration of every span named @p name, ns. */
    double totalNs(const std::string &name) const;

    /** Durations of every span named @p name, ns. */
    std::vector<double> durationsNs(const std::string &name) const;

    /** Summed self time (duration minus the union of its children's
     *  intervals) of every span named @p name, ns. */
    double selfNs(const std::string &name) const;

    /** Writes every span as one JSON array to @p path. */
    void write(const std::string &path) const;

    /** Spans recorded so far. */
    size_t size() const { return _spans.size(); }

  private:
    struct Span
    {
        const char *name;
        uint32_t parent;
        uint64_t op;
        int64_t start;
        int64_t end;
    };

    bool _on;
    std::vector<Span> _spans;
};

/** Cost of recording one span (begin + end) on this host, ns: the
 *  median of timed batches. bench.trace_overhead_frac is the spans a
 *  traced phase recorded times this cost, over the phase's wall
 *  time. Comparing a traced with an untraced phase instead would
 *  measure mostly the first phase's page faults. */
double spanCostNs();

/** RAII span: opens at construction, closes at destruction. */
class Scope
{
  public:
    Scope(Ledger &l, const char *name, uint32_t parent = 0,
          uint64_t op = 0)
        : _l(l), _id(l.begin(name, parent, op))
    {}
    ~Scope() { _l.end(_id); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint32_t id() const { return _id; }

  private:
    Ledger &_l;
    uint32_t _id;
};

/**
 * A timed phase split into windows of equal length. Each rate and
 * latency figure is taken per window and reported as the median over
 * the windows, so a burst of outside load on the host moves one
 * window rather than the run.
 */
class Windows
{
  public:
    /** @p seconds of timed phase in @p n windows. */
    Windows(double seconds, unsigned n);

    /** Records one completed op of @p us latency and @p work units of
     *  useful work; closes the window once its time is up. */
    void op(double us, double work = 0);

    /** Closes the last, partial window (dropped when it holds less
     *  than half a window's time). */
    void finish();

    double opsPerS() const;
    double latencyUs(double q) const;
    double cpuUsPerOp() const;
    double workPerS() const;

  private:
    struct Window
    {
        double wallS = 0;
        double cpuS = 0;
        double work = 0;
        std::vector<double> latUs;
    };

    void close();

    template <typename Fn>
    double medianOf(Fn &&fn) const
    {
        std::vector<double> v;
        for (const Window &w : _done)
            v.push_back(fn(w));
        return median(std::move(v));
    }

    double _len;
    Clock::time_point _start;
    double _cpu0;
    Window _cur;
    std::vector<Window> _done;
};

/** Median wall time of @p fn in microseconds over @p reps calls,
 *  each recorded as a span named @p name when tracing is on. */
template <typename Fn>
double
probeUs(Ledger &l, const char *name, unsigned reps, Fn &&fn)
{
    std::vector<double> us;
    us.reserve(reps);
    for (unsigned i = 0; i < reps; ++i) {
        int64_t t0 = nowNs();
        fn();
        int64_t t1 = nowNs();
        l.record(name, 0, 0, t0, t1);
        us.push_back(double(t1 - t0) / 1e3);
    }
    return median(std::move(us));
}

/** Every per-layer metric name with its unit, in output order. A
 *  traced run reports all of them; a layer the workload does not
 *  drive reads 0 (README.md, "Per-layer metrics"). */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/** Fills @p r with every per-layer metric: values from @p got, 0 for
 *  the rest. Throws on a name not in layerMetrics(). */
void addLayerMetrics(Result &r, const std::map<std::string, double> &got);

/** Sets the pipeline.*.computed, pipeline.hits and pipeline.hit_ratio
 *  metrics from the cache traffic between two snapshots. */
void cacheDeltas(const msc::pipeline::CacheStats &before,
                 const msc::pipeline::CacheStats &after,
                 std::map<std::string, double> &layer);

/** The 18 SPEC95 analogs of the paper's grid, integer suite first. */
const std::vector<std::string> &analogs();

/// @name Workloads (figure5.cc, serve.cc).
/// @{
Result runFigure5(const Options &o, Refs &refs);
Result runServeWarm(const Options &o, Refs &refs);
Result runServeRouted(const Options &o, Refs &refs);

/** Recomputes every reference cell with the cycle core. */
void genFigure5Refs(Refs &refs);
void genServeRefs(Refs &refs);
/// @}

} // namespace perfbench
