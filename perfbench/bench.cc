#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // anonymous namespace

std::string
Result::line() const
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i)
            s += ", ";
        s += jsonString(m.name) + ": {\"value\": " + jsonNumber(m.value) +
             ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return s + "}}";
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

double
vmSizeMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmSize:", 0) == 0)
            return std::stod(line.substr(7)) / 1024.0;
    return 0;
}

unsigned
threadCount()
{
    unsigned n = 0;
    if (DIR *d = opendir("/proc/self/task")) {
        while (dirent *e = readdir(d))
            if (e->d_name[0] != '.')
                ++n;
        closedir(d);
    }
    return n;
}

std::vector<int>
pinCpus(unsigned n)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
    // The last CPUs of the set: CPU 0 is the usual home of interrupt
    // handling and stray housekeeping threads.
    if (cpus.size() > n)
        cpus.erase(cpus.begin(), cpus.end() - n);
    cpu_set_t pin;
    CPU_ZERO(&pin);
    for (int c : cpus)
        CPU_SET(c, &pin);
    if (cpus.empty() || sched_setaffinity(0, sizeof pin, &pin) != 0) {
        std::fprintf(stderr, "perfbench: cannot pin CPUs; running "
                             "unpinned\n");
        cpus.clear();
    }
    return cpus;
}

std::string
hostLine(const std::vector<int> &pinned)
{
    std::string model = "unknown";
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                model = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    std::string cpus;
    for (int c : pinned)
        cpus += (cpus.empty() ? "" : ", ") + std::to_string(c);
    return "{\"host\": {\"nproc\": " +
           std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ", \"cpu\": " + jsonString(model) + ", \"pinned\": [" + cpus +
           "]}}";
}

Windows::Windows(double seconds, unsigned n)
    : _len(seconds / n), _start(Clock::now()), _cpu0(processCpuSeconds())
{}

void
Windows::op(double us, double work)
{
    _cur.latUs.push_back(us);
    _cur.work += work;
    if (secondsSince(_start) >= _len)
        close();
}

void
Windows::close()
{
    _cur.wallS = secondsSince(_start);
    double cpu = processCpuSeconds();
    _cur.cpuS = cpu - _cpu0;
    _done.push_back(std::move(_cur));
    _cur = Window();
    _start = Clock::now();
    _cpu0 = cpu;
}

void
Windows::finish()
{
    if (secondsSince(_start) >= _len / 2 && !_cur.latUs.empty())
        close();
    if (_done.empty())
        throw std::runtime_error("timed phase shorter than one window");
}

double
Windows::opsPerS() const
{
    return medianOf([](const Window &w) {
        return double(w.latUs.size()) / w.wallS;
    });
}

double
Windows::latencyUs(double q) const
{
    return medianOf([q](const Window &w) { return quantile(w.latUs, q); });
}

double
Windows::cpuUsPerOp() const
{
    return medianOf([](const Window &w) {
        return w.cpuS * 1e6 / double(w.latUs.size());
    });
}

double
Windows::workPerS() const
{
    return medianOf([](const Window &w) { return w.work / w.wallS; });
}

uint64_t
digest(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
Refs::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference digests " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string hex, key;
        if (!(ls >> hex >> key) || hex.size() != 16)
            throw std::runtime_error("malformed reference line: " + line);
        _map[key] = std::stoull(hex, nullptr, 16);
    }
    if (_map.empty())
        throw std::runtime_error("no reference digests in " + path);
}

void
Refs::save(const std::string &path) const
{
    std::ofstream out(path);
    out << "# FNV-1a 64 of report::runToJson(record).dump() per cell,\n"
           "# computed with the cycle-stepping reference core.\n"
           "# Regenerate: perfbench --gen-refs (perfbench/README.md).\n";
    for (const auto &[key, d] : _map) {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx", (unsigned long long)d);
        out << hex << ' ' << key << '\n';
    }
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

bool
Refs::check(const std::string &key, const std::string &bytes) const
{
    auto it = _map.find(key);
    return it != _map.end() && it->second == digest(bytes);
}

uint32_t
Ledger::begin(const char *name, uint32_t parent, uint64_t op)
{
    if (!_on)
        return 0;
    _spans.push_back({name, parent, op, nowNs(), -1});
    return uint32_t(_spans.size());
}

void
Ledger::end(uint32_t id)
{
    if (id)
        _spans[id - 1].end = nowNs();
}

uint32_t
Ledger::record(const char *name, uint32_t parent, uint64_t op,
               int64_t start_ns, int64_t end_ns)
{
    if (!_on)
        return 0;
    _spans.push_back({name, parent, op, start_ns, end_ns});
    return uint32_t(_spans.size());
}

double
Ledger::totalNs(const std::string &name) const
{
    double t = 0;
    for (double d : durationsNs(name))
        t += d;
    return t;
}

std::vector<double>
Ledger::durationsNs(const std::string &name) const
{
    std::vector<double> d;
    for (const Span &s : _spans)
        if (name == s.name)
            d.push_back(double(s.end - s.start));
    return d;
}

double
Ledger::selfNs(const std::string &name) const
{
    std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> kids;
    for (const Span &s : _spans)
        if (s.parent)
            kids[s.parent].push_back({s.start, s.end});
    double self = 0;
    for (uint32_t id = 1; id <= _spans.size(); ++id) {
        const Span &s = _spans[id - 1];
        if (name != s.name)
            continue;
        double covered = 0;
        auto it = kids.find(id);
        if (it != kids.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            int64_t cur = s.start;
            for (auto [a, b] : iv) {
                a = std::max(a, cur);
                b = std::min(b, s.end);
                if (b > a) {
                    covered += double(b - a);
                    cur = b;
                }
            }
        }
        self += double(s.end - s.start) - covered;
    }
    return self;
}

void
Ledger::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        out << "{\"id\": " << i + 1 << ", \"name\": \"" << s.name
            << "\", \"parent\": " << s.parent << ", \"op\": " << s.op
            << ", \"start_ns\": " << s.start
            << ", \"dur_ns\": " << s.end - s.start << "}"
            << (i + 1 < _spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out)
        throw std::runtime_error("cannot write span ledger " + path);
}

double
spanCostNs()
{
    constexpr int batch = 10'000;
    std::vector<double> ns;
    for (int b = 0; b < 11; ++b) {
        Ledger l(true);
        int64_t t0 = nowNs();
        for (int i = 0; i < batch; ++i)
            l.end(l.begin("calibrate", 0, uint64_t(i)));
        ns.push_back(double(nowNs() - t0) / batch);
    }
    return median(std::move(ns));
}

const std::vector<std::string> &
analogs()
{
    static const std::vector<std::string> names = {
        "go",      "m88ksim", "gcc",    "compress", "li",    "ijpeg",
        "perl",    "vortex",  "tomcatv", "swim",    "su2cor", "hydro2d",
        "mgrid",   "applu",   "turb3d", "apsi",     "fpppp", "wave5"};
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"workloads.build_ms", "ms"},
        {"pipeline.transform_ms", "ms"},
        {"pipeline.profile_ms", "ms"},
        {"pipeline.select_ms", "ms"},
        {"pipeline.trace_ms", "ms"},
        {"pipeline.simulate_ms", "ms"},
        {"pipeline.transform.computed", "count"},
        {"pipeline.profile.computed", "count"},
        {"pipeline.select.computed", "count"},
        {"pipeline.trace.computed", "count"},
        {"pipeline.simulate.computed", "count"},
        {"pipeline.hits", "count"},
        {"pipeline.hit_ratio", "ratio"},
        {"pipeline.lookup_us", "us"},
        {"arch.sim_cycles", "count"},
        {"arch.retired_insts", "count"},
        {"arch.skipped_cycle_frac", "ratio"},
        {"arch.ns_per_sim_cycle", "ns"},
        {"arch.ns_per_active_cycle", "ns"},
        {"obs.perfetto_sim_ratio", "ratio"},
        {"report.sweep_overhead_ms", "ms"},
        {"report.record_json_us", "us"},
        {"serve.frame_rw_us", "us"},
        {"serve.parse_us", "us"},
        {"serve.dispatch_us", "us"},
        {"serve.frame_build_us", "us"},
        {"serve.roundtrip_us", "us"},
        {"serve.unattributed_us", "us"},
        {"serve.threads_end", "count"},
        {"serve.vm_mb_end", "MB"},
        {"mscd.latency.run.dispatch_us.p50", "us"},
        {"mscd.latency.run.done_us.p50", "us"},
        {"mscd.cache.hit_ratio", "ratio"},
        {"client.encode_us", "us"},
        {"client.decode_us", "us"},
        {"router.sweep_rtt_us", "us"},
        {"router.direct_sweep_rtt_us", "us"},
        {"router.overhead_ratio", "ratio"},
        {"router.key_us", "us"},
        {"router.redump_us", "us"},
        {"router.cells_forwarded", "count"},
        {"router.shard_balance", "ratio"},
        {"shard.cache.hit_ratio", "ratio"},
        {"shard.dedup_hits", "count"},
        {"shard.cold_cell_ms", "ms"},
        {"bench.trace_overhead_frac", "ratio"},
        {"bench.attributed_frac", "ratio"},
    };
    return m;
}

void
cacheDeltas(const msc::pipeline::CacheStats &before,
            const msc::pipeline::CacheStats &after,
            std::map<std::string, double> &layer)
{
    using namespace msc::pipeline;
    for (size_t s = 0; s < NUM_STAGES; ++s)
        layer[std::string("pipeline.") + stageName(StageKind(s)) +
              ".computed"] =
            double(after.stage[s].computed - before.stage[s].computed);
    double hits = double(after.hits() - before.hits());
    double computed = double(after.computed() - before.computed());
    layer["pipeline.hits"] = hits;
    layer["pipeline.hit_ratio"] = hits / std::max(1.0, hits + computed);
}

void
addLayerMetrics(Result &r, const std::map<std::string, double> &got)
{
    std::set<std::string> known;
    for (const auto &[name, unit] : layerMetrics()) {
        known.insert(name);
        auto it = got.find(name);
        r.add(name, it == got.end() ? 0.0 : it->second, unit);
    }
    for (const auto &[name, v] : got)
        if (!known.count(name))
            throw std::runtime_error("unlisted per-layer metric " + name);
}

} // namespace perfbench
