/**
 * @file
 * Property tests: randomized streams checked against independent
 * oracles — ARB violation semantics, forwarding-ring ordering, cycle
 * conservation in the timing model, and dynamic-task-stream/partition
 * agreement on random programs.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "arch/arb.h"
#include "arch/processor.h"
#include "arch/ring.h"
#include "arch/taskstream.h"
#include "fuzz/rng.h"
#include "helpers.h"
#include "profile/interpreter.h"
#include "profile/profiler.h"
#include "tasksel/selector.h"
#include "tasksel/transforms.h"

using namespace msc;
using namespace msc::arch;

namespace {

/** Seeded draw source: fuzz::Rng's unbiased bounded() instead of the
 *  old `% mod` reduction (biased for non-power-of-two bounds), with
 *  the seed shifted by MSC_TEST_SEED for reproduction. */
struct Rng
{
    fuzz::Rng r;
    explicit Rng(uint64_t seed) : r(test::effectiveSeed(seed)) {}
    uint64_t next(uint64_t mod) { return r.bounded(mod); }
};

/**
 * Reference oracle for ARB semantics: tracks, per address, every
 * in-flight access with the version each load observed; recomputes
 * violations from first principles.
 */
class ArbOracle
{
  public:
    void
    load(TaskSeq task, uint64_t addr)
    {
        auto &v = _acc[addr];
        // Version observed: youngest store by task' <= task.
        std::optional<TaskSeq> src;
        for (auto &[t, rec] : v)
            if (rec.stored && t <= task && (!src || t > *src))
                src = t;
        auto &rec = v[task];
        if (!rec.loaded && !rec.stored) {
            rec.loaded = true;
            rec.src = src;
        } else if (!rec.loaded) {
            rec.loaded = true;
            rec.src = task;  // Read own store.
        }
    }

    /** Returns the oldest violated task, if any. */
    std::optional<TaskSeq>
    store(TaskSeq task, uint64_t addr)
    {
        auto &v = _acc[addr];
        std::optional<TaskSeq> victim;
        for (auto &[t, rec] : v) {
            if (t > task && rec.loaded &&
                (!rec.src || *rec.src < task)) {
                if (!victim || t < *victim)
                    victim = t;
            }
        }
        v[task].stored = true;
        return victim;
    }

    void
    squashFrom(TaskSeq task)
    {
        drop([&](TaskSeq t) { return t >= task; });
    }

    void
    retireUpTo(TaskSeq task)
    {
        drop([&](TaskSeq t) { return t <= task; });
    }

    /** Addresses with at least one in-flight access. */
    size_t entries() const { return _acc.size(); }

    bool tracked(uint64_t addr) const { return _acc.count(addr) != 0; }

  private:
    /** Erases the accesses of tasks matching @p gone, and addresses
     *  left with none. */
    template <typename Pred>
    void
    drop(Pred gone)
    {
        for (auto a = _acc.begin(); a != _acc.end();) {
            auto &v = a->second;
            for (auto it = v.begin(); it != v.end();)
                it = gone(it->first) ? v.erase(it) : std::next(it);
            a = v.empty() ? _acc.erase(a) : std::next(a);
        }
    }

    struct Rec
    {
        bool loaded = false, stored = false;
        std::optional<TaskSeq> src;
    };
    std::map<uint64_t, std::map<TaskSeq, Rec>> _acc;
};

/**
 * Reference for the ring's link bookkeeping: the earlier sliding-
 * window Ring, a per-link vector of claim counts that the simulator
 * trimmed to 1024 cycles behind the current one at every 65,536-cycle
 * boundary.
 */
class RefRing
{
  public:
    RefRing(unsigned num_pus, unsigned bandwidth)
        : _numPUs(num_pus), _bandwidth(bandwidth), _links(num_pus)
    {}

    void
    broadcast(unsigned from, uint64_t when, std::vector<uint64_t> &arrivals)
    {
        arrivals.assign(_numPUs, 0);
        arrivals[from] = when;
        uint64_t t = when;
        unsigned p = from;
        for (unsigned hop = 1; hop < _numPUs; ++hop) {
            t = claimSlot(p, t);
            p = (p + 1) % _numPUs;
            arrivals[p] = t;
            ++t;
        }
    }

    void
    trimBefore(uint64_t cycle)
    {
        for (auto &l : _links) {
            if (cycle <= l.base)
                continue;
            size_t drop = size_t(cycle - l.base);
            if (drop >= l.used.size())
                l.used.clear();
            else
                l.used.erase(l.used.begin(),
                             l.used.begin() + ptrdiff_t(drop));
            l.base = cycle;
        }
    }

  private:
    struct Link
    {
        uint64_t base = 0;
        std::vector<unsigned> used;
    };

    unsigned &
    slot(Link &l, uint64_t t)
    {
        if (l.used.empty()) {
            l.base = t;
            l.used.assign(64, 0);
        } else if (t < l.base) {
            l.used.insert(l.used.begin(), size_t(l.base - t), 0);
            l.base = t;
        } else if (t - l.base >= l.used.size()) {
            l.used.resize(size_t(t - l.base) + 64, 0);
        }
        return l.used[size_t(t - l.base)];
    }

    uint64_t
    claimSlot(unsigned link, uint64_t t)
    {
        Link &l = _links[link];
        while (slot(l, t) >= _bandwidth)
            ++t;
        ++slot(l, t);
        return t;
    }

    unsigned _numPUs;
    unsigned _bandwidth;
    std::vector<Link> _links;
};

} // anonymous namespace

class ArbProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ArbProperty, MatchesOracleOnRandomStreams)
{
    Rng rng(GetParam());
    Arb arb(4096);
    ArbOracle oracle;

    TaskSeq head = 0, tail = 0;
    for (int step = 0; step < 3000; ++step) {
        unsigned op = unsigned(rng.next(100));
        if (op < 40) {
            // Load by a random in-flight task.
            TaskSeq t = head + rng.next(tail - head + 1);
            uint64_t a = rng.next(48);
            arb.recordLoad(t, a, 0x100 + a);
            oracle.load(t, a);
        } else if (op < 80) {
            TaskSeq t = head + rng.next(tail - head + 1);
            uint64_t a = rng.next(48);
            auto got = arb.recordStore(t, a);
            auto want = oracle.store(t, a);
            if (want) {
                ASSERT_EQ(got.victim, *want)
                    << "step " << step << " store t=" << t
                    << " a=" << a;
                // A violation squashes the victim and younger.
                arb.squashFrom(*want);
                oracle.squashFrom(*want);
                tail = *want > head ? *want - 1 : head;
            } else {
                ASSERT_EQ(got.victim, NO_TASK) << "step " << step;
            }
        } else if (op < 90) {
            ++tail;  // Dispatch a younger task.
        } else if (head < tail) {
            arb.retireUpTo(head);
            oracle.retireUpTo(head);
            ++head;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArbProperty,
                         ::testing::Range<uint64_t>(1, 9));

/**
 * Wide streams: a live task span up to ~200 and well over a thousand
 * distinct addresses, far past what the simulator's <= 8-task windows
 * reach, so the ARB's index rehashes (growing and tombstone-clearing)
 * and its per-task ring grows. Occupancy (entriesInUse, full,
 * tracked) is checked against the oracle after every operation.
 */
class ArbWideProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ArbWideProperty, MatchesOracleWithWideSpans)
{
    Rng rng(GetParam());
    const unsigned capacity = 256;
    Arb arb(capacity);
    ArbOracle oracle;

    // Mostly words of the task's own, a few shared ones (the
    // violations), and scattered large ones across the hash index.
    auto addr = [&](TaskSeq t) -> uint64_t {
        switch (rng.next(128)) {
          case 0: return rng.next(16);
          case 1: return (rng.next(1u << 20) << 16) + rng.next(8);
          default: return 1000 + t * 32 + rng.next(32);
        }
    };
    auto check = [&](int step, uint64_t a) {
        ASSERT_EQ(arb.entriesInUse(), oracle.entries()) << "step " << step;
        ASSERT_EQ(arb.full(), oracle.entries() >= capacity)
            << "step " << step;
        ASSERT_EQ(arb.tracked(a), oracle.tracked(a)) << "step " << step;
    };

    size_t max_entries = 0, violations = 0;
    TaskSeq head = 0, tail = 0, max_span = 0;
    for (int step = 0; step < 30000; ++step) {
        unsigned op = unsigned(rng.next(200));
        TaskSeq t = head + rng.next(tail - head + 1);
        uint64_t a = addr(t);
        if (op < 75) {
            arb.recordLoad(t, a, 0x100 + a);
            oracle.load(t, a);
        } else if (op < 150) {
            auto got = arb.recordStore(t, a);
            auto want = oracle.store(t, a);
            if (want) {
                ASSERT_EQ(got.victim, *want) << "step " << step;
                ++violations;
                arb.squashFrom(*want);
                oracle.squashFrom(*want);
                tail = *want > head ? *want - 1 : head;
            } else {
                ASSERT_EQ(got.victim, NO_TASK) << "step " << step;
            }
        } else if (op < 195) {
            if (tail - head < 200)
                ++tail;  // Dispatch a younger task.
        } else if (op < 196) {
            // Squash a short suffix (a control misprediction).
            TaskSeq from =
                std::max(head + 1, tail - std::min(tail, rng.next(8)));
            arb.squashFrom(from);
            oracle.squashFrom(from);
            tail = from - 1;
        } else if (head < tail) {
            // Retire one task, or now and then a run of them.
            TaskSeq upto =
                std::min(tail - 1, head + (rng.next(8) ? 0 : rng.next(8)));
            arb.retireUpTo(upto);
            oracle.retireUpTo(upto);
            head = upto + 1;
        }
        check(step, a);
        max_entries = std::max(max_entries, oracle.entries());
        max_span = std::max(max_span, tail - head + 1);
    }
    // The stream really was wide.
    EXPECT_GE(max_entries, 1000u);
    EXPECT_GT(max_entries, size_t(capacity));
    EXPECT_GE(max_span, 150u);
    EXPECT_GT(violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArbWideProperty,
                         ::testing::Range<uint64_t>(1, 5));

TEST(RingProperty, ArrivalsMonotoneAndOrdered)
{
    Rng rng(7);
    Ring ring(6, 2);
    uint64_t now = 10;
    std::vector<uint64_t> prev_arrival(6, 0);
    for (int i = 0; i < 500; ++i) {
        now += rng.next(3);
        unsigned from = unsigned(rng.next(6));
        std::vector<uint64_t> arr(6);
        ring.broadcast(from, now, now, arr.data());
        // Hop-by-hop arrivals never decrease around the ring.
        for (unsigned h = 1; h < 6; ++h) {
            unsigned p_prev = (from + h - 1) % 6;
            unsigned p = (from + h) % 6;
            EXPECT_GE(arr[p], arr[p_prev]);
            EXPECT_GE(arr[p], now);
        }
        EXPECT_EQ(arr[from], now);
    }
}

TEST(RingProperty, BandwidthNeverExceeded)
{
    // With bandwidth 1, k same-cycle broadcasts from one PU reach the
    // neighbour in k distinct cycles.
    Ring ring(4, 1);
    std::vector<uint64_t> seen;
    for (int i = 0; i < 10; ++i) {
        std::vector<uint64_t> arr(4);
        ring.broadcast(0, 100, 100, arr.data());
        seen.push_back(arr[1]);
    }
    std::sort(seen.begin(), seen.end());
    for (size_t i = 1; i < seen.size(); ++i)
        EXPECT_GT(seen[i], seen[i - 1]);
}

/**
 * The fixed-window ring against the sliding-window reference on
 * seeded streams: 2-8 PUs, bandwidth 1-2, same-cycle bursts of 64+
 * broadcasts, broadcasts from up to Ring::HORIZON cycles back and far
 * enough ahead to outgrow the window, and idle gaps that cross
 * 65,536-cycle boundaries (where the reference is trimmed exactly as
 * the simulator used to trim it).
 */
class RingOracleProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(RingOracleProperty, MatchesSlidingWindowReference)
{
    Rng rng(GetParam());
    for (int stream = 0; stream < 24; ++stream) {
        const unsigned pus = 2 + unsigned(rng.next(7));
        const unsigned bw = 1 + unsigned(rng.next(2));
        Ring ring(pus, bw);
        RefRing ref(pus, bw);
        std::vector<uint64_t> got(pus), want;
        uint64_t now = rng.next(70'000);
        for (int step = 0; step < 1500; ++step) {
            // Advance time: mostly a cycle or two, sometimes an idle
            // gap; trim the reference at the largest crossed 64K mark.
            uint64_t next = now + rng.next(3);
            if (rng.next(100) == 0)
                next = now + 20'000 + rng.next(100'000);
            uint64_t mark = next & ~0xffffull;
            if (mark > now && mark > Ring::HORIZON)
                ref.trimBefore(mark - Ring::HORIZON);
            now = next;

            unsigned burst = rng.next(50) == 0 ? 64 + unsigned(rng.next(64))
                                               : 1 + unsigned(rng.next(3));
            // Mostly at the current cycle; sometimes near the horizon,
            // just past the initial window, or far ahead.
            uint64_t when = now + rng.next(4);
            switch (rng.next(20)) {
              case 0:
                when = now - std::min(now, Ring::HORIZON - rng.next(64));
                break;
              case 1: when = now + Ring::HORIZON + rng.next(64); break;
              case 2: when = now + rng.next(4 * Ring::HORIZON); break;
            }
            for (unsigned b = 0; b < burst; ++b) {
                unsigned from = unsigned(rng.next(pus));
                ring.broadcast(from, when, now, got.data());
                ref.broadcast(from, when, want);
                ASSERT_EQ(got, want) << "stream " << stream << " step "
                                     << step << " pus " << pus
                                     << " bw " << bw << " now " << now;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingOracleProperty,
                         ::testing::Range<uint64_t>(1, 5));

namespace {

struct SimPrep
{
    ir::Program prog;
    tasksel::TaskPartition part;
    TaskStream tasks;
    size_t traceLen = 0;
};

SimPrep
prepRandom(uint64_t seed, tasksel::Strategy s)
{
    SimPrep out{test::makeRandomProgram(seed, 3), {}, {}, 0};
    tasksel::hoistInductionVariables(out.prog);
    auto prof = profile::profileProgram(out.prog);
    tasksel::SelectionOptions opts;
    opts.strategy = s;
    out.part = tasksel::selectTasks(out.prog, prof, opts);
    profile::Interpreter in(out.prog);
    auto trace = in.trace(40'000);
    out.traceLen = trace.size();
    out.tasks = cutTasks(trace, out.part);
    return out;
}

} // anonymous namespace

class ConservationProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ConservationProperty, CyclesAndInstructionsConserved)
{
    for (int s = 0; s < 3; ++s) {
        SimPrep pr = prepRandom(GetParam(), tasksel::Strategy(s));
        SimConfig cfg = SimConfig::paperConfig(4);
        SimStats st = simulate(pr.part, pr.tasks, cfg);

        // Instruction conservation: everything traced retires once.
        ASSERT_EQ(st.retiredInsts, pr.traceLen);
        ASSERT_EQ(st.retiredTasks, pr.tasks.tasks.size());

        // Useful cycles can't exceed what the issue width allows nor
        // undercut what the instruction count requires.
        uint64_t useful =
            st.buckets.counts[size_t(CycleKind::Useful)];
        EXPECT_GE(useful * cfg.issueWidth, st.retiredInsts);
        EXPECT_LE(useful, st.cycles * cfg.numPUs);

        // Fixed overheads are exact per retired task.
        EXPECT_EQ(st.buckets.counts[size_t(CycleKind::TaskEnd)],
                  st.retiredTasks * cfg.taskEndOverhead);

        // Occupied + idle PU-cycles cover the whole envelope.
        EXPECT_LE(st.buckets.total(),
                  (st.cycles + 2) * cfg.numPUs +
                      st.retiredTasks * (cfg.taskStartOverhead +
                                         cfg.taskEndOverhead));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty,
                         ::testing::Range<uint64_t>(30, 40));

class StreamProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(StreamProperty, DynamicStreamAgreesWithPartition)
{
    for (int s = 0; s < 3; ++s) {
        SimPrep pr = prepRandom(GetParam(), tasksel::Strategy(s));
        size_t total = 0;
        const std::vector<DynTask> &tasks = pr.tasks.tasks;
        for (size_t i = 0; i < tasks.size(); ++i) {
            const DynTask &t = tasks[i];
            total += t.size();
            const tasksel::Task &st = pr.part.tasks[t.staticTask];
            auto insts = pr.tasks.instsOf(t);
            // Starts at the static entry.
            ASSERT_EQ(pr.tasks.stat(insts.front()).ref.block, st.entry);
            // Every instruction's block is a member of the static
            // task (included calls aside — random programs have no
            // calls).
            for (const DynInst &di : insts)
                ASSERT_TRUE(st.contains(pr.tasks.stat(di).ref.block))
                    << "dyn task " << i;
            // The recorded successor matches the next task's entry.
            if (i + 1 < tasks.size()) {
                ASSERT_TRUE(t.nextEntry.valid());
                ASSERT_EQ(t.nextEntry.block,
                          pr.part.tasks[tasks[i + 1].staticTask]
                              .entry);
            }
        }
        ASSERT_EQ(total, pr.traceLen);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamProperty,
                         ::testing::Range<uint64_t>(50, 58));

TEST(StatsProperty, PerBranchNormalizationBounds)
{
    SimStats s;
    s.taskPredictions = 1000;
    s.taskMispredictions = 100;
    s.dynTasks = 1000;
    s.dynTaskInsts = 10000;
    s.dynTaskCtlInsts = 3000;  // 3 branches/task.
    double per_branch = s.perBranchMispredictPct();
    // Normalized rate is below the per-task rate and above rate/b.
    EXPECT_LT(per_branch, s.taskMispredictPct());
    EXPECT_GT(per_branch, s.taskMispredictPct() / 3.5);
}

TEST(StatsProperty, WindowSpanFormulaLimits)
{
    SimStats s;
    s.dynTasks = 100;
    s.dynTaskInsts = 2000;      // 20 insts/task.
    s.taskPredictions = 1000;
    s.taskMispredictions = 0;   // Perfect prediction.
    EXPECT_DOUBLE_EQ(s.formulaWindowSpan(4), 80.0);
    s.taskMispredictions = 1000;  // Never right: window = one task.
    EXPECT_DOUBLE_EQ(s.formulaWindowSpan(4), 20.0);
}
