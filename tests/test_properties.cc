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
        for (auto &[a, v] : _acc)
            for (auto it = v.begin(); it != v.end();)
                it = (it->first >= task) ? v.erase(it) : std::next(it);
    }

    void
    retireUpTo(TaskSeq task)
    {
        for (auto &[a, v] : _acc)
            for (auto it = v.begin(); it != v.end();)
                it = (it->first <= task) ? v.erase(it) : std::next(it);
    }

  private:
    struct Rec
    {
        bool loaded = false, stored = false;
        std::optional<TaskSeq> src;
    };
    std::map<uint64_t, std::map<TaskSeq, Rec>> _acc;
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

TEST(RingProperty, ArrivalsMonotoneAndOrdered)
{
    Rng rng(7);
    Ring ring(6, 2);
    uint64_t now = 10;
    std::vector<uint64_t> prev_arrival(6, 0);
    for (int i = 0; i < 500; ++i) {
        now += rng.next(3);
        unsigned from = unsigned(rng.next(6));
        std::vector<uint64_t> arr;
        ring.broadcast(from, now, arr);
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
        std::vector<uint64_t> arr;
        ring.broadcast(0, 100, arr);
        seen.push_back(arr[1]);
    }
    std::sort(seen.begin(), seen.end());
    for (size_t i = 1; i < seen.size(); ++i)
        EXPECT_GT(seen[i], seen[i - 1]);
}

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
