/**
 * @file
 * Tests for the differential fuzzing subsystem: the unbiased RNG, the
 * program generator's hard guarantees (validity, termination,
 * determinism, round-tripping), the replay oracles' sensitivity to
 * tampered streams, the end-to-end differential harness, and the
 * shrinker's ability to minimize an injected selector bug.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include <set>

#include "arch/taskstream.h"
#include "fuzz/corpus.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/replay.h"
#include "fuzz/rng.h"
#include "fuzz/shrink.h"
#include "helpers.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "profile/interpreter.h"
#include "profile/profiler.h"
#include "tasksel/pverify.h"
#include "tasksel/selector.h"

using namespace msc;

namespace {

constexpr uint64_t kRunBudget = 2'000'000;

fuzz::GenOptions
genOpts(uint64_t seed)
{
    fuzz::GenOptions o;
    o.sizeClass = unsigned(seed % 4);
    return o;
}

} // anonymous namespace

TEST(FuzzRng, BoundedDrawsStayInBoundAndCoverIt)
{
    fuzz::Rng rng(test::effectiveSeed(1));
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        uint64_t v = rng.bounded(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);       // Every residue reachable.
    EXPECT_EQ(rng.bounded(0), 0u);
    EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(FuzzRng, RangeIsInclusiveOnBothEnds)
{
    fuzz::Rng rng(test::effectiveSeed(2));
    bool lo = false, hi = false;
    for (int i = 0; i < 4000; ++i) {
        int64_t v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        lo |= v == -3;
        hi |= v == 3;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(FuzzRng, DeterministicPerSeed)
{
    fuzz::Rng a(99), b(99), c(100);
    bool differs = false;
    for (int i = 0; i < 64; ++i) {
        uint64_t va = a.next();
        ASSERT_EQ(va, b.next());
        differs |= va != c.next();
    }
    EXPECT_TRUE(differs);
}

class FuzzGenerator : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzGenerator, ValidDeterministicHaltingRoundTrips)
{
    uint64_t seed = test::effectiveSeed(GetParam());
    ir::Program p = fuzz::generate(seed, genOpts(seed));

    // Valid by construction.
    std::string err;
    ASSERT_TRUE(ir::verify(p, &err)) << err;

    // Deterministic in the seed.
    ir::Program p2 = fuzz::generate(seed, genOpts(seed));
    EXPECT_EQ(ir::toString(p), ir::toString(p2));

    // Textual round trip is byte-stable and keeps the memory image.
    ir::Program p3 = ir::parseProgram(ir::toString(p));
    EXPECT_EQ(ir::toString(p3), ir::toString(p));
    EXPECT_EQ(p3.memWords, p.memWords);
    EXPECT_EQ(p3.initData, p.initData);

    // Halts well inside the harness budget.
    profile::Interpreter in(p);
    in.runQuiet(kRunBudget);
    EXPECT_TRUE(in.halted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzGenerator,
                         ::testing::Range<uint64_t>(0, 24));

TEST(FuzzGenerator, DistinctSeedsProduceDistinctPrograms)
{
    std::set<std::string> texts;
    for (uint64_t s = 0; s < 16; ++s)
        texts.insert(ir::toString(fuzz::generate(s, genOpts(s))));
    EXPECT_GT(texts.size(), 14u);
}

TEST(FuzzReplay, TraceReplayMatchesInterpreter)
{
    for (uint64_t seed : {3u, 11u, 17u}) {
        ir::Program p = fuzz::generate(seed, genOpts(seed));
        profile::Interpreter in(p);
        profile::Trace t = in.trace(kRunBudget);
        ASSERT_TRUE(t.completed);

        fuzz::ReplayResult r = fuzz::replayTrace(p, t);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.instCount, in.instCount());
        EXPECT_EQ(r.regs, in.regs());
        // r.mem and the interpreter image use different allocators, so
        // compare contents rather than vector objects.
        EXPECT_TRUE(std::equal(r.mem.begin(), r.mem.end(),
                               in.memory().begin(), in.memory().end()));
    }
}

TEST(FuzzReplay, DetectsTamperedBranchOutcome)
{
    ir::Program p = fuzz::generate(5, genOpts(5));
    profile::Interpreter in(p);
    profile::Trace t = in.trace(kRunBudget);
    ASSERT_TRUE(t.completed);

    // Flip the first conditional branch outcome.
    bool flipped = false;
    for (auto &e : t.entries) {
        const ir::Instruction &inst = p.functions[e.ref.func]
            .blocks[e.ref.block].insts[e.ref.index];
        if (inst.op == ir::Opcode::Br || inst.op == ir::Opcode::BrZ) {
            e.taken = !e.taken;
            flipped = true;
            break;
        }
    }
    ASSERT_TRUE(flipped) << "generated program had no branches";

    fuzz::ReplayResult r = fuzz::replayTrace(p, t);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("branch"), std::string::npos) << r.error;
}

TEST(FuzzReplay, DetectsTamperedAddress)
{
    ir::Program p = fuzz::generate(8, genOpts(8));
    profile::Interpreter in(p);
    profile::Trace t = in.trace(kRunBudget);
    ASSERT_TRUE(t.completed);

    bool tampered = false;
    for (auto &e : t.entries) {
        const ir::Instruction &inst = p.functions[e.ref.func]
            .blocks[e.ref.block].insts[e.ref.index];
        if (inst.op == ir::Opcode::Store) {
            e.addr ^= 1;
            tampered = true;
            break;
        }
    }
    ASSERT_TRUE(tampered) << "generated program had no stores";

    fuzz::ReplayResult r = fuzz::replayTrace(p, t);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("address mismatch"), std::string::npos)
        << r.error;
}

TEST(FuzzReplay, DetectsTruncatedTaskStream)
{
    ir::Program p = fuzz::generate(4, genOpts(4));
    auto prof = profile::profileProgram(p, kRunBudget);
    tasksel::SelectionOptions sel;
    sel.strategy = tasksel::Strategy::ControlFlow;
    sel.hoistInductionVars = false;
    tasksel::TaskPartition part = tasksel::selectTasks(p, prof, sel);

    profile::Interpreter in(p);
    profile::Trace t = in.trace(kRunBudget);
    arch::TaskStream stream = arch::cutTasks(t, part);
    ASSERT_GT(stream.tasks.size(), 1u);

    stream.tasks.pop_back();           // Lose the final task.
    fuzz::ReplayResult r = fuzz::replayTaskStream(p, stream, part);
    EXPECT_FALSE(r.ok);
}

class FuzzDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzDifferential, AllOraclesAgree)
{
    uint64_t seed = test::effectiveSeed(GetParam());
    ir::Program p = fuzz::generate(seed, genOpts(seed));
    fuzz::DiffResult d = fuzz::runDifferential(p, {}, kRunBudget);
    EXPECT_TRUE(d.ok()) << fuzz::diffKindName(d.kind) << " ["
                        << d.config << "]: " << d.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<uint64_t>(100, 124));

namespace {

/**
 * The injected (test-only) selector bug: after real control-flow
 * selection, silently drop the last member block from the first
 * multi-block task — exactly the class of bookkeeping error pverify's
 * coverage invariant exists to catch. Returns true when the tampered
 * partition is (correctly) rejected.
 */
bool
injectedBugTrips(const ir::Program &p)
{
    profile::Profile prof;
    tasksel::TaskPartition part;
    tasksel::SelectionOptions sel;
    sel.strategy = tasksel::Strategy::ControlFlow;
    sel.hoistInductionVars = false;
    try {
        prof = profile::profileProgram(p, kRunBudget);
        part = tasksel::selectTasks(p, prof, sel);
    } catch (const std::exception &) {
        return false;
    }
    for (auto &t : part.tasks) {
        if (t.blocks.size() > 1) {
            t.blocks.pop_back();
            return !tasksel::verifyPartition(part, sel);
        }
    }
    return false;   // No multi-block task: bug has nothing to corrupt.
}

} // anonymous namespace

TEST(FuzzShrink, MinimizesInjectedSelectorBug)
{
    // Find a seed whose program exercises the injected bug.
    ir::Program failing;
    bool found = false;
    for (uint64_t seed = 0; seed < 32 && !found; ++seed) {
        ir::Program p = fuzz::generate(seed, genOpts(seed));
        if (injectedBugTrips(p)) {
            failing = std::move(p);
            found = true;
        }
    }
    ASSERT_TRUE(found)
        << "no generated program produced a multi-block CF task";

    size_t blocks_before = 0;
    for (const auto &f : failing.functions)
        blocks_before += f.blocks.size();
    ASSERT_GT(blocks_before, 10u)
        << "program already minimal; injection demo is vacuous";

    fuzz::ShrinkStats st;
    ir::Program small =
        fuzz::shrinkProgram(failing, injectedBugTrips, &st);

    // The shrunk program still fails, still verifies, and is tiny.
    std::string err;
    ASSERT_TRUE(ir::verify(small, &err)) << err;
    EXPECT_TRUE(injectedBugTrips(small));
    EXPECT_LE(st.blocksAfter, 10u)
        << "shrinker left " << st.blocksAfter << " blocks (from "
        << st.blocksBefore << ")";
    EXPECT_LT(st.instsAfter, st.instsBefore);

    // Without the injection the reproducer is clean end to end: the
    // corpus replays green.
    fuzz::DiffResult d = fuzz::runDifferential(small, {}, kRunBudget);
    EXPECT_TRUE(d.ok()) << fuzz::diffKindName(d.kind) << ": "
                        << d.detail;
}

TEST(FuzzCorpus, ReproducerTextRoundTrips)
{
    ir::Program p = fuzz::generate(21, genOpts(21));
    fuzz::ReproInfo info;
    info.seed = 21;
    info.kind = "state-divergence";
    info.config = "cf";
    info.detail = "mem[5]: reference 1, pipeline 2\nsecond line";
    std::string text = fuzz::reproducerText(p, info);

    // Header is comments only; the parser must accept the whole file.
    ir::Program back = ir::parseProgram(text);
    EXPECT_EQ(ir::toString(back), ir::toString(p));
    // Multi-line details must not escape the comment header.
    EXPECT_EQ(text.find("second line"), std::string::npos);
}
