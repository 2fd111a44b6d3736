/**
 * @file
 * Unit tests for the hardware component models: caches, ARB, sync
 * table, predictors, and the forwarding ring.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "arch/arb.h"
#include "arch/cache.h"
#include "arch/predictors.h"
#include "arch/ring.h"
#include "arch/stats.h"
#include "arch/synctable.h"

using namespace msc;
using namespace msc::arch;

TEST(Cache, HitAfterFill)
{
    CacheConfig cfg{1024, 2, 32, 1, 1};
    Cache c(cfg);
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x104));  // Same 32B line.
    EXPECT_FALSE(c.access(0x120)); // Next line.
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 64B per set-pair: sets = 1024/(32*2) = 16 sets.
    CacheConfig cfg{1024, 2, 32, 1, 1};
    Cache c(cfg);
    uint64_t set_stride = 16 * 32;  // Same set index.
    c.access(0);
    c.access(set_stride);
    EXPECT_TRUE(c.probe(0));
    EXPECT_TRUE(c.probe(set_stride));
    c.access(0);                    // Touch 0: stride becomes LRU.
    c.access(2 * set_stride);       // Evicts set_stride.
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(set_stride));
    EXPECT_TRUE(c.probe(2 * set_stride));
}

TEST(Cache, ProbeDoesNotFill)
{
    CacheConfig cfg{1024, 2, 32, 1, 1};
    Cache c(cfg);
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.accesses(), 0u);
}

TEST(Cache, RejectsGeometryTheShiftsCannotIndex)
{
    auto rejects = [](CacheConfig cfg) {
        EXPECT_THROW(Cache{cfg}, std::invalid_argument)
            << cfg.sizeBytes << "/" << cfg.assoc << "/" << cfg.blockBytes;
    };
    rejects({1024, 2, 24, 1, 1});       // 24-byte blocks.
    rejects({3 * 32 * 2, 2, 32, 1, 1}); // 3 sets.
    rejects({1024, 0, 32, 1, 1});       // No ways.
    rejects({1024, 2, 32, 1, 0});       // No banks.

    SimConfig cfg;
    cfg.l1d.blockBytes = 48;
    EXPECT_THROW(MemoryHierarchy{cfg}, std::invalid_argument);

    // Every geometry in the tree is accepted: the paper's (any PU
    // count) and bench_micro's 4 KB direct-mapped L1s.
    for (unsigned pus : {1u, 3u, 4u, 6u, 8u})
        EXPECT_NO_THROW(MemoryHierarchy{SimConfig::paperConfig(pus)});
    EXPECT_NO_THROW(Cache(CacheConfig{4 * 1024, 1, 32, 1, 4}));
}

TEST(Cache, BankCountNeedNotBeAPowerOfTwo)
{
    // paperConfig(3) interleaves 3 banks: blocks rotate over them.
    Cache c(CacheConfig{1024, 2, 32, 1, 3});
    EXPECT_EQ(c.bankOf(0), 0u);
    EXPECT_EQ(c.bankOf(32), 1u);
    EXPECT_EQ(c.bankOf(64 + 31), 2u);
    EXPECT_EQ(c.bankOf(96), 0u);
    Cache four(CacheConfig{1024, 2, 32, 1, 4});
    EXPECT_EQ(four.bankOf(3 * 32), 3u);
    EXPECT_EQ(four.bankOf(4 * 32), 0u);
}

TEST(MemoryHierarchyTest, LatenciesCompose)
{
    SimConfig cfg;
    MemoryHierarchy h(cfg);
    // Cold access: L1 miss + L2 miss + memory.
    uint64_t t1 = h.dataAccess(0x1000, 100);
    EXPECT_EQ(t1, 100 + cfg.l1d.hitLatency + cfg.l2.hitLatency
              + cfg.memLatency);
    // Warm access next cycle: L1 hit.
    uint64_t t2 = h.dataAccess(0x1000, 200);
    EXPECT_EQ(t2, 200 + cfg.l1d.hitLatency);
}

TEST(MemoryHierarchyTest, BankConflictSerializes)
{
    SimConfig cfg;
    cfg.l1d.banks = 2;
    MemoryHierarchy h(cfg);
    h.dataAccess(0, 10);
    h.dataAccess(0, 10);
    // Third same-bank access at the same cycle queues two deep.
    uint64_t t = h.dataAccess(0, 10);
    EXPECT_GE(t, 12 + cfg.l1d.hitLatency);
    // A different bank is free.
    uint64_t u = h.dataAccess(32, 10);
    EXPECT_LE(u, 10 + cfg.l1d.hitLatency + cfg.l2.hitLatency
              + cfg.memLatency);
}

TEST(ArbTest, StoreThenYoungerLoadIsFine)
{
    Arb arb(64);
    arb.recordStore(1, 100);
    arb.recordLoad(2, 100, 0x400);
    // The younger load saw task 1's version: no violation when task 1
    // stores elsewhere or even again to the same address.
    auto r = arb.recordStore(1, 100);
    EXPECT_EQ(r.victim, NO_TASK);
}

TEST(ArbTest, PrematureLoadViolates)
{
    Arb arb(64);
    arb.recordLoad(3, 200, 0x404);     // Task 3 loads first...
    auto r = arb.recordStore(2, 200);  // ...then task 2 stores.
    EXPECT_EQ(r.victim, 3u);
    EXPECT_EQ(r.loadPc, 0x404u);
}

TEST(ArbTest, InterveningStoreShieldsLoad)
{
    Arb arb(64);
    arb.recordStore(3, 300);           // Task 3 stores...
    arb.recordLoad(4, 300, 0x408);     // ...task 4 reads task 3's value.
    auto r = arb.recordStore(2, 300);  // Task 2's store is older than 3.
    EXPECT_EQ(r.victim, NO_TASK) << "load got its value from task 3";
}

TEST(ArbTest, OwnStoreShieldsOwnLoad)
{
    Arb arb(64);
    arb.recordStore(5, 400);
    arb.recordLoad(5, 400, 0x40c);     // Reads its own store.
    auto r = arb.recordStore(4, 400);
    EXPECT_EQ(r.victim, NO_TASK);
}

TEST(ArbTest, OldestViolatorWins)
{
    Arb arb(64);
    arb.recordLoad(5, 500, 0x500);
    arb.recordLoad(3, 500, 0x504);
    auto r = arb.recordStore(2, 500);
    EXPECT_EQ(r.victim, 3u);
}

TEST(ArbTest, SquashRemovesYoungAccesses)
{
    Arb arb(64);
    arb.recordLoad(3, 600, 0x600);
    arb.recordLoad(4, 601, 0x604);
    arb.squashFrom(4);
    auto r = arb.recordStore(2, 601);
    EXPECT_EQ(r.victim, NO_TASK);      // Task 4's load was squashed.
    auto r2 = arb.recordStore(2, 600);
    EXPECT_EQ(r2.victim, 3u);          // Task 3 survives.
}

TEST(ArbTest, RetireReleasesEntries)
{
    Arb arb(2);
    arb.recordLoad(1, 700, 0);
    arb.recordLoad(1, 701, 0);
    EXPECT_TRUE(arb.full());
    arb.retireUpTo(1);
    EXPECT_FALSE(arb.full());
    EXPECT_EQ(arb.entriesInUse(), 0u);
}

TEST(SyncTableTest, RemembersAndEvicts)
{
    SyncTable st(2);
    st.insert(0x10, 0x90);
    st.insert(0x20, 0xa0);
    EXPECT_EQ(st.producerOf(0x10), 0x90u);
    EXPECT_EQ(st.producerOf(0x20), 0xa0u);
    EXPECT_EQ(st.producerOf(0x30), 0u);
    st.insert(0x30, 0xb0);             // Evicts one entry.
    EXPECT_EQ(st.size(), 2u);
    EXPECT_EQ(st.producerOf(0x30), 0xb0u);
}

TEST(GshareTest, LearnsBias)
{
    Gshare g(8, 1024);
    for (int i = 0; i < 16; ++i)
        g.update(0x40, true);
    EXPECT_TRUE(g.predict(0x40));
    for (int i = 0; i < 16; ++i)
        g.update(0x40, false);
    EXPECT_FALSE(g.predict(0x40));
}

TEST(GshareTest, LearnsAlternation)
{
    Gshare g(8, 4096);
    // Strict alternation is capturable through history.
    bool v = false;
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        v = !v;
        if (i > 100 && g.predict(0x80) == v)
            ++correct;
        g.update(0x80, v);
    }
    EXPECT_GT(correct, 280);
}

TEST(TaskPredictorTest, LearnsDominantTarget)
{
    TaskPredictor tp(8, 4096, 4);
    for (int i = 0; i < 32; ++i)
        tp.update(0x100, 2);
    EXPECT_EQ(tp.predict(0x100), 2u);
}

TEST(TaskPredictorTest, KeepsEveryTargetOfANonPowerOfTwoCount)
{
    // With 3 targets, target 1 must be stored as 1 (masking with
    // maxTargets - 1 = 2 turned it into 0).
    TaskPredictor tp(8, 4096, 3);
    for (int i = 0; i < 32; ++i)
        tp.update(0x100, 1);
    EXPECT_EQ(tp.predict(0x100), 1u);
}

TEST(TaskPredictorTest, PathHistoryDisambiguates)
{
    TaskPredictor tp(8, 1 << 16, 4);
    // Task B's successor depends on whether A or C preceded it:
    // sequence A->B->0, C->B->1, repeated. A path-based predictor
    // learns it; a history-less table would sit near 50%.
    int correct = 0, total = 0;
    for (int round = 0; round < 300; ++round) {
        bool via_a = (round & 1) == 0;
        tp.update(via_a ? 0xA00 : 0xC00, 0);
        unsigned pred = tp.predict(0xB00);
        unsigned actual = via_a ? 0 : 1;
        if (round > 100) {
            ++total;
            if (pred == actual)
                ++correct;
        }
        tp.update(0xB00, actual);
    }
    EXPECT_GT(correct * 100, total * 90);
}

TEST(RasTest, LifoBehaviour)
{
    ReturnAddressStack ras(4);
    ras.push({0, 1});
    ras.push({0, 2});
    EXPECT_EQ(ras.pop(), (ir::BlockRef{0, 2}));
    EXPECT_EQ(ras.pop(), (ir::BlockRef{0, 1}));
    EXPECT_FALSE(ras.pop().valid());
}

TEST(RasTest, OverflowDropsOldest)
{
    ReturnAddressStack ras(2);
    ras.push({0, 1});
    ras.push({0, 2});
    ras.push({0, 3});
    EXPECT_EQ(ras.size(), 2u);
    EXPECT_EQ(ras.pop(), (ir::BlockRef{0, 3}));
    EXPECT_EQ(ras.pop(), (ir::BlockRef{0, 2}));
    EXPECT_FALSE(ras.pop().valid());
}

TEST(RingTest, AdjacentBypassSameCycle)
{
    Ring ring(4, 2);
    std::vector<uint64_t> arr(4);
    ring.broadcast(0, 100, 100, arr.data());
    EXPECT_EQ(arr[0], 100u);
    EXPECT_EQ(arr[1], 100u);   // Same-cycle bypass to the neighbour.
    EXPECT_EQ(arr[2], 101u);
    EXPECT_EQ(arr[3], 102u);
}

TEST(RingTest, BandwidthLimitsQueueing)
{
    Ring ring(2, 1);           // 1 value/cycle/link.
    std::vector<uint64_t> a1(2), a2(2), a3(2);
    ring.broadcast(0, 50, 50, a1.data());
    ring.broadcast(0, 50, 50, a2.data());
    ring.broadcast(0, 50, 50, a3.data());
    EXPECT_EQ(a1[1], 50u);
    EXPECT_EQ(a2[1], 51u);     // Second value waits a cycle.
    EXPECT_EQ(a3[1], 52u);
}

TEST(RingTest, WrapsAroundFromAnyPu)
{
    Ring ring(4, 2);
    std::vector<uint64_t> arr(4);
    ring.broadcast(2, 10, 10, arr.data());
    EXPECT_EQ(arr[2], 10u);
    EXPECT_EQ(arr[3], 10u);
    EXPECT_EQ(arr[0], 11u);
    EXPECT_EQ(arr[1], 12u);
}

// ---------------------------------------------------------------------
// SimStats formatting.

TEST(FormatBucketsTest, PercentColumnSumsToWhole)
{
    SimStats s;
    s.buckets.add(CycleKind::Useful, 600);
    s.buckets.add(CycleKind::TaskStart, 250);
    s.buckets.add(CycleKind::LoadImbalance, 150);
    std::string out = formatBuckets(s);

    EXPECT_NE(out.find("useful"), std::string::npos);
    EXPECT_NE(out.find("60.0%"), std::string::npos);
    EXPECT_NE(out.find("25.0%"), std::string::npos);
    EXPECT_NE(out.find("15.0%"), std::string::npos);
    // Total row carries the occupied sum.
    EXPECT_NE(out.find("total-occupied"), std::string::npos);
    EXPECT_NE(out.find("1000"), std::string::npos);
    // The dominant category gets the longest bar.
    EXPECT_NE(out.find("|###"), std::string::npos);
}

TEST(FormatBucketsTest, EveryKindListedOnce)
{
    SimStats s;
    std::string out = formatBuckets(s);
    for (size_t i = 0; i < NUM_CYCLE_KINDS; ++i)
        EXPECT_NE(out.find(cycleKindName(CycleKind(i))),
                  std::string::npos)
            << cycleKindName(CycleKind(i));
}

TEST(FormatBucketsTest, ZeroTotalRendersZeroPercents)
{
    SimStats s;                     // All buckets zero.
    std::string out = formatBuckets(s);
    EXPECT_EQ(out.find("nan"), std::string::npos);
    EXPECT_EQ(out.find("inf"), std::string::npos);
    EXPECT_EQ(out.find('#'), std::string::npos);  // No bars.
    EXPECT_NE(out.find("0.0%"), std::string::npos);
    EXPECT_NE(out.find("total-occupied"), std::string::npos);
}

TEST(SimStatsTest, RegisterHistogramMatchesArchRegCount)
{
    // The shared constant (arch/config.h) keeps the diagnostic
    // histogram and the IR's register file in lockstep.
    SimStats s;
    EXPECT_EQ(s.extWaitByReg.size(), size_t(NUM_REGS));
    EXPECT_EQ(unsigned(NUM_REGS), unsigned(msc::ir::NUM_REGS));
}
