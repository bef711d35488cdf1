/** @file Memory hierarchy tests: caches, MSHRs, prefetchers, TLB, DRAM. */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"
#include "pred/storesets.hh"

namespace rsep
{
namespace
{

using namespace rsep::mem;

TEST(Cache, HitAfterMiss)
{
    CacheLevel c({.name = "t", .sizeBytes = 4096, .assoc = 4,
                  .latency = 4, .mshrs = 8});
    EXPECT_FALSE(c.accessTags(0x1000));
    EXPECT_TRUE(c.accessTags(0x1000));
    EXPECT_TRUE(c.accessTags(0x1038)); // same 64B line.
    EXPECT_FALSE(c.accessTags(0x1040)); // next line.
    EXPECT_EQ(c.hits.value(), 2u);
    EXPECT_EQ(c.misses.value(), 2u);
}

TEST(Cache, LruEvictsOldest)
{
    // 4 sets x 2 ways, 64B lines: lines mapping to set 0 are 256B apart.
    CacheLevel c({.name = "t", .sizeBytes = 512, .assoc = 2,
                  .latency = 1, .mshrs = 4});
    c.accessTags(0x0);
    c.accessTags(0x100);
    c.accessTags(0x0);   // refresh line 0.
    c.accessTags(0x200); // evicts 0x100.
    EXPECT_TRUE(c.peek(0x0));
    EXPECT_FALSE(c.peek(0x100));
    EXPECT_TRUE(c.peek(0x200));
}

TEST(Cache, MshrMergeSameLine)
{
    CacheLevel c({.name = "t", .sizeBytes = 4096, .assoc = 4,
                  .latency = 4, .mshrs = 8});
    Cycle r1 = c.trackMiss(0x2000, 10, 100);
    EXPECT_EQ(r1, 100u);
    auto pend = c.pendingFill(0x2008, 20); // same line.
    ASSERT_TRUE(pend.has_value());
    EXPECT_EQ(*pend, 100u);
    EXPECT_EQ(c.mshrMerges.value(), 1u);
    // After completion the fill expires.
    EXPECT_FALSE(c.pendingFill(0x2008, 101).has_value());
}

TEST(Cache, MshrCapacityDelays)
{
    CacheLevel c({.name = "t", .sizeBytes = 4096, .assoc = 4,
                  .latency = 4, .mshrs = 2});
    c.trackMiss(0x0, 0, 50);
    c.trackMiss(0x40, 0, 60);
    // Third miss must wait for the earliest MSHR to free (cycle 50).
    Cycle r = c.trackMiss(0x80, 0, 70);
    EXPECT_GE(r, 70u + 50u);
    EXPECT_EQ(c.mshrStalls.value(), 1u);
}

TEST(StridePrefetcherTest, DetectsStrideAfterConfidence)
{
    StridePrefetcher pf(16);
    Addr pc = 0x400100;
    EXPECT_EQ(pf.observe(pc, 0x1000), 0u);
    EXPECT_EQ(pf.observe(pc, 0x1040), 0u); // stride learned.
    EXPECT_EQ(pf.observe(pc, 0x1080), 0u); // confidence building.
    Addr p3 = pf.observe(pc, 0x10c0);
    EXPECT_EQ(p3, 0x1100u); // confident: prefetch next.
}

TEST(StridePrefetcherTest, ResetOnStrideChange)
{
    StridePrefetcher pf(16);
    Addr pc = 0x400100;
    pf.observe(pc, 0x1000);
    pf.observe(pc, 0x1040);
    pf.observe(pc, 0x1080);
    EXPECT_NE(pf.observe(pc, 0x10c0), 0u);
    EXPECT_EQ(pf.observe(pc, 0x5000), 0u); // broken stride.
}

TEST(StreamPrefetcherTest, DetectsSequentialLines)
{
    StreamPrefetcher pf(4);
    EXPECT_EQ(pf.observe(0x10000), 0u);
    Addr p = pf.observe(0x10040); // next line: stream detected.
    EXPECT_EQ(p, 0x10080u);
}

TEST(Tlb, HitMissAndWalkLatency)
{
    Tlb tlb(4, 30);
    EXPECT_EQ(tlb.access(0x1000), 30u);
    EXPECT_EQ(tlb.access(0x1800), 0u); // same page.
    EXPECT_EQ(tlb.access(0x2000), 30u);
    EXPECT_EQ(tlb.misses.value(), 2u);
    EXPECT_EQ(tlb.hits.value(), 1u);
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb(2, 30);
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.access(0x1000); // refresh.
    tlb.access(0x3000); // evicts 0x2000.
    EXPECT_EQ(tlb.access(0x1000), 0u);
    EXPECT_EQ(tlb.access(0x2000), 30u);
}

TEST(DramTest, RowHitFasterThanRowMiss)
{
    Dram d;
    Cycle first = d.access(0x100000, 0);
    Cycle second = d.access(0x100040 + 2 * 64, first);
    (void)second;
    // Statistical check through counters on a same-row pair: access the
    // same address region twice through the same bank.
    Dram d2;
    Cycle a = d2.access(0x0, 0);
    Cycle b = d2.access(0x0, a + 1); // same row, bank reopened.
    EXPECT_LT(b - (a + 1), a - 0); // row hit latency < first access.
    EXPECT_GE(d2.rowHits.value(), 1u);
}

TEST(DramTest, MinLatencyInPaperBallpark)
{
    Dram d;
    // Min read ~36ns -> ~95-130 core cycles at 3.4GHz per Table I.
    EXPECT_GT(d.minLatency(), 60u);
    EXPECT_LT(d.minLatency(), 160u);
}

TEST(DramTest, BankParallelismBeatsSerialAccess)
{
    Dram d;
    // Two accesses to different banks issued together should overlap:
    // completion of the second is far less than 2x a full access.
    Cycle a = d.access(0x0, 0);
    Cycle b = d.access(0x40, 0); // next line -> other channel/bank.
    EXPECT_LT(b, a + a / 2);
}

TEST(Hierarchy, LatenciesMatchTableI)
{
    MemoryHierarchy mh;
    Addr addr = 0x100000;
    Cycle t0 = 1000;
    // Cold: full path to DRAM.
    Cycle cold = mh.load(0x400000, addr, t0);
    EXPECT_GT(cold - t0, 100u);
    // Warm L1: 4-cycle load-to-use (after the fill completes).
    Cycle warm = mh.load(0x400000, addr, cold + 10);
    EXPECT_EQ(warm - (cold + 10), 4u);
}

TEST(Hierarchy, L2AndL3HitLatencies)
{
    MemoryHierarchy mh;
    // Fill a line, then evict it from L1 by touching many lines
    // mapping to the same set; it should then hit in L2 at 12 cycles.
    Addr target = 0x500000;
    Cycle t = mh.load(0x400000, target, 0) + 100;
    // L1D: 32KB 8-way, 64 sets -> same-set lines are 4KB apart.
    for (int i = 1; i <= 9; ++i)
        t = std::max(t, mh.load(0x400000, target + i * 4096, t)) + 200;
    Cycle hit = mh.load(0x400000, target, t + 500);
    EXPECT_EQ(hit - (t + 500), 12u); // L2 latency (Table I).
}

TEST(Hierarchy, IfetchUsesItlbAndL1i)
{
    MemoryHierarchy mh;
    Addr pc = 0x400000;
    Cycle cold = mh.ifetch(pc, 100);
    EXPECT_GT(cold, 101u); // TLB walk + miss path.
    Cycle warm = mh.ifetch(pc, cold + 5);
    EXPECT_EQ(warm - (cold + 5), 1u); // 1-cycle L1I.
}

TEST(Hierarchy, StoreCommitAllocates)
{
    MemoryHierarchy mh;
    Addr addr = 0x700000;
    mh.storeCommit(addr, 100);
    // A shortly-following load to the line merges with the write fill.
    Cycle done = mh.load(0x400000, addr, 110);
    EXPECT_LT(done - 110, 300u);
}

TEST(StoreSetsTest, ViolationCreatesDependence)
{
    pred::StoreSets ss;
    Addr load_pc = 0x400100, store_pc = 0x400200;
    EXPECT_EQ(ss.loadRename(load_pc), 0u);
    ss.reportViolation(load_pc, store_pc);
    SeqNum dep = ss.storeRename(store_pc, 77);
    EXPECT_EQ(dep, 0u); // first store in the set.
    EXPECT_EQ(ss.loadRename(load_pc), 77u);
}

TEST(StoreSetsTest, StoreRetireClearsOwner)
{
    pred::StoreSets ss;
    Addr load_pc = 0x400100, store_pc = 0x400200;
    ss.reportViolation(load_pc, store_pc);
    ss.storeRename(store_pc, 10);
    ss.storeRetire(store_pc, 10);
    EXPECT_EQ(ss.loadRename(load_pc), 0u);
}

TEST(StoreSetsTest, StoreStoreOrderingWithinSet)
{
    pred::StoreSets ss;
    Addr load_pc = 0x400100, s1 = 0x400200, s2 = 0x400300;
    ss.reportViolation(load_pc, s1);
    ss.reportViolation(load_pc, s2); // merge into one set.
    ss.storeRename(s1, 5);
    SeqNum dep = ss.storeRename(s2, 9);
    EXPECT_EQ(dep, 5u); // second store ordered behind the first.
}

TEST(StoreSetsTest, MergeKeepsSmallerSsid)
{
    pred::StoreSets ss;
    ss.reportViolation(0x100, 0x200);
    ss.reportViolation(0x300, 0x400);
    // Merge the two sets via a cross violation.
    ss.reportViolation(0x100, 0x400);
    ss.storeRename(0x400, 21);
    EXPECT_EQ(ss.loadRename(0x100), 21u);
    EXPECT_EQ(ss.violations.value(), 3u);
}

} // namespace
} // namespace rsep
