#include "mem/hierarchy.hh"

namespace rsep::mem
{

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : p(params), l1i(p.l1i), l1d(p.l1d), l2(p.l2), l3(p.l3), ddr(p.dram),
      itlb(p.itlbEntries, p.tlbWalkLatency),
      dtlb(p.dtlbEntries, p.tlbWalkLatency)
{
}

Cycle
MemoryHierarchy::fillFromBeyondL1(Addr addr, Cycle now,
                                  bool run_prefetch)
{
    // L2.
    if (auto pend = l2.pendingFill(addr, now))
        return std::max(*pend, now + p.l2.latency);
    bool l2_hit = l2.accessTags(addr);
    if (run_prefetch && p.enablePrefetch) {
        if (Addr pf = l2Stream.observe(addr)) {
            // Prefetched lines are pulled through the L3 (inclusive
            // fill path), so streamed data becomes L3-resident.
            if (!l2.peek(pf) && !l2.pendingFill(pf, now)) {
                Cycle src;
                if (l3.pendingFill(pf, now) || l3.peek(pf)) {
                    l3.accessTags(pf);
                    src = now + p.l3.latency;
                } else {
                    l3.accessTags(pf);
                    src = ddr.access(pf, now + p.l3.latency);
                    l3.trackMiss(pf, now, src);
                }
                l2.accessTags(pf);
                ++l2.prefetchFills;
                l2.trackMiss(pf, now, src);
            }
        }
    }
    if (l2_hit)
        return now + p.l2.latency;

    // L3.
    Cycle fill;
    if (auto pend = l3.pendingFill(addr, now)) {
        fill = std::max(*pend, now + p.l3.latency);
    } else {
        bool l3_hit = l3.accessTags(addr);
        if (run_prefetch && p.enablePrefetch) {
            if (Addr pf = l3Stream.observe(addr))
                prefetchInto(l3, pf, now, ddr.minLatency());
        }
        if (l3_hit) {
            fill = now + p.l3.latency;
        } else {
            fill = ddr.access(addr, now + p.l3.latency);
            fill = l3.trackMiss(addr, now, fill);
        }
    }
    return l2.trackMiss(addr, now, fill);
}

void
MemoryHierarchy::prefetchInto(CacheLevel &level, Addr addr, Cycle now,
                              Cycle source_latency)
{
    if (level.peek(addr) || level.pendingFill(addr, now))
        return;
    level.accessTags(addr);
    ++level.prefetchFills;
    level.trackMiss(addr, now, now + source_latency);
}

Cycle
MemoryHierarchy::ifetch(Addr addr, Cycle now)
{
    Cycle tlb_lat = itlb.access(addr);
    now += tlb_lat;
    if (auto pend = l1i.pendingFill(addr, now))
        return std::max(*pend, now + p.l1i.latency);
    if (l1i.accessTags(addr))
        return now + p.l1i.latency;
    Cycle fill = fillFromBeyondL1(addr, now, false);
    return l1i.trackMiss(addr, now, fill);
}

Cycle
MemoryHierarchy::load(Addr pc, Addr addr, Cycle now)
{
    Cycle tlb_lat = dtlb.access(addr);
    now += tlb_lat;

    // Degree-1 stride prefetch into L1D.
    if (p.enablePrefetch) {
        if (Addr pf = l1dStride.observe(pc, addr)) {
            if (!l1d.peek(pf) && !l1d.pendingFill(pf, now)) {
                Cycle src = fillFromBeyondL1(pf, now, false);
                l1d.accessTags(pf);
                ++l1d.prefetchFills;
                l1d.trackMiss(pf, now, src);
            }
        }
    }

    if (auto pend = l1d.pendingFill(addr, now))
        return std::max(*pend, now + p.l1d.latency);
    if (l1d.accessTags(addr))
        return now + p.l1d.latency;
    Cycle fill = fillFromBeyondL1(addr, now, true);
    return l1d.trackMiss(addr, now, fill);
}

void
MemoryHierarchy::storeCommit(Addr addr, Cycle now)
{
    Cycle tlb_lat = dtlb.access(addr);
    now += tlb_lat;
    if (l1d.pendingFill(addr, now))
        return;
    if (l1d.accessTags(addr))
        return;
    // Write-allocate: bring the line in; commit does not wait for it.
    Cycle fill = fillFromBeyondL1(addr, now, true);
    l1d.trackMiss(addr, now, fill);
}

} // namespace rsep::mem
