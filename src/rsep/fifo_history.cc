#include "rsep/fifo_history.hh"

#include <algorithm>
#include <bit>

namespace rsep::equality
{

FifoHistory::FifoHistory(unsigned depth, bool implicit_all)
    : ring(std::bit_ceil(std::max<size_t>(depth, 1))),
      buckets(std::bit_ceil(std::max<size_t>(2 * size_t(depth), 2))),
      cap(depth), ringMask(ring.size() - 1), bucketMask(buckets.size() - 1),
      implicitAll(implicit_all)
{
}

void
FifoHistory::clear()
{
    // Every pushed ordinal becomes dead; stale links stop walks as-is.
    valid = 0;
}

void
FifoHistory::push(u16 hash, u32 csn, u64 seq, bool produces_reg, u64 value)
{
    if (!implicitAll && !produces_reg)
        return;
    Entry &e = ring[pushCount & ringMask];
    e = {hash, csn & csnMask, seq, value, prodCount, 0};
    // Only producers are compared, so only producers join a chain.
    if (produces_reg) {
        u64 &newest = buckets[hash & bucketMask];
        e.older = newest;
        newest = pushCount + 1;
        ++prodCount;
    }
    ++pushCount;
    if (valid < cap)
        ++valid;
    ++pushes;
}

u64
FifoHistory::liveProducers() const
{
    return valid == 0 ? 0 : prodCount - at(pushCount - valid).prodOrd;
}

std::optional<HistoryMatch>
FifoHistory::match(u16 hash, u32 csn, std::optional<u32> predicted_dist) const
{
    // Walk the bucket newest -> oldest. The hardware scan compares every
    // producer down to the entry it stops at, which is exactly the
    // producers pushed at or after that entry.
    const u64 first_live = pushCount - valid;
    std::optional<HistoryMatch> nearest;
    for (u64 link = buckets[hash & bucketMask]; link > first_live;) {
        const Entry &e = at(link - 1);
        link = e.older;
        if (e.hash != hash)
            continue;
        u32 dist = csnDistance(csn & csnMask, e.csn);
        // dist == 0 is the probing instruction's own entry; distances
        // beyond half the CSN space are wrapped (an entry younger in
        // the same commit group, or stale) -- hardware knows the scan
        // direction and ignores both.
        if (dist == 0 || dist > csnMask / 2)
            continue;
        if (predicted_dist && dist == *predicted_dist) {
            comparisons += prodCount - e.prodOrd;
            ++matches;
            ++predictedDistanceMatches;
            return HistoryMatch{dist, e.seq, e.value, true};
        }
        if (!nearest) {
            nearest = HistoryMatch{dist, e.seq, e.value, false};
        } else if (!predicted_dist) {
            // Nearest found and nothing better to look for.
            comparisons += prodCount - e.prodOrd;
            ++matches;
            return nearest;
        }
    }
    comparisons += liveProducers();
    if (nearest)
        ++matches;
    return nearest;
}

u64
FifoHistory::storageBits(unsigned hash_bits) const
{
    // Explicit variant: hash + CSN per entry. Implicit variant: hash
    // plus a producer bit (no CSN needed).
    return cap * (implicitAll ? hash_bits + 1 : hash_bits + csnBits);
}

} // namespace rsep::equality
