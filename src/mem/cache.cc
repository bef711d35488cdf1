#include "mem/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rsep::mem
{

CacheLevel::CacheLevel(const CacheParams &params) : p(params)
{
    u64 lines = p.sizeBytes / lineBytes;
    if (lines % p.assoc != 0)
        rsep_fatal("%s: size/assoc mismatch", p.name.c_str());
    sets = static_cast<unsigned>(lines / p.assoc);
    if (!isPowerOf2(sets))
        rsep_fatal("%s: set count must be a power of two (got %u)",
                   p.name.c_str(), sets);
    ways.assign(lines, Way{});
}

bool
CacheLevel::accessTags(Addr addr)
{
    size_t s = setOf(addr);
    Addr tag = tagOf(addr);
    ++useClock;
    Way *victim = nullptr;
    for (unsigned w = 0; w < p.assoc; ++w) {
        Way &way = ways[s * p.assoc + w];
        if (way.valid && way.tag == tag) {
            way.lastUse = useClock;
            ++hits;
            return true;
        }
        if (!victim || (!way.valid && victim->valid) ||
            (way.valid == victim->valid && way.lastUse < victim->lastUse))
            victim = &way;
    }
    ++misses;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock;
    return false;
}

bool
CacheLevel::peek(Addr addr) const
{
    size_t s = setOf(addr);
    Addr tag = tagOf(addr);
    for (unsigned w = 0; w < p.assoc; ++w) {
        const Way &way = ways[s * p.assoc + w];
        if (way.valid && way.tag == tag)
            return true;
    }
    return false;
}

void
CacheLevel::reapMshrs(Cycle now)
{
    for (auto it = outstanding.begin(); it != outstanding.end();) {
        if (it->second <= now)
            it = outstanding.erase(it);
        else
            ++it;
    }
}

std::optional<Cycle>
CacheLevel::pendingFill(Addr addr, Cycle now)
{
    reapMshrs(now);
    auto it = outstanding.find(addr >> lineShift);
    if (it == outstanding.end())
        return std::nullopt;
    ++mshrMerges;
    return it->second;
}

Cycle
CacheLevel::trackMiss(Addr addr, Cycle now, Cycle ready)
{
    reapMshrs(now);
    Addr line = addr >> lineShift;
    auto it = outstanding.find(line);
    if (it != outstanding.end()) {
        // Merge into the in-flight miss for the same line.
        ++mshrMerges;
        return it->second;
    }
    if (outstanding.size() >= p.mshrs) {
        // All MSHRs busy: the request waits for the earliest to free.
        ++mshrStalls;
        Cycle earliest = invalidCycle;
        for (const auto &[l, r] : outstanding)
            earliest = std::min(earliest, r);
        Cycle delay = earliest > now ? earliest - now : 0;
        ready += delay;
    }
    outstanding[line] = ready;
    return ready;
}

} // namespace rsep::mem
