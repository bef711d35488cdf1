/**
 * @file
 * A set-associative cache level with LRU replacement and MSHR-limited
 * outstanding misses, used for L1I/L1D/L2/L3 (Table I).
 *
 * The model is latency-based: tags are updated at access time and the
 * access returns its completion cycle; fills are not separately
 * scheduled (standard simplification for core-side studies -- the
 * quantities that matter here are hit/miss latencies, MSHR pressure
 * and miss traffic).
 */

#ifndef RSEP_MEM_CACHE_HH
#define RSEP_MEM_CACHE_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rsep::mem
{

constexpr unsigned lineShift = 6;   ///< 64B lines.
constexpr Addr lineBytes = Addr{1} << lineShift;

/** Cache level configuration. */
struct CacheParams
{
    std::string name = "cache";
    u64 sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    Cycle latency = 4;        ///< total load-to-use latency at this level.
    unsigned mshrs = 64;
};

/** One cache level. */
class CacheLevel
{
  public:
    explicit CacheLevel(const CacheParams &params);

    /**
     * Probe for line presence *and* update LRU/allocate on miss.
     * No dirty state is modelled, so loads and stores probe alike.
     * @return true on hit.
     */
    bool accessTags(Addr addr);

    /** Probe without modifying state (for tests/inclusive checks). */
    bool peek(Addr addr) const;

    /**
     * MSHR tracking: register an outstanding miss completing at
     * @p ready. @return the (possibly merged / MSHR-delayed) completion
     * cycle the requester should use.
     */
    Cycle trackMiss(Addr addr, Cycle now, Cycle ready);

    /** Expire finished MSHRs (called lazily from trackMiss too). */
    void reapMshrs(Cycle now);

    /**
     * If a fill for @p addr is still in flight, return its completion
     * cycle (hit-under-fill: tags already allocated but data not back).
     */
    std::optional<Cycle> pendingFill(Addr addr, Cycle now);

    const CacheParams &params() const { return p; }

    StatCounter hits;
    StatCounter misses;
    StatCounter mshrMerges;
    StatCounter mshrStalls;
    StatCounter prefetchFills;

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        u64 lastUse = 0;
    };

    CacheParams p;
    unsigned sets;
    std::vector<Way> ways;
    u64 useClock = 0;
    /** Outstanding line misses: line -> completion cycle. */
    std::map<Addr, Cycle> outstanding;

    size_t setOf(Addr addr) const { return (addr >> lineShift) & (sets - 1); }
    Addr tagOf(Addr addr) const { return addr >> lineShift; }
};

} // namespace rsep::mem

#endif // RSEP_MEM_CACHE_HH
