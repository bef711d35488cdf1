/**
 * @file
 * FIFO commit history for pair discovery (paper Sections IV-B2/IV-D2).
 *
 * Holds the hashes and 10-bit Commit Sequence Numbers of the last N
 * committed register-producing instructions (the explicit-IDist
 * variant; an implicit variant that pushes *all* instructions is also
 * provided for the Section IV-D2 trade-off study). Committing
 * instructions compare their hash against the history; the match
 * yields the IDist used to train the distance predictor.
 *
 * Hardware compares the probe against every entry, newest first. The
 * simulator reaches the same answer through a hash-chained index over
 * the ring (DESIGN.md §15): a probe visits only the producers in its
 * hash bucket, and `comparisons` is still the hardware's comparator
 * count, derived from producer ordinals.
 */

#ifndef RSEP_RSEP_FIFO_HISTORY_HH
#define RSEP_RSEP_FIFO_HISTORY_HH

#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rsep::equality
{

/** Number of bits in a Commit Sequence Number (wraps, paper uses 10). */
constexpr unsigned csnBits = 10;
constexpr u32 csnMask = (1u << csnBits) - 1;

/**
 * Distance between two CSNs with wraparound (young - old mod 2^10).
 * Valid while true distances stay below 2^csnBits.
 */
inline u32
csnDistance(u32 young, u32 old)
{
    return (young - old) & csnMask;
}

/** A discovered pair. */
struct HistoryMatch
{
    u32 distance = 0;     ///< IDist in committed instructions.
    u64 producerSeq = 0;  ///< simulator bookkeeping (not hardware state).
    u64 producerValue = 0;///< simulator bookkeeping (false-pair stats).
    bool matchedPredicted = false; ///< match at the propagated distance.
};

/** The FIFO history. */
class FifoHistory
{
  public:
    /**
     * @param depth entries kept (register producers for the explicit
     *        variant, all instructions for the implicit one).
     * @param implicit_all push non-producers too (implicit variant).
     */
    explicit FifoHistory(unsigned depth = 128, bool implicit_all = false);

    /**
     * Find the match for @p hash from an instruction at CSN @p csn.
     * Prefers an entry whose distance equals @p predicted_dist (the
     * distance propagated from prediction time, Section VI-A2), else
     * returns the most recent (nearest) match.
     */
    std::optional<HistoryMatch>
    match(u16 hash, u32 csn, std::optional<u32> predicted_dist) const;

    /**
     * Push a committed instruction into the history. @p value is
     * simulator bookkeeping only (hash false-positive statistics);
     * hardware stores just hash + CSN.
     */
    void push(u16 hash, u32 csn, u64 seq, bool produces_reg, u64 value = 0);

    void clear();

    unsigned depth() const { return static_cast<unsigned>(cap); }
    bool implicitVariant() const { return implicitAll; }
    /** Current number of valid entries. */
    unsigned size() const { return static_cast<unsigned>(valid); }

    /** Storage for the cost model (hash + CSN per entry, explicit). */
    u64 storageBits(unsigned hash_bits) const;

    /** Comparisons performed (for the Section IV-D comparator study). */
    mutable StatCounter comparisons;
    StatCounter pushes;
    mutable StatCounter matches;
    mutable StatCounter predictedDistanceMatches;

  private:
    struct Entry
    {
        u16 hash = 0;
        u32 csn = 0;
        u64 seq = 0;
        u64 value = 0;
        u64 prodOrd = 0; ///< producers pushed before this entry.
        u64 older = 0;   ///< link to the next-older producer in the bucket.
    };

    /** The entry pushed with ordinal @p ord (valid while it is live). */
    const Entry &at(u64 ord) const { return ring[ord & ringMask]; }
    /** Register producers among the live entries. */
    u64 liveProducers() const;

    // Links (bucket heads and Entry::older) hold a push ordinal + 1, so
    // 0 means "none". Ordinals below pushCount - valid are dead: their
    // slots may have been overwritten, and a walk stops at the first.
    std::vector<Entry> ring;  ///< power-of-two slots >= depth.
    std::vector<u64> buckets; ///< newest producer link per hash bucket.
    size_t cap;
    u64 ringMask;
    u64 bucketMask;
    u64 pushCount = 0; ///< ordinals handed out.
    u64 prodCount = 0; ///< producers among them.
    size_t valid = 0;
    bool implicitAll;
};

} // namespace rsep::equality

#endif // RSEP_RSEP_FIFO_HISTORY_HH
