/**
 * @file
 * The reverse line directory: one open-addressing hash table mapping
 * cache line -> {reader bitmask, writer bitmask} over the in-flight
 * transaction slots (<= 64, one bit per slot).
 *
 * This inverts the legacy per-thread line-set representation. Where
 * the scan engine asked every in-flight transaction "do you hold this
 * line?" (O(threads) hash probes per access), the directory answers
 * "who holds this line?" with a single probe and two bitmask
 * intersections — the same trick a snooping cache directory plays,
 * and the property that keeps per-access cost constant no matter how
 * many transactions are open.
 *
 * Lifetime tricks that keep the hot paths allocation-free:
 *  - cells are validated by an epoch stamp, so dropping the whole
 *    directory (the common case: the last transaction closed) is one
 *    counter increment, not a table walk;
 *  - per-transaction clears flip bits off in place and leave the key
 *    behind; dead keys keep probe chains intact (no tombstone logic)
 *    and are dropped wholesale at the next rehash or epoch clear;
 *  - the table only grows; rehashing re-inserts live keys.
 */

#ifndef TXRACE_HTM_LINEDIR_HH
#define TXRACE_HTM_LINEDIR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/metric.hh"

namespace txrace::htm {

/** Observable behavior of the directory for telemetry (htm.dir.*). */
struct LineDirStats
{
    /** Probe-chain length distribution, one observation per lookup. */
    telemetry::LogHistogram probeLen;
    /** O(1) whole-directory drops (last transaction closed). */
    uint64_t epochClears = 0;
    /** Per-line bit clears walked at commit/abort line lists. */
    uint64_t lineWalkClears = 0;
    /** Times the table grew or compacted away dead keys. */
    uint64_t rehashes = 0;
    /** High-water mark of occupied keys (live + dead this epoch). */
    size_t occupiedPeak = 0;
};

class LineDirectory
{
  public:
    /** Reader/writer slot bitmasks of one cache line. */
    struct Entry
    {
        uint64_t readers = 0;
        uint64_t writers = 0;
    };

    /** @p initialCapacity must be a power of two. */
    explicit LineDirectory(size_t initialCapacity = 256);

    /**
     * Probe for @p line without inserting. Returns nullptr when the
     * line has no entry this epoch. The pointer stays valid until the
     * next findOrInsert/bulkClear (bit mutation never moves cells).
     */
    Entry *find(uint64_t line);

    /**
     * Probe for @p line, inserting an empty entry if absent. May
     * rehash (invalidating previous Entry pointers).
     */
    Entry &findOrInsert(uint64_t line);

    /**
     * Clear slot bit @p slotBit out of @p line's masks (commit/abort
     * line-list walk). Missing entries are ignored: the line may have
     * died with an earlier epoch clear.
     */
    void clearSlot(uint64_t line, uint32_t slotBit);

    /** Drop every entry at once (epoch bump; O(1) amortized). */
    void bulkClear();

    /** Keys occupied this epoch (live + dead-awaiting-rehash). */
    size_t occupied() const { return occupied_; }

    /** Current cell count of the table. */
    size_t capacity() const { return cells_.size(); }

    /**
     * Stats snapshot. Zero-length probes (the overwhelmingly common
     * case) are counted in a plain scalar on the hot path and folded
     * into the histogram here, at read time.
     */
    LineDirStats
    stats() const
    {
        LineDirStats out = stats_;
        out.probeLen.observeMany(0, probeZero_);
        return out;
    }

    /** Test hook: jump the epoch counter to @p e to exercise
     *  wraparound without 2^32 bulkClear calls. */
    void debugSetEpoch(uint32_t e) { epoch_ = e; }
    uint32_t debugEpoch() const { return epoch_; }

  private:
    struct Cell
    {
        uint64_t line = 0;
        uint32_t epoch = 0;  ///< valid iff == directory epoch
        Entry e;
    };

    static uint64_t
    mix(uint64_t line)
    {
        // SplitMix64 finalizer as a stateless hash of the line index.
        uint64_t z = line + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Grow/compact: re-insert live keys, drop dead ones. */
    void rehash();

    /** Insert @p line into a table known to have room (post-rehash). */
    Entry &insertFresh(uint64_t line);

    void
    recordProbe(uint64_t len)
    {
        if (len == 0)
            ++probeZero_;
        else
            stats_.probeLen.observe(len);
    }

    std::vector<Cell> cells_;
    size_t mask_;  ///< capacity - 1
    uint32_t epoch_ = 1;
    size_t occupied_ = 0;
    /** Count of probe chains of length 0 (folded in by stats()). */
    uint64_t probeZero_ = 0;
    LineDirStats stats_;
};

// The probe pair is the engine's per-access hot path; defined here so
// it inlines into HtmEngine::accessDirectory instead of paying a
// cross-TU call per memory access.

inline LineDirectory::Entry *
LineDirectory::find(uint64_t line)
{
    size_t idx = mix(line) & mask_;
    uint64_t len = 0;
    while (true) {
        Cell &c = cells_[idx];
        if (c.epoch != epoch_) {
            recordProbe(len);
            return nullptr;
        }
        if (c.line == line) {
            recordProbe(len);
            return &c.e;
        }
        idx = (idx + 1) & mask_;
        ++len;
    }
}

inline LineDirectory::Entry &
LineDirectory::findOrInsert(uint64_t line)
{
    size_t idx = mix(line) & mask_;
    uint64_t len = 0;
    while (true) {
        Cell &c = cells_[idx];
        if (c.epoch != epoch_) {
            // The load-factor check only matters when actually
            // inserting, so the (dominant) found case never pays it.
            // Growing happens before the insert, so the returned
            // reference always points into the current table.
            if ((occupied_ + 1) * 4 > cells_.size() * 3) {
                rehash();
                return insertFresh(line);
            }
            c.line = line;
            c.epoch = epoch_;
            c.e = Entry{};
            ++occupied_;
            if (occupied_ > stats_.occupiedPeak)
                stats_.occupiedPeak = occupied_;
            recordProbe(len);
            return c.e;
        }
        if (c.line == line) {
            recordProbe(len);
            return c.e;
        }
        idx = (idx + 1) & mask_;
        ++len;
    }
}

// Inline for the same reason: HtmEngine::release walks a closing
// transaction's line list through it. The probe goes through find(),
// so every clear is one observed probe as before.
inline void
LineDirectory::clearSlot(uint64_t line, uint32_t slotBit)
{
    if (Entry *e = find(line)) {
        uint64_t bit = ~(uint64_t{1} << slotBit);
        e->readers &= bit;
        e->writers &= bit;
        ++stats_.lineWalkClears;
    }
}

} // namespace txrace::htm

#endif // TXRACE_HTM_LINEDIR_HH
