/**
 * @file
 * Per-thread execution state, including the snapshot/rollback support
 * that stands in for the hardware's transactional register/memory
 * rollback.
 */

#ifndef TXRACE_SIM_CONTEXT_HH
#define TXRACE_SIM_CONTEXT_HH

#include <cstdint>
#include <vector>

#include "ir/program.hh"
#include "sim/costmodel.hh"
#include "support/rng.hh"
#include "support/types.hh"
#include "telemetry/phase.hh"

namespace txrace::sim {

struct DecodedOp;

/** Scheduling state of a simulated thread. */
enum class ThreadState : uint8_t {
    Runnable,
    Blocked,
    Finished,
};

/** Which detection path the thread is currently on (TxRace modes). */
enum class PathMode : uint8_t {
    Fast,  ///< HTM-monitored (or unmonitored when elided)
    Slow,  ///< software happens-before checking until region end
};

/** One active loop of a thread. */
struct LoopFrame
{
    uint32_t beginPc = 0;   ///< pc of the LoopBegin instruction
    uint64_t index = 0;     ///< current iteration, 0-based
    uint64_t total = 0;     ///< trip count resolved at loop entry
    /** Iterations executed inside the current transaction (loop-cut
     *  bookkeeping; rolled back with the frame on abort, exactly the
     *  property §4.3 exploits). */
    uint64_t itersInTx = 0;
};

/**
 * The rollback image of a thread: control state captured when a
 * transaction begins, restored on abort. Memory needs no image
 * because transactional stores never reach memory in this simulator
 * (the HTM engine's write set is discarded on abort) and the
 * simulator is value-agnostic during detection runs.
 */
struct ContextSnapshot
{
    uint32_t pc = 0;
    std::vector<LoopFrame> loops;
    Rng rng;
    bool valid = false;
};

/**
 * Speculative store buffer of one transaction: granule -> value, the
 * software stand-in for the L1's transactional write buffering.
 *
 * Entries live in insertion order in a flat vector; an open-addressing
 * table of slots (granule, epoch, entry index) over a power-of-two
 * array finds them. A slot is live iff its epoch stamp equals the
 * buffer's, so clear() is an epoch bump and never walks the table.
 * The table grows at half load and is allocated on first put(), so a
 * thread that never writes inside a transaction pays nothing.
 */
class TxStoreBuffer
{
  public:
    struct Entry
    {
        uint64_t granule;
        uint64_t value;
    };

    /** Value buffered for @p granule, or nullptr. The pointer stays
     *  valid until the next put() or clear(). */
    const uint64_t *
    find(uint64_t granule) const
    {
        if (entries_.empty())
            return nullptr;
        for (size_t i = hash(granule);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.epoch != epoch_)
                return nullptr;
            if (s.granule == granule)
                return &entries_[s.index].value;
        }
    }

    /** Buffer @p value for @p granule, inserting or overwriting. */
    void
    put(uint64_t granule, uint64_t value)
    {
        if ((entries_.size() + 1) * 2 > slots_.size())
            grow();
        for (size_t i = hash(granule);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.epoch != epoch_) {
                s = Slot{granule, epoch_,
                         static_cast<uint32_t>(entries_.size())};
                entries_.push_back(Entry{granule, value});
                return;
            }
            if (s.granule == granule) {
                entries_[s.index].value = value;
                return;
            }
        }
    }

    /** Drop every entry: O(1) except once per 2^32 clears, when the
     *  epoch wraps and the stamps are reset. */
    void
    clear()
    {
        entries_.clear();
        if (++epoch_ == 0) {
            for (Slot &s : slots_)
                s.epoch = 0;
            epoch_ = 1;
        }
    }

    size_t size() const { return entries_.size(); }

    /** Buffered stores in insertion order; granules are distinct. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Test hook: jump the epoch counter forward to @p e on an empty
     *  buffer, to exercise wraparound without 2^32 clear() calls. */
    void debugSetEpoch(uint32_t e) { epoch_ = e; }

  private:
    struct Slot
    {
        uint64_t granule = 0;
        uint32_t epoch = 0;  ///< live iff == epoch_
        uint32_t index = 0;  ///< into entries_
    };

    size_t
    hash(uint64_t granule) const
    {
        // Fibonacci hashing: consecutive granules (the common store
        // stream) land far apart.
        return static_cast<size_t>((granule * 0x9e3779b97f4a7c15ULL) >>
                                   shift_);
    }

    /** Double the table (16 slots at first) and re-insert every
     *  entry; slot stamps restart at epoch 1. */
    void
    grow()
    {
        size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
        shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(cap));
        epoch_ = 1;
        for (uint32_t k = 0; k < entries_.size(); ++k) {
            size_t i = hash(entries_[k].granule);
            while (slots_[i].epoch == epoch_)
                i = (i + 1) & mask_;
            slots_[i] = Slot{entries_[k].granule, epoch_, k};
        }
    }

    std::vector<Slot> slots_;
    std::vector<Entry> entries_;
    size_t mask_ = 0;
    unsigned shift_ = 64;
    uint32_t epoch_ = 1;
};

/** Full per-thread state. */
struct ThreadContext
{
    Tid tid = 0;
    ir::FuncId func = 0;
    uint32_t pc = 0;
    /** Decoded body of func, bound by the machine at thread start so
     *  the step loop fetches ops without a per-op function lookup.
     *  Stable for the thread's lifetime (func never changes). */
    const DecodedOp *code = nullptr;
    uint32_t codeLen = 0;
    std::vector<LoopFrame> loops;
    Rng rng;
    ThreadState state = ThreadState::Runnable;

    /** @name Policy scratch (owned by the active ExecutionPolicy) */
    /** @{ */
    PathMode path = PathMode::Fast;
    /** Reason bucket for the current/pending slow episode. */
    Bucket slowReason = Bucket::Base;
    /** The thread was conflict-aborted and must publish TxFail.
     *  Arms ExecutionPolicy::beforeStep: the machine calls the hook
     *  only while this is set. */
    bool mustWriteTxFail = false;
    /** Steps the pending TxFail publication is still delayed (fault
     *  injection: TxFail-flag publication delay). */
    uint64_t txFailDelay = 0;
    /** Governor level-3 degradation: regions run untransacted with
     *  sampled software checks instead of full slow-path checking. */
    bool sampleMode = false;
    /** The current slow episode was forced by the governor's
     *  degradation ladder rather than by an abort (phase-profiler
     *  attribution: degraded vs genuine slow-path time). */
    bool govForced = false;
    /** Consecutive retry-aborts of the current region. */
    uint32_t retryCount = 0;
    /** This thread's accumulated virtual cost. */
    uint64_t myCost = 0;
    /** Base-bucket cost accrued since the current tx began. */
    uint64_t baseSinceTxBegin = 0;
    /** Static loop id of the innermost loop-cut loop in the current
     *  tx (capacity attribution for the loop-cut optimizer);
     *  ir::kNoInstr when none. */
    uint32_t lastLoopCutId = ir::kNoInstr;
    /** With conflict-address hints enabled: the line whose conflict
     *  triggered the current slow episode (~0 = no hint, check all). */
    uint64_t slowHintLine = ~0ull;
    /** Windowed slow path: replays already paid by the current
     *  transaction attempt (bounds livelock; past the cap the policy
     *  falls back to a solo slow region). */
    uint32_t windowReplays = 0;
    /** @} */

    /** @name Phase-profiler rows
     * Steps and cost this thread spent in each phase. The step loop
     * and the cost charge add to them here; Machine::run transfers
     * them into Telemetry::phases once, at the end of the run. */
    /** @{ */
    telemetry::PhaseProfiler::PerPhase phaseSteps{};
    telemetry::PhaseProfiler::PerPhase phaseCost{};
    /** A charge was attributed to this thread (even of zero units),
     *  so the transfer gives it a cost row. */
    bool costCharged = false;
    /** @} */

    /** Stores written inside the current transaction. Applied to
     *  memory on commit, discarded on abort. */
    TxStoreBuffer txStores;

    ContextSnapshot snap;

    /** Capture control state; @p resume_pc is where re-execution of
     *  the region (after rollback) starts. */
    void
    takeSnapshot(uint32_t resume_pc)
    {
        snap.pc = resume_pc;
        snap.loops = loops;
        snap.rng = rng;
        snap.valid = true;
    }

    /** Restore the snapshot image. Keeps policy scratch counters that
     *  the paper keeps outside transactions (retryCount, cost). */
    void
    restoreSnapshot()
    {
        pc = snap.pc;
        loops = snap.loops;
        rng = snap.rng;
    }
};

} // namespace txrace::sim

#endif // TXRACE_SIM_CONTEXT_HH
