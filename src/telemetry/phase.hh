/**
 * @file
 * The phase profiler: attributes every executed scheduler step to the
 * detection mode the acting thread was in, per thread — the data
 * behind the paper's Figure 10 "time in fast path vs slow path"
 * breakdown, generalized with the governor's degraded modes.
 */

#ifndef TXRACE_TELEMETRY_PHASE_HH
#define TXRACE_TELEMETRY_PHASE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/types.hh"

namespace txrace::telemetry {

/** Execution mode a thread occupies during one scheduler step. */
enum class Phase : uint8_t {
    Fast,      ///< inside an HTM-monitored transaction
    Slow,      ///< software happens-before checking episode
    Degraded,  ///< governor-forced slow/sampled region
    Native,    ///< outside any monitored region (or untransacted run)
    NumPhases,
};

constexpr size_t kNumPhases = static_cast<size_t>(Phase::NumPhases);

/** Display name of a phase. */
const char *phaseName(Phase p);

/**
 * Per-thread step attribution. Every executed scheduler step lands in
 * exactly one (thread, phase) cell, so the counts over all threads and
 * phases sum to the run's step count (total()), which the accounting
 * tests assert.
 *
 * A second, independent dimension attributes virtual *cost* the same
 * way: per-(thread, phase) cost cells partition the run's total cost
 * exactly, so budget accounting can ask "how much was spent while
 * degraded" and trust the answer.
 *
 * The machine keeps each thread's rows in its thread context while
 * the run executes (the step loop adds to them without touching this
 * object) and transfers them here once, at the end of the run. A
 * thread gets a step row when it executed a step and a cost row when
 * a charge was attributed to it; each table is as long as its
 * highest such tid + 1, with zero rows for the tids in between.
 */
class PhaseProfiler
{
  public:
    using PerPhase = std::array<uint64_t, kNumPhases>;

    /** Add thread @p t's step row (steps per phase). */
    void addSteps(Tid t, const PerPhase &row);

    /** Add thread @p t's cost row (cost units per phase). */
    void addCost(Tid t, const PerPhase &row);

    /** Steps added in total (== sum over threads and phases). */
    uint64_t total() const { return total_; }

    /** Steps attributed to @p p across all threads. */
    uint64_t count(Phase p) const;

    /** Cost added in total (== sum over threads and phases). */
    uint64_t totalCost() const { return totalCost_; }

    /** Cost attributed to @p p across all threads. */
    uint64_t costOf(Phase p) const;

    /** Per-thread breakdown, indexed by tid. */
    const std::vector<PerPhase> &perThread() const { return perThread_; }

    /** Per-thread cost breakdown, indexed by tid. */
    const std::vector<PerPhase> &
    perThreadCost() const
    {
        return perThreadCost_;
    }

  private:
    std::vector<PerPhase> perThread_;
    std::vector<PerPhase> perThreadCost_;
    uint64_t total_ = 0;
    uint64_t totalCost_ = 0;
};

} // namespace txrace::telemetry

#endif // TXRACE_TELEMETRY_PHASE_HH
