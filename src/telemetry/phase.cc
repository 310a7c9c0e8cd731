#include "telemetry/phase.hh"

namespace txrace::telemetry {

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::Fast:
        return "fast";
      case Phase::Slow:
        return "slow";
      case Phase::Degraded:
        return "degraded";
      case Phase::Native:
        return "native";
      case Phase::NumPhases:
        break;
    }
    return "?";
}

namespace {

/** Add @p row into @p rows[t], growing @p rows to cover @p t; returns
 *  the row's sum. */
uint64_t
addRow(std::vector<PhaseProfiler::PerPhase> &rows, Tid t,
       const PhaseProfiler::PerPhase &row)
{
    if (t >= rows.size())
        rows.resize(t + 1);
    uint64_t sum = 0;
    for (size_t p = 0; p < kNumPhases; ++p) {
        rows[t][p] += row[p];
        sum += row[p];
    }
    return sum;
}

} // namespace

void
PhaseProfiler::addSteps(Tid t, const PerPhase &row)
{
    total_ += addRow(perThread_, t, row);
}

void
PhaseProfiler::addCost(Tid t, const PerPhase &row)
{
    totalCost_ += addRow(perThreadCost_, t, row);
}

uint64_t
PhaseProfiler::count(Phase p) const
{
    uint64_t n = 0;
    for (const PerPhase &row : perThread_)
        n += row[static_cast<size_t>(p)];
    return n;
}

uint64_t
PhaseProfiler::costOf(Phase p) const
{
    uint64_t n = 0;
    for (const PerPhase &row : perThreadCost_)
        n += row[static_cast<size_t>(p)];
    return n;
}

} // namespace txrace::telemetry
