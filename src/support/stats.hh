/**
 * @file
 * A name-sorted table of counter values (a run's rendered counters, a
 * campaign's totals) plus small numeric helpers (geometric mean) used
 * throughout the experiment harnesses.
 */

#ifndef TXRACE_SUPPORT_STATS_HH
#define TXRACE_SUPPORT_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace txrace {

/**
 * Named 64-bit counter values, written whole with set(). Nothing
 * counts into a StatSet: a run's counters live in its
 * telemetry::MetricRegistry, which renders them here once, at the end
 * of runProgram (MetricRegistry::exportTo); a campaign's totals are
 * set by its aggregator. The map is ordered so that dumps are stable
 * across runs, which the determinism tests rely on.
 */
class StatSet
{
  public:
    /** Value of @p name, or zero if never set. */
    uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Set @p name to an absolute value. */
    void
    set(const std::string &name, uint64_t value)
    {
        counters_[name] = value;
    }

    /** Stable iteration over (name, value) pairs. */
    const std::map<std::string, uint64_t> &all() const { return counters_; }

  private:
    std::map<std::string, uint64_t> counters_;
};

/**
 * Geometric mean of a vector of positive values. Returns 0 for an
 * empty input; non-positive entries are a caller bug and trip panic().
 */
double geoMean(const std::vector<double> &values);

} // namespace txrace

#endif // TXRACE_SUPPORT_STATS_HH
