/**
 * @file
 * Order statistics over a run's samples.
 */

#ifndef SERVEBENCH_STATS_HH
#define SERVEBENCH_STATS_HH

#include <utility>
#include <vector>

namespace servebench {

/**
 * Nearest-rank quantile @p q in [0, 1] of @p values (+inf entries
 * allowed: a failed request is a sample beyond every limit).
 * 0 for an empty sample.
 */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &values);

} // namespace servebench

#endif // SERVEBENCH_STATS_HH
