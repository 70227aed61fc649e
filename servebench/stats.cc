#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace servebench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

} // namespace servebench
