/**
 * @file
 * Order statistics shared by the benchmark's metrics and probes.
 */

#ifndef UNICO_E2EBENCH_STATS_HH
#define UNICO_E2EBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <vector>

namespace unico::e2ebench {

/** Median (0 for no samples). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile, numpy's default (0 for no samples). */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * Median of means: sample i goes to group i % @p groups, in the order
 * taken; the result is the median of the group means (0 for no
 * samples).
 */
inline double
medianOfMeans(const std::vector<double> &v, std::size_t groups)
{
    groups = std::min(groups, v.size());
    std::vector<double> sums(groups, 0.0);
    std::vector<double> counts(groups, 0.0);
    for (std::size_t i = 0; i < v.size(); ++i) {
        sums[i % groups] += v[i];
        counts[i % groups] += 1.0;
    }
    for (std::size_t g = 0; g < groups; ++g)
        sums[g] /= counts[g];
    return median(sums);
}

} // namespace unico::e2ebench

#endif // UNICO_E2EBENCH_STATS_HH
