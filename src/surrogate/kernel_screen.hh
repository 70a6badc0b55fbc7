/**
 * @file
 * Internal to the surrogate: the error-bounded screen behind
 * GaussianProcess::argmaxExpectedImprovement(). For every pool point
 * it brackets the exact standardized posterior mean Σ_i k(x_j, x_i) α_i
 * without building the exact cross-covariance: an approximate kernel
 * (reciprocal lengthscales, a short range-reduced polynomial exp)
 * runs in vector lanes, and a proven error bound turns its mean into
 * an interval that contains the exact mean's bits. Tests use this
 * header to reach every lane instance.
 */

#ifndef UNICO_SURROGATE_KERNEL_SCREEN_HH
#define UNICO_SURROGATE_KERNEL_SCREEN_HH

#include <cstddef>
#include <vector>

#include "linalg/lanes.hh"
#include "surrogate/kernel.hh"

namespace unico::surrogate::detail {

/** Largest input dimension the error bound below covers. */
inline constexpr std::size_t kScreenMaxDims = 1024;
/** Largest training set the error bound below covers. */
inline constexpr std::size_t kScreenMaxPoints = 65536;

/**
 * Per-entry kernel error of the screen (DESIGN.md §10 derives it):
 * wherever the screen's approximate k̃ and kernelValue()'s k are both
 * formed, |k̃ − k| <= kScreenKernelRelError·|k̃| + variance·1e-302
 * + 1e-322 (the last two terms cover exp underflow and subnormal
 * rounding).
 */
inline constexpr double kScreenKernelRelError = 2e-10;

/** c in δ_j = c·S_j + floor: the kernel error plus the n·u rounding
 *  of both the exact and the approximate sum, with a 2× reserve. */
inline constexpr double kScreenMeanRelError = 5e-10;

/** The screen's verdict on each pool point's exact standardized mean
 *  m_j (the bits meanSums() gives): mean[j] − slack[j] <= m_j <=
 *  mean[j] + slack[j]. A NaN in either makes the interval unknown. */
struct MeanScreen
{
    std::vector<double> mean;  ///< μ̃_j = Σ_i k̃_ij α_i
    std::vector<double> slack; ///< δ_j = c·Σ_i |k̃_ij α_i| + floor
};

/**
 * Screen every point of @p pool against the training inputs @p train
 * and weights @p alpha with the instance compiled for @p path's lane
 * width. Every instance gives the same bits: each lane runs the same
 * scalar operation sequence. Outside the bound's range (more than
 * kScreenMaxDims dimensions or kScreenMaxPoints training points) every
 * slack is +∞.
 */
MeanScreen screenMeans(const linalg::detail::LanePath &path,
                       const KernelParams &params,
                       const std::vector<std::vector<double>> &pool,
                       const std::vector<std::vector<double>> &train,
                       const std::vector<double> &alpha);

} // namespace unico::surrogate::detail

#endif // UNICO_SURROGATE_KERNEL_SCREEN_HH
