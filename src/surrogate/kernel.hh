/**
 * @file
 * Covariance kernels for the Gaussian-process surrogate.
 */

#ifndef UNICO_SURROGATE_KERNEL_HH
#define UNICO_SURROGATE_KERNEL_HH

#include <cstddef>
#include <vector>

namespace unico::surrogate {

/** Kernel families supported by the GP. */
enum class KernelKind {
    SquaredExponential,
    Matern52,
};

/** Kernel hyperparameters over normalized inputs. */
struct KernelParams
{
    KernelKind kind = KernelKind::Matern52;
    double lengthscale = 0.3; ///< shared lengthscale in [0,1]^d space
    double variance = 1.0;    ///< signal variance
    double noise = 1e-4;      ///< observation noise variance
    /** Per-dimension ARD lengthscales; when non-empty they override
     *  the shared lengthscale (automatic relevance determination:
     *  large lengthscale = irrelevant input). */
    std::vector<double> ardLengthscales;
};

/** k(x, z) for the given parameters. */
double kernelValue(const KernelParams &params, const std::vector<double> &x,
                   const std::vector<double> &z);

/**
 * Copy @p points into axis-major order: coordinate a of point j lands
 * at [a * points.size() + j]. The layout kernelRow() reads.
 */
std::vector<double>
axisMajor(const std::vector<std::vector<double>> &points);

/**
 * out[j] = k(x_j, z) for the @p count points of the axis-major
 * buffer @p points (see axisMajor()), bitwise equal to kernelValue()
 * on each: r² accumulates axis by axis in kernelValue()'s order, with
 * its division by the lengthscale, so the loops over j vectorize
 * without reordering any point's sum.
 */
void kernelRow(const KernelParams &params, const double *points,
               std::size_t count, const std::vector<double> &z,
               double *out);

} // namespace unico::surrogate

#endif // UNICO_SURROGATE_KERNEL_HH
