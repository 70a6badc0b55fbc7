#include "surrogate/kernel.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace unico::surrogate {

namespace {

double
lengthscaleOf(const KernelParams &params, std::size_t axis)
{
    return params.ardLengthscales.empty() ? params.lengthscale
                                          : params.ardLengthscales[axis];
}

/** k as a function of the squared scaled distance r^2: the one place
 *  each kernel family's arithmetic lives. */
inline double
kernelFromSquaredDistance(const KernelParams &params, double r2)
{
    switch (params.kind) {
      case KernelKind::SquaredExponential:
        return params.variance * std::exp(-0.5 * r2);
      case KernelKind::Matern52: {
        const double a = std::sqrt(5.0 * r2);
        return params.variance * (1.0 + a + 5.0 * r2 / 3.0) *
               std::exp(-a);
      }
    }
    return 0.0;
}

} // namespace

double
kernelValue(const KernelParams &params, const std::vector<double> &x,
            const std::vector<double> &z)
{
    assert(x.size() == z.size());
    assert(params.ardLengthscales.empty() ||
           params.ardLengthscales.size() == x.size());
    // Squared scaled distance r^2 = sum ((x_i - z_i) / l_i)^2.
    double r2 = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = (x[i] - z[i]) / lengthscaleOf(params, i);
        r2 += d * d;
    }
    return kernelFromSquaredDistance(params, r2);
}

std::vector<double>
axisMajor(const std::vector<std::vector<double>> &points)
{
    const std::size_t count = points.size();
    const std::size_t dims = count > 0 ? points.front().size() : 0;
    std::vector<double> out(dims * count);
    for (std::size_t j = 0; j < count; ++j) {
        assert(points[j].size() == dims);
        for (std::size_t a = 0; a < dims; ++a)
            out[a * count + j] = points[j][a];
    }
    return out;
}

void
kernelRow(const KernelParams &params, const double *points,
          std::size_t count, const std::vector<double> &z, double *out)
{
    assert(params.ardLengthscales.empty() ||
           params.ardLengthscales.size() == z.size());
    // acc[j] holds point j's r^2 until the finishing pass.
    double *__restrict acc = out;
    std::fill(acc, acc + count, 0.0);
    for (std::size_t a = 0; a < z.size(); ++a) {
        const double *__restrict xa = points + a * count;
        const double za = z[a];
        const double l = lengthscaleOf(params, a);
        for (std::size_t j = 0; j < count; ++j) {
            const double d = (xa[j] - za) / l;
            acc[j] += d * d;
        }
    }
    for (std::size_t j = 0; j < count; ++j)
        acc[j] = kernelFromSquaredDistance(params, acc[j]);
}

} // namespace unico::surrogate
