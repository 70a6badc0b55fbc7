#include "surrogate/kernel_screen.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace unico::surrogate::detail {

namespace {

// Lane types are named outside any template (GCC ignores a
// vector_size that depends on a template parameter), each with the
// unsigned integer vector of the same shape that views its bits
// (unsigned, so exponent arithmetic on any input wraps instead of
// overflowing).
using Lanes16 = double __attribute__((vector_size(16)));
using Bits16 = std::uint64_t __attribute__((vector_size(16)));
#if defined(__x86_64__)
using Lanes64 = double __attribute__((vector_size(64)));
using Bits64 = std::uint64_t __attribute__((vector_size(64)));
#endif

// exp(x) = 2^n·e^r with n the integer nearest x·log2(e) and
// r = x − n·ln 2, so |r| <= ln 2 / 2·(1 + 2e-13) < 0.3466. Adding the
// shifter 1.5·2^52 rounds x·log2(e) to an integer held in the low
// mantissa bits. ln 2 is split Cody–Waite style: kLn2Hi ends in 21
// zero bits, so n·kLn2Hi is exact for every n the cutoff admits and
// x − n·kLn2Hi is exact by Sterbenz's lemma.
constexpr double kLog2e = 0x1.71547652b82fep0;
constexpr double kShifter = 0x1.8p52;
constexpr std::uint64_t kShifterBits = 0x4338000000000000;
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
/** Below this argument the screen's exp returns 0. Above it n >= −1021,
 *  so 2^n is a normal double built straight from its exponent bits. */
constexpr double kExpCutoff = -708.0;
/** Taylor coefficients 1/k!: degree 9 leaves a relative truncation
 *  error below 1.4e-11 on |r| < 0.3466 (DESIGN.md §10). */
constexpr double kInvFact[] = {1.0,           1.0,
                               1.0 / 2,       1.0 / 6,
                               1.0 / 24,      1.0 / 120,
                               1.0 / 720,     1.0 / 5040,
                               1.0 / 40320,   1.0 / 362880};
constexpr double kFiveThirds = 5.0 / 3.0;
/** Lane vectors per pass: four independent kernels hide the latency
 *  of the exp's dependent chain on both instances. */
constexpr std::size_t kAcc = 4;
/** The widest lane vector's size: local vector arrays are aligned to
 *  it explicitly, because a vector type's alignof follows the
 *  translation unit's baseline ISA (16 bytes), not the instance's. */
constexpr std::size_t kAlign = 64;
constexpr std::uint64_t kAbsMask = 0x7fffffffffffffff;

// Vector values pass by reference between these helpers: a by-value
// 64-byte vector would warn about the ABI of a call that, being
// forced inline, never happens.

/** out = e^x per lane, for x <= 0 (a NaN stays NaN). */
template <typename Lanes, typename Bits>
[[gnu::always_inline]] inline void
expLanes(const Lanes &x, Lanes &out)
{
    const Lanes t = x * kLog2e + kShifter;
    const Lanes n = t - kShifter;
    const Lanes r = (x - n * kLn2Hi) - n * kLn2Lo;
    // Estrin's scheme: the same terms as Horner's rule in a tree of
    // depth 4 instead of a chain of 9 multiply-adds.
    const Lanes r2 = r * r;
    const Lanes r4 = r2 * r2;
    const Lanes p01 = r * kInvFact[1] + kInvFact[0];
    const Lanes p23 = r * kInvFact[3] + kInvFact[2];
    const Lanes p45 = r * kInvFact[5] + kInvFact[4];
    const Lanes p67 = r * kInvFact[7] + kInvFact[6];
    const Lanes p89 = r * kInvFact[9] + kInvFact[8];
    const Lanes p03 = p23 * r2 + p01;
    const Lanes p47 = p67 * r2 + p45;
    const Lanes p = (p89 * (r4 * r4) + (p47 * r4 + p03));
    const Bits scale = ((Bits)t - kShifterBits + 1023) << 52;
    out = p * (Lanes)scale;
    out = x < kExpCutoff ? Lanes{} : out;
}

/** v = √v per lane. The file is built with -fno-math-errno, so each
 *  lane's std::sqrt is the one correctly rounded instruction and the
 *  loop becomes a single vector square root. */
template <typename Lanes>
[[gnu::always_inline]] inline void
sqrtLanes(Lanes &v)
{
#pragma GCC unroll 8
    for (std::size_t k = 0; k < sizeof v / sizeof(double); ++k)
        v[k] = std::sqrt(v[k]);
}

/** k = k̃(r2): kernelFromSquaredDistance()'s arithmetic with
 *  expLanes() for std::exp and a product for the division by 3. */
template <typename Lanes, typename Bits, KernelKind kKind>
[[gnu::always_inline]] inline void
kernelLanes(const Lanes &r2, double variance, Lanes &k)
{
    if constexpr (kKind == KernelKind::SquaredExponential) {
        expLanes<Lanes, Bits>(-0.5 * r2, k);
        k = variance * k;
    } else {
        Lanes a = 5.0 * r2;
        sqrtLanes(a);
        expLanes<Lanes, Bits>(-a, k);
        k = variance * ((1.0 + a) + r2 * kFiveThirds) * k;
    }
}

/**
 * μ̃_j and S_j for every pool point, one lane per point and kAcc lane
 * vectors per pass. The pool is copied axis-major and zero-padded to
 * whole passes, the training set row-major; each lane accumulates
 * over the training points in order, and the sums stay in registers.
 * Forced inline so each instance compiles the body at its own ISA;
 * pool loads go through memcpy and local vector arrays are aligned
 * explicitly (see kAlign).
 */
template <typename Lanes, typename Bits, KernelKind kKind>
[[gnu::always_inline]] inline void
screenBlocked(const KernelParams &params,
              const std::vector<std::vector<double>> &pool,
              const std::vector<std::vector<double>> &train,
              const double *alpha, double *mean, double *magnitude)
{
    constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(double);
    constexpr std::size_t kBlock = kAcc * kLanes;
    const std::size_t m = pool.size();
    const std::size_t n = train.size();
    const std::size_t dims = train.front().size();
    const std::size_t stride = (m + kBlock - 1) / kBlock * kBlock;
    std::vector<double> points(dims * stride, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
        assert(pool[j].size() == dims);
        for (std::size_t a = 0; a < dims; ++a)
            points[a * stride + j] = pool[j][a];
    }
    std::vector<double> flat(n * dims);
    for (std::size_t i = 0; i < n; ++i)
        std::copy(train[i].begin(), train[i].end(), flat.begin() + i * dims);
    std::vector<double> inv(dims);
    for (std::size_t a = 0; a < dims; ++a)
        inv[a] = 1.0 / (params.ardLengthscales.empty()
                            ? params.lengthscale
                            : params.ardLengthscales[a]);

    for (std::size_t j0 = 0; j0 < stride; j0 += kBlock) {
        alignas(kAlign) Lanes mu[kAcc] = {};
        alignas(kAlign) Lanes mag[kAcc] = {};
        const double *z = flat.data();
        for (std::size_t i = 0; i < n; ++i, z += dims) {
            alignas(kAlign) Lanes r2[kAcc] = {};
            for (std::size_t a = 0; a < dims; ++a) {
                const double *xa = points.data() + a * stride + j0;
#pragma GCC unroll 8
                for (std::size_t c = 0; c < kAcc; ++c) {
                    Lanes x;
                    std::memcpy(&x, xa + c * kLanes, sizeof x);
                    const Lanes d = (x - z[a]) * inv[a];
                    r2[c] += d * d;
                }
            }
#pragma GCC unroll 8
            for (std::size_t c = 0; c < kAcc; ++c) {
                Lanes term;
                kernelLanes<Lanes, Bits, kKind>(r2[c], params.variance,
                                                term);
                term *= alpha[i];
                mu[c] += term;
                mag[c] += (Lanes)((Bits)term & kAbsMask);
            }
        }
        double mu_out[kBlock], mag_out[kBlock];
        std::memcpy(mu_out, mu, sizeof mu);
        std::memcpy(mag_out, mag, sizeof mag);
        const std::size_t width = std::min(kBlock, m - std::min(m, j0));
        std::copy_n(mu_out, width, mean + j0);
        std::copy_n(mag_out, width, magnitude + j0);
    }
}

template <typename Lanes, typename Bits>
[[gnu::always_inline]] inline void
screenLanes(const KernelParams &params,
            const std::vector<std::vector<double>> &pool,
            const std::vector<std::vector<double>> &train,
            const double *alpha, double *mean, double *magnitude)
{
    if (params.kind == KernelKind::SquaredExponential)
        screenBlocked<Lanes, Bits, KernelKind::SquaredExponential>(
            params, pool, train, alpha, mean, magnitude);
    else
        screenBlocked<Lanes, Bits, KernelKind::Matern52>(
            params, pool, train, alpha, mean, magnitude);
}

using ScreenFn = void (*)(const KernelParams &,
                          const std::vector<std::vector<double>> &,
                          const std::vector<std::vector<double>> &,
                          const double *, double *, double *);

/** The baseline instance: 16-byte lanes. */
void
screenBaseline(const KernelParams &params,
               const std::vector<std::vector<double>> &pool,
               const std::vector<std::vector<double>> &train,
               const double *alpha, double *mean, double *magnitude)
{
    screenLanes<Lanes16, Bits16>(params, pool, train, alpha, mean,
                                 magnitude);
}

#if defined(__x86_64__)
/** 64-byte lanes. */
[[gnu::target("avx512f")]] void
screenAvx512(const KernelParams &params,
             const std::vector<std::vector<double>> &pool,
             const std::vector<std::vector<double>> &train,
             const double *alpha, double *mean, double *magnitude)
{
    screenLanes<Lanes64, Bits64>(params, pool, train, alpha, mean,
                                 magnitude);
}
#endif

ScreenFn
screenFor(const linalg::detail::LanePath &path)
{
#if defined(__x86_64__)
    if (path.laneDoubles == sizeof(Lanes64) / sizeof(double))
        return screenAvx512;
#endif
    assert(path.laneDoubles == sizeof(Lanes16) / sizeof(double));
    return screenBaseline;
}

} // namespace

MeanScreen
screenMeans(const linalg::detail::LanePath &path, const KernelParams &params,
            const std::vector<std::vector<double>> &pool,
            const std::vector<std::vector<double>> &train,
            const std::vector<double> &alpha)
{
    assert(alpha.size() == train.size());
    const std::size_t m = pool.size();
    const std::size_t n = train.size();
    MeanScreen out;
    out.mean.assign(m, 0.0);
    out.slack.assign(m, std::numeric_limits<double>::infinity());
    if (m == 0 || n == 0 || n > kScreenMaxPoints ||
        train.front().size() > kScreenMaxDims)
        return out;

    // slack holds S_j = Σ_i |k̃_ij α_i| until it becomes δ_j.
    screenFor(path)(params, pool, train, alpha.data(), out.mean.data(),
                    out.slack.data());
    // The floor covers entries where the exp underflows (the screen's
    // at −708, the exact one later) and subnormal rounding in the
    // products, both far below 1e-300 per unit of |α_i| or per term.
    double weight = 0.0;
    for (double a : alpha)
        weight += std::abs(a);
    const double floor =
        1e-300 * ((1.0 + params.variance) * weight + static_cast<double>(n));
    for (double &s : out.slack)
        s = kScreenMeanRelError * s + floor;
    return out;
}

} // namespace unico::surrogate::detail
