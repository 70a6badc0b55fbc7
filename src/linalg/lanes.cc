#include "linalg/lanes.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

namespace unico::linalg::detail {

namespace {

// Lane types are named here, outside any template: GCC ignores a
// vector_size that depends on a template parameter. Each width pairs
// with an accumulator count that fills the ISA's register file.
using Lanes16 = double __attribute__((vector_size(16)));
constexpr std::size_t kDoubles16 = sizeof(Lanes16) / sizeof(double);
constexpr std::size_t kAcc16 = 8;
#if defined(__x86_64__)
using Lanes64 = double __attribute__((vector_size(64)));
constexpr std::size_t kDoubles64 = sizeof(Lanes64) / sizeof(double);
constexpr std::size_t kAcc64 = 4;
#endif

/**
 * Column-blocked forward substitution Y = L⁻¹B with kAcc accumulators
 * of type Lanes, so kAcc lane-widths of columns share each pass over
 * L. A block's solved rows live in a zero-padded panel, so one load
 * of l_ik serves every column of the block and the accumulators stay
 * in registers. Vector arithmetic is lane-wise IEEE, so each lane
 * computes exactly solveLower()'s sequence for its column:
 * acc = b_i, then acc -= l_ik * y_k for k ascending, then
 * y_i = acc / l_ii. No column's sum is reassociated.
 *
 * Forced inline so each instance compiles the body at its own ISA and
 * no vector value crosses a call. The lane type's alignof follows the
 * translation unit's baseline ISA, not the instance's, so the panel
 * and the accumulators are aligned to 64 bytes explicitly and panel
 * rows are moved with memcpy: an aligned 64-byte access to storage
 * that is only 16-byte aligned would fault.
 */
template <typename Lanes, std::size_t kAcc>
[[gnu::always_inline]] inline Matrix
solveBlocked(const Matrix &l, const Matrix &b)
{
    constexpr std::size_t kAlign = 64;
    constexpr std::size_t kLaneDoubles = sizeof(Lanes) / sizeof(double);
    constexpr std::size_t kBlock = kAcc * kLaneDoubles;
    const std::size_t n = l.rows();
    assert(b.rows() == n);
    const std::size_t m = b.cols();
    std::vector<double> storage(n * kBlock + kAlign / sizeof(double));
    void *aligned = storage.data();
    std::size_t space = storage.size() * sizeof(double);
    double *const panel = static_cast<double *>(
        std::align(kAlign, n * kBlock * sizeof(double), aligned, space));
    Matrix y(n, m, 0.0);
    for (std::size_t c0 = 0; c0 < m; c0 += kBlock) {
        const std::size_t width = std::min(kBlock, m - c0);
        for (std::size_t i = 0; i < n; ++i) {
            const double *l_row = l.row(i);
            double row[kBlock] = {};
            std::copy_n(b.row(i) + c0, width, row);
            alignas(kAlign) Lanes acc[kAcc] = {};
            std::memcpy(acc, row, sizeof acc);
            for (std::size_t k = 0; k < i; ++k) {
                const double lik = l_row[k];
                const double *y_k = panel + k * kBlock;
#pragma GCC unroll 8
                for (std::size_t c = 0; c < kAcc; ++c) {
                    Lanes y_kc = {};
                    std::memcpy(&y_kc, y_k + c * kLaneDoubles, sizeof y_kc);
                    acc[c] -= lik * y_kc;
                }
            }
#pragma GCC unroll 8
            for (std::size_t c = 0; c < kAcc; ++c)
                acc[c] /= l_row[i];
            std::memcpy(panel + i * kBlock, acc, sizeof acc);
            std::memcpy(row, acc, sizeof acc);
            std::copy_n(row, width, y.row(i) + c0);
        }
    }
    return y;
}

/** The baseline instance: 16-byte lanes, 8 accumulators, 16 columns. */
Matrix
solveBaseline(const Matrix &l, const Matrix &b)
{
    return solveBlocked<Lanes16, kAcc16>(l, b);
}

bool
alwaysSupported()
{
    return true;
}

#if defined(__x86_64__)
/** 64-byte lanes, 4 accumulators, 32 columns per pass over L. */
[[gnu::target("avx512f")]] Matrix
solveAvx512(const Matrix &l, const Matrix &b)
{
    return solveBlocked<Lanes64, kAcc64>(l, b);
}

bool
avx512Supported()
{
    // Also false when the OS does not save the ZMM state.
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f");
}
#endif

} // namespace

const std::vector<LanePath> &
lanePaths()
{
    static const std::vector<LanePath> paths = {
        {"baseline-16B", kDoubles16, kAcc16 * kDoubles16, alwaysSupported,
         solveBaseline},
#if defined(__x86_64__)
        {"avx512f-64B", kDoubles64, kAcc64 * kDoubles64, avx512Supported,
         solveAvx512},
#endif
    };
    return paths;
}

const LanePath &
activeLanePath()
{
    static const LanePath &active = [] () -> const LanePath & {
        const auto &paths = lanePaths();
        const LanePath *best = &paths.front();
        for (const LanePath &path : paths)
            if (path.laneDoubles > best->laneDoubles && path.supported())
                best = &path;
        return *best;
    }();
    return active;
}

} // namespace unico::linalg::detail
