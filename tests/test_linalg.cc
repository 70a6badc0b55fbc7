/**
 * @file
 * Unit tests for the dense linear algebra behind the GP surrogate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "linalg/lanes.hh"
#include "linalg/matrix.hh"

using unico::linalg::Cholesky;
using unico::linalg::Matrix;
using unico::linalg::Vector;
using unico::linalg::dot;
using unico::linalg::solveNormalEquations;

TEST(Matrix, IdentityAndIndexing)
{
    const Matrix id = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(id(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(id(1, 2), 0.0);
    EXPECT_EQ(id.rows(), 3u);
    EXPECT_EQ(id.cols(), 3u);
}

TEST(Matrix, MatVec)
{
    Matrix a(2, 3);
    a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
    a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
    const Vector v = {1.0, 0.0, -1.0};
    const Vector out = a.mul(v);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0], -2.0);
    EXPECT_DOUBLE_EQ(out[1], -2.0);
}

TEST(Matrix, MatMulAgainstHandComputed)
{
    Matrix a(2, 2), b(2, 2);
    a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
    b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
    const Matrix c = a.mul(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, BlockedMulBitIdenticalToNaiveReference)
{
    // The blocked/transposed mul must preserve the naive k-ascending
    // accumulation order (including the a == 0.0 skip) exactly, so
    // results are bit-identical — the GP surrogate and everything
    // downstream depend on this for run-to-run reproducibility.
    unico::common::Rng rng(7);
    const std::size_t shapes[][3] = {
        {1, 1, 1}, {3, 5, 2}, {17, 9, 23}, {64, 64, 64}, {70, 65, 130},
    };
    for (const auto &s : shapes) {
        const std::size_t n = s[0], depth = s[1], m = s[2];
        Matrix a(n, depth), b(depth, m);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < depth; ++c)
                a(r, c) = rng.uniform() < 0.2 ? 0.0 : rng.gaussian();
        for (std::size_t r = 0; r < depth; ++r)
            for (std::size_t c = 0; c < m; ++c)
                b(r, c) = rng.gaussian();
        const Matrix fast = a.mul(b);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < m; ++c) {
                double acc = 0.0;
                for (std::size_t k = 0; k < depth; ++k) {
                    if (a(r, k) == 0.0)
                        continue;
                    acc += a(r, k) * b(k, c);
                }
                ASSERT_EQ(fast(r, c), acc)
                    << n << "x" << depth << "x" << m << " at (" << r
                    << "," << c << ")";
            }
        }
    }
}

TEST(Matrix, TransposeRoundTrip)
{
    Matrix a(2, 3);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            a(r, c) = static_cast<double>(r * 3 + c);
    const Matrix att = a.transposed().transposed();
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(att(r, c), a(r, c));
}

TEST(Matrix, AddDiagonal)
{
    Matrix a(2, 2, 1.0);
    a.addDiagonal(0.5);
    EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
    EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
}

TEST(Vector, Dot)
{
    EXPECT_DOUBLE_EQ(dot({1.0, 2.0}, {3.0, 4.0}), 11.0);
}

TEST(Cholesky, FactorizesKnownSpd)
{
    // A = [[4, 2], [2, 3]], L = [[2, 0], [1, sqrt(2)]].
    Matrix a(2, 2);
    a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    EXPECT_NEAR(chol.lower()(0, 0), 2.0, 1e-12);
    EXPECT_NEAR(chol.lower()(1, 0), 1.0, 1e-12);
    EXPECT_NEAR(chol.lower()(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, SolveRecoversSolution)
{
    Matrix a(2, 2);
    a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    const Vector b = {10.0, 8.0};
    const Vector x = chol.solve(b);
    // Verify A x == b.
    EXPECT_NEAR(4 * x[0] + 2 * x[1], 10.0, 1e-10);
    EXPECT_NEAR(2 * x[0] + 3 * x[1], 8.0, 1e-10);
}

TEST(Cholesky, HalfLogDet)
{
    Matrix a(2, 2);
    a(0, 0) = 4; a(1, 1) = 9; // diagonal, det = 36
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    EXPECT_NEAR(chol.halfLogDet(), 0.5 * std::log(36.0), 1e-12);
}

TEST(Cholesky, JitterRecoversSemiDefinite)
{
    // Rank-deficient Gram matrix: [1 1; 1 1].
    Matrix a(2, 2, 1.0);
    Cholesky chol(a);
    EXPECT_TRUE(chol.ok()); // succeeds thanks to added jitter
}

TEST(Cholesky, RandomSpdSolve)
{
    unico::common::Rng rng(5);
    const std::size_t n = 12;
    // Build SPD matrix A = B Bᵀ + n I.
    Matrix b(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            b(r, c) = rng.gaussian();
    Matrix a = b.mul(b.transposed());
    a.addDiagonal(static_cast<double>(n));
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());

    Vector rhs(n, 0.0);
    for (auto &v : rhs)
        v = rng.gaussian();
    const Vector x = chol.solve(rhs);
    const Vector back = a.mul(x);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(back[i], rhs[i], 1e-8);
}

namespace {

/** Accumulate G = XᵀX and r = Xᵀy row by row, like the surrogate does. */
void
accumulate(Matrix &gram, Vector &rhs, const Vector &x, double y)
{
    for (std::size_t i = 0; i < x.size(); ++i) {
        rhs[i] += x[i] * y;
        for (std::size_t j = 0; j < x.size(); ++j)
            gram(i, j) += x[i] * x[j];
    }
}

} // namespace

TEST(NormalEquations, RecoversExactWeightsFromCleanData)
{
    // y = 2 x0 - 3 x1 + 0.5, with a bias column appended.
    unico::common::Rng rng(11);
    Matrix gram(3, 3, 0.0);
    Vector rhs(3, 0.0);
    for (int s = 0; s < 40; ++s) {
        const Vector x = {rng.gaussian(), rng.gaussian(), 1.0};
        accumulate(gram, rhs, x, 2.0 * x[0] - 3.0 * x[1] + 0.5);
    }
    const Vector w = solveNormalEquations(gram, rhs, 1e-8);
    ASSERT_EQ(w.size(), 3u);
    EXPECT_NEAR(w[0], 2.0, 1e-5);
    EXPECT_NEAR(w[1], -3.0, 1e-5);
    EXPECT_NEAR(w[2], 0.5, 1e-5);
}

TEST(NormalEquations, RankDeficientDuplicatedColumnStaysFinite)
{
    // x1 duplicates x0 exactly, so XᵀX is singular; the ridge term
    // must keep the solve well posed and split the weight between the
    // two aliased columns instead of blowing up.
    unico::common::Rng rng(3);
    Matrix gram(3, 3, 0.0);
    Vector rhs(3, 0.0);
    for (int s = 0; s < 25; ++s) {
        const double v = rng.gaussian();
        accumulate(gram, rhs, {v, v, 1.0}, 4.0 * v + 1.0);
    }
    const Vector w = solveNormalEquations(gram, rhs, 1e-6);
    for (const double wi : w)
        ASSERT_TRUE(std::isfinite(wi));
    // The aliased pair must jointly act like the true coefficient.
    EXPECT_NEAR(w[0] + w[1], 4.0, 1e-3);
    EXPECT_NEAR(w[2], 1.0, 1e-3);
}

TEST(NormalEquations, SingleSampleDoesNotOverfitToInfinity)
{
    // One observation, three features: wildly under-determined. The
    // ridge solution must exist, be finite, and approximately
    // reproduce the one observed target.
    Matrix gram(3, 3, 0.0);
    Vector rhs(3, 0.0);
    const Vector x = {2.0, -1.0, 1.0};
    accumulate(gram, rhs, x, 5.0);
    const Vector w = solveNormalEquations(gram, rhs, 1e-6);
    for (const double wi : w)
        ASSERT_TRUE(std::isfinite(wi));
    EXPECT_NEAR(dot(w, x), 5.0, 1e-3);
}

TEST(NormalEquations, ZeroSamplesReturnsZeroWeights)
{
    const Matrix gram(4, 4, 0.0);
    const Vector rhs(4, 0.0);
    const Vector w = solveNormalEquations(gram, rhs, 1e-6);
    ASSERT_EQ(w.size(), 4u);
    for (const double wi : w)
        EXPECT_DOUBLE_EQ(wi, 0.0);
}

TEST(NormalEquations, DeterministicAcrossRepeatedSolves)
{
    unico::common::Rng rng(29);
    Matrix gram(5, 5, 0.0);
    Vector rhs(5, 0.0);
    for (int s = 0; s < 12; ++s) {
        Vector x(5, 1.0);
        for (std::size_t i = 0; i + 1 < x.size(); ++i)
            x[i] = rng.gaussian();
        accumulate(gram, rhs, x, rng.gaussian());
    }
    const Vector a = solveNormalEquations(gram, rhs, 1e-4);
    const Vector b = solveNormalEquations(gram, rhs, 1e-4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]); // bit-identical, not just close
}

TEST(Cholesky, SolveLowerForwardSubstitution)
{
    Matrix a(2, 2);
    a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    const Vector y = chol.solveLower({2.0, 1.0 + std::sqrt(2.0)});
    // L y = b with L = [[2,0],[1,sqrt 2]] -> y = [1, 1/sqrt2 * sqrt2]=...
    EXPECT_NEAR(chol.lower()(0, 0) * y[0], 2.0, 1e-12);
    EXPECT_NEAR(chol.lower()(1, 0) * y[0] + chol.lower()(1, 1) * y[1],
                1.0 + std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, SolveLowerColumnsBitIdenticalToPerColumnSolves)
{
    // The blocked multi-RHS solve must reproduce solveLower() column by
    // column bit for bit, including widths that are not a multiple of
    // any instance's column block and the single-row/single-column
    // edges. Every lane-width instance this CPU runs is checked, plus
    // the one solveLowerColumns() dispatches to.
    const auto &all = unico::linalg::detail::lanePaths();
    ASSERT_TRUE(all.front().supported()); // the baseline always runs
    std::vector<const unico::linalg::detail::LanePath *> paths;
    for (const auto &path : all) {
        if (path.supported())
            paths.push_back(&path);
        else
            std::cout << "[  SKIPPED ] lane path " << path.name
                      << ": not supported on this CPU\n";
    }
    unico::common::Rng rng(13);
    for (const std::size_t n : {1u, 2u, 17u, 256u}) {
        Matrix g(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                g(r, c) = rng.gaussian();
        Matrix a = g.mul(g.transposed());
        a.addDiagonal(static_cast<double>(n));
        const Cholesky chol(std::move(a));
        ASSERT_TRUE(chol.ok());
        for (const std::size_t m : {1u, 7u, 16u, 17u, 32u, 33u, 240u}) {
            Matrix b(n, m);
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t c = 0; c < m; ++c)
                    b(r, c) = rng.gaussian();
            std::vector<std::pair<const char *, Matrix>> results;
            results.emplace_back("dispatched", chol.solveLowerColumns(b));
            for (const auto *path : paths)
                results.emplace_back(
                    path->name, path->solveLowerColumns(chol.lower(), b));
            for (const auto &[name, y] : results) {
                ASSERT_EQ(y.rows(), n) << name;
                ASSERT_EQ(y.cols(), m) << name;
            }
            for (std::size_t c = 0; c < m; ++c) {
                Vector col(n);
                for (std::size_t r = 0; r < n; ++r)
                    col[r] = b(r, c);
                const Vector ref = chol.solveLower(col);
                for (const auto &[name, y] : results) {
                    for (std::size_t r = 0; r < n; ++r) {
                        const double got = y(r, c);
                        ASSERT_EQ(std::memcmp(&got, &ref[r], sizeof got), 0)
                            << name << " n=" << n << " m=" << m << " row "
                            << r << " col " << c;
                    }
                }
            }
        }
    }
}
