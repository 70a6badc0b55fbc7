/**
 * @file
 * Tests for the Gaussian-process surrogate and the EI acquisition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/statistics.hh"
#include "linalg/lanes.hh"
#include "surrogate/gp.hh"
#include "surrogate/kernel_screen.hh"

using namespace unico::surrogate;
using unico::common::Rng;

namespace {

/** Sample a smooth 1-D function on a grid. */
void
makeData(std::vector<std::vector<double>> &x, std::vector<double> &y,
         int n)
{
    for (int i = 0; i < n; ++i) {
        const double xi = static_cast<double>(i) / (n - 1);
        x.push_back({xi});
        y.push_back(std::sin(4.0 * xi) + 0.5 * xi);
    }
}

} // namespace

TEST(Kernel, SelfSimilarityEqualsVariance)
{
    KernelParams p;
    p.variance = 2.5;
    EXPECT_NEAR(kernelValue(p, {0.3, 0.7}, {0.3, 0.7}), 2.5, 1e-12);
}

TEST(Kernel, DecaysWithDistance)
{
    KernelParams p;
    const double near = kernelValue(p, {0.0}, {0.1});
    const double far = kernelValue(p, {0.0}, {0.9});
    EXPECT_GT(near, far);
    EXPECT_GT(far, 0.0);
}

TEST(Kernel, SquaredExponentialVsMatern)
{
    KernelParams se;
    se.kind = KernelKind::SquaredExponential;
    KernelParams m52;
    m52.kind = KernelKind::Matern52;
    // Same variance at zero distance.
    EXPECT_NEAR(kernelValue(se, {0.5}, {0.5}),
                kernelValue(m52, {0.5}, {0.5}), 1e-12);
    // Matern has heavier tails than SE at long range.
    EXPECT_GT(kernelValue(m52, {0.0}, {1.0}),
              kernelValue(se, {0.0}, {1.0}));
}

TEST(Gp, UntrainedPredictsPrior)
{
    GaussianProcess gp;
    const auto pred = gp.predict({0.5});
    EXPECT_FALSE(gp.trained());
    EXPECT_GT(pred.variance, 0.0);
}

TEST(Gp, InterpolatesTrainingData)
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    makeData(x, y, 15);
    GaussianProcess gp;
    gp.fit(x, y);
    ASSERT_TRUE(gp.trained());
    for (std::size_t i = 0; i < x.size(); ++i) {
        const auto pred = gp.predict(x[i]);
        EXPECT_NEAR(pred.mean, y[i], 0.05) << "at x=" << x[i][0];
    }
}

TEST(Gp, VarianceSmallAtDataLargeAway)
{
    std::vector<std::vector<double>> x = {{0.0}, {0.1}, {0.2}};
    std::vector<double> y = {1.0, 2.0, 1.5};
    GaussianProcess gp;
    gp.fit(x, y);
    const double var_at = gp.predict({0.1}).variance;
    const double var_far = gp.predict({0.9}).variance;
    EXPECT_LT(var_at, var_far);
}

TEST(Gp, GeneralizesSmoothFunction)
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    makeData(x, y, 21);
    GaussianProcess gp;
    gp.fitWithHyperopt(x, y);
    // Predict between training points.
    const double xq = 0.525;
    const double truth = std::sin(4.0 * xq) + 0.5 * xq;
    EXPECT_NEAR(gp.predict({xq}).mean, truth, 0.1);
}

TEST(Gp, HyperoptNeverWorseLml)
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    makeData(x, y, 20);
    GaussianProcess plain;
    plain.fit(x, y);
    GaussianProcess tuned;
    tuned.fitWithHyperopt(x, y);
    EXPECT_GE(tuned.logMarginalLikelihood(),
              plain.logMarginalLikelihood() - 1e-9);
}

TEST(Gp, SubsetOfDataCapRespected)
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        x.push_back({rng.uniform()});
        y.push_back(rng.gaussian());
    }
    GaussianProcess gp;
    gp.fit(x, y, 32);
    EXPECT_EQ(gp.size(), 32u);
    EXPECT_TRUE(gp.trained());
}

TEST(Gp, ConstantTargetsHandled)
{
    std::vector<std::vector<double>> x = {{0.1}, {0.5}, {0.9}};
    std::vector<double> y = {3.0, 3.0, 3.0};
    GaussianProcess gp;
    gp.fit(x, y);
    ASSERT_TRUE(gp.trained());
    EXPECT_NEAR(gp.predict({0.3}).mean, 3.0, 0.1);
}

TEST(Gp, EmptyFitStaysUntrained)
{
    GaussianProcess gp;
    gp.fit({}, {});
    EXPECT_FALSE(gp.trained());
}

TEST(Acquisition, EiZeroWhenCertainAndWorse)
{
    Prediction pred;
    pred.mean = 5.0;
    pred.variance = 1e-18;
    EXPECT_NEAR(expectedImprovement(pred, 4.0), 0.0, 1e-9);
}

TEST(Acquisition, EiEqualsGapWhenCertainAndBetter)
{
    Prediction pred;
    pred.mean = 2.0;
    pred.variance = 1e-18;
    EXPECT_NEAR(expectedImprovement(pred, 4.0), 2.0, 1e-6);
}

TEST(Acquisition, EiGrowsWithUncertainty)
{
    Prediction certain{4.0, 0.01};
    Prediction uncertain{4.0, 4.0};
    EXPECT_GT(expectedImprovement(uncertain, 4.0),
              expectedImprovement(certain, 4.0));
}

TEST(Kernel, ArdLengthscalesOverrideShared)
{
    KernelParams iso;
    iso.lengthscale = 0.2;
    KernelParams ard = iso;
    ard.ardLengthscales = {0.2, 1000.0};
    // Distance only along the "irrelevant" second dim: ARD kernel
    // barely decays, isotropic kernel decays hard.
    const double k_iso = kernelValue(iso, {0.5, 0.0}, {0.5, 1.0});
    const double k_ard = kernelValue(ard, {0.5, 0.0}, {0.5, 1.0});
    EXPECT_GT(k_ard, 0.99 * ard.variance);
    EXPECT_LT(k_iso, 0.1);
}

TEST(Gp, ArdLearnsIrrelevantDimension)
{
    // Target depends only on x0; x1 is noise. ARD should stretch the
    // lengthscale of dim 1 beyond dim 0's.
    Rng rng(11);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 40; ++i) {
        const double x0 = rng.uniform();
        const double x1 = rng.uniform();
        x.push_back({x0, x1});
        y.push_back(std::sin(6.0 * x0));
    }
    GaussianProcess gp;
    gp.fitArd(x, y);
    ASSERT_TRUE(gp.trained());
    ASSERT_EQ(gp.params().ardLengthscales.size(), 2u);
    EXPECT_GT(gp.params().ardLengthscales[1],
              gp.params().ardLengthscales[0]);
}

TEST(Gp, ArdNeverWorseLmlThanIsotropic)
{
    Rng rng(13);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 30; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        x.push_back({a, b});
        y.push_back(a * a + 0.1 * b);
    }
    GaussianProcess iso;
    iso.fitWithHyperopt(x, y);
    GaussianProcess ard;
    ard.fitArd(x, y);
    EXPECT_GE(ard.logMarginalLikelihood(),
              iso.logMarginalLikelihood() - 1e-9);
}

TEST(Gp, HyperoptBitIdenticalAcrossThreadCounts)
{
    // The hyperparameter grid is evaluated in parallel but the argmin
    // is selected serially in grid order, so the fitted model must be
    // bit-identical for any thread count.
    Rng rng(19);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 40; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        x.push_back({a, b});
        y.push_back(std::sin(5.0 * a) + 0.3 * b + 0.05 * rng.gaussian());
    }
    GaussianProcess serial, threaded;
    serial.fitWithHyperopt(x, y, 512, 1);
    threaded.fitWithHyperopt(x, y, 512, 4);
    EXPECT_EQ(serial.params().lengthscale, threaded.params().lengthscale);
    EXPECT_EQ(serial.params().noise, threaded.params().noise);
    EXPECT_EQ(serial.logMarginalLikelihood(),
              threaded.logMarginalLikelihood());
    for (const double q : {0.05, 0.35, 0.65, 0.95}) {
        const auto ps = serial.predict({q, 1.0 - q});
        const auto pt = threaded.predict({q, 1.0 - q});
        EXPECT_EQ(ps.mean, pt.mean);
        EXPECT_EQ(ps.variance, pt.variance);
    }
}

TEST(Gp, ArdBitIdenticalAcrossThreadCounts)
{
    Rng rng(23);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 30; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        x.push_back({a, b});
        y.push_back(a * a - 0.4 * b);
    }
    GaussianProcess serial, threaded;
    serial.fitArd(x, y, 512, 2, 1);
    threaded.fitArd(x, y, 512, 2, 4);
    ASSERT_EQ(serial.params().ardLengthscales.size(),
              threaded.params().ardLengthscales.size());
    for (std::size_t d = 0; d < serial.params().ardLengthscales.size();
         ++d)
        EXPECT_EQ(serial.params().ardLengthscales[d],
                  threaded.params().ardLengthscales[d]);
    EXPECT_EQ(serial.logMarginalLikelihood(),
              threaded.logMarginalLikelihood());
    const auto ps = serial.predict({0.4, 0.6});
    const auto pt = threaded.predict({0.4, 0.6});
    EXPECT_EQ(ps.mean, pt.mean);
    EXPECT_EQ(ps.variance, pt.variance);
}

TEST(Gp, HyperoptClearsStaleArdState)
{
    Rng rng(17);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 20; ++i) {
        x.push_back({rng.uniform(), rng.uniform()});
        y.push_back(rng.gaussian());
    }
    GaussianProcess gp;
    gp.fitArd(x, y);
    EXPECT_FALSE(gp.params().ardLengthscales.empty());
    gp.fitWithHyperopt(x, y);
    EXPECT_TRUE(gp.params().ardLengthscales.empty());
}

namespace {

/** Bitwise double equality (EXPECT_EQ would let -0.0 == 0.0 pass). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSamePrediction(const Prediction &got, const Prediction &want)
{
    EXPECT_TRUE(sameBits(got.mean, want.mean))
        << got.mean << " vs " << want.mean;
    EXPECT_TRUE(sameBits(got.variance, want.variance))
        << got.variance << " vs " << want.variance;
}

/** 5-D inputs with a smooth target, plus a 240-point query pool. */
void
makeCloud(Rng &rng, std::size_t n, std::vector<std::vector<double>> &x,
          std::vector<double> &y, std::vector<std::vector<double>> &pool)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> p(5);
        for (auto &v : p)
            v = rng.uniform();
        y.push_back(std::sin(4.0 * p[0]) + p[1] * p[2] - 0.3 * p[4] +
                    0.05 * rng.gaussian());
        x.push_back(std::move(p));
    }
    for (std::size_t j = 0; j < 240; ++j) {
        std::vector<double> p(5);
        for (auto &v : p)
            v = rng.uniform();
        pool.push_back(std::move(p));
    }
    pool.push_back(x.front()); // a training point, where variance is small
}

} // namespace

TEST(Gp, PredictBatchBitIdenticalToPredict)
{
    Rng rng(29);
    std::vector<std::vector<double>> x, pool;
    std::vector<double> y;
    makeCloud(rng, 70, x, y, pool);

    // Untrained: the batch path is the prior, like predict().
    {
        GaussianProcess gp;
        const auto batch = gp.predictBatch(pool);
        ASSERT_EQ(batch.size(), pool.size());
        for (std::size_t j = 0; j < pool.size(); ++j)
            expectSamePrediction(batch[j], gp.predict(pool[j]));
        EXPECT_TRUE(gp.predictBatch({}).empty());
    }
    for (const KernelKind kind :
         {KernelKind::SquaredExponential, KernelKind::Matern52}) {
        for (const bool ard : {false, true}) {
            KernelParams params;
            params.kind = kind;
            params.lengthscale = 0.4;
            if (ard)
                params.ardLengthscales = {0.2, 0.5, 0.9, 1.6, 0.35};
            GaussianProcess gp(params);
            gp.fit(x, y);
            ASSERT_TRUE(gp.trained());
            const auto batch = gp.predictBatch(pool);
            ASSERT_EQ(batch.size(), pool.size());
            for (std::size_t j = 0; j < pool.size(); ++j) {
                SCOPED_TRACE(::testing::Message()
                             << "kind " << static_cast<int>(kind)
                             << " ard " << ard << " point " << j);
                expectSamePrediction(batch[j], gp.predict(pool[j]));
            }
        }
    }
}

TEST(Gp, RefitTargetsBitIdenticalToFreshFit)
{
    // Only the targets change between the proposals of one MOBO batch;
    // refitting them on the kept factor must reproduce a fresh fit bit
    // for bit, including at the subset-of-data cap.
    Rng rng(31);
    std::vector<std::vector<double>> x, pool;
    std::vector<double> y;
    makeCloud(rng, 90, x, y, pool);
    for (const std::size_t cap : {std::size_t{512}, std::size_t{64}}) {
        KernelParams params;
        params.lengthscale = 0.35;
        GaussianProcess reused(params);
        reused.fit(x, y, cap);
        ASSERT_TRUE(reused.trained());
        for (int round = 0; round < 3; ++round) {
            std::vector<double> y2(y.size());
            for (auto &v : y2)
                v = rng.gaussian() * (round + 1.0) + round;
            reused.refitTargets(y2, cap);
            GaussianProcess fresh(params);
            fresh.fit(x, y2, cap);
            ASSERT_TRUE(reused.trained());
            ASSERT_EQ(reused.size(), fresh.size());
            ASSERT_EQ(reused.alpha().size(), fresh.alpha().size());
            for (std::size_t i = 0; i < fresh.alpha().size(); ++i)
                EXPECT_TRUE(sameBits(reused.alpha()[i], fresh.alpha()[i]))
                    << "alpha " << i;
            EXPECT_TRUE(sameBits(reused.logMarginalLikelihood(),
                                 fresh.logMarginalLikelihood()));
            const auto batch = reused.predictBatch(pool);
            for (std::size_t j = 0; j < pool.size(); ++j) {
                expectSamePrediction(reused.predict(pool[j]),
                                     fresh.predict(pool[j]));
                expectSamePrediction(batch[j], fresh.predict(pool[j]));
            }
        }
    }
}

TEST(Kernel, RowBitIdenticalToKernelValue)
{
    // kernelRow() over an axis-major pool must reproduce kernelValue()
    // on every point bit for bit, across widths around the vector
    // lengths, at coincident points (r² = 0) and at far points where
    // exp underflows to zero.
    Rng rng(37);
    for (const KernelKind kind :
         {KernelKind::SquaredExponential, KernelKind::Matern52}) {
        for (const bool ard : {false, true}) {
            KernelParams params;
            params.kind = kind;
            params.lengthscale = 0.3;
            params.variance = 1.7;
            if (ard)
                params.ardLengthscales = {0.2, 0.5, 0.9, 1.6, 0.35};
            for (const std::size_t m : {1u, 7u, 8u, 9u, 33u, 240u}) {
                std::vector<double> z(5);
                for (auto &v : z)
                    v = rng.uniform();
                std::vector<std::vector<double>> points(m);
                for (std::size_t j = 0; j < m; ++j) {
                    if (j % 5 == 0) {
                        points[j] = z; // coincident
                        continue;
                    }
                    const double spread = (j % 5 == 1) ? 1e5 : 1.0;
                    points[j].resize(5);
                    for (auto &v : points[j])
                        v = spread * rng.uniform();
                }
                std::vector<double> row(m);
                kernelRow(params, axisMajor(points).data(), m, z,
                          row.data());
                for (std::size_t j = 0; j < m; ++j) {
                    const double want = kernelValue(params, points[j], z);
                    EXPECT_TRUE(sameBits(row[j], want))
                        << "kind " << static_cast<int>(kind) << " ard "
                        << ard << " m " << m << " point " << j << ": "
                        << row[j] << " vs " << want;
                    if (j % 5 == 0) {
                        EXPECT_EQ(row[j], params.variance);
                    } else if (j % 5 == 1) {
                        EXPECT_EQ(row[j], 0.0);
                    }
                }
            }
        }
    }
}

TEST(Gp, DuplicateInputsPredictBatchMatchesPredict)
{
    // Two inputs observed 128 times each (plus a scatter of distinct
    // ones) with zero noise make K singular, so the factor only exists
    // through the jitter ladder. At the duplicated inputs the jittered
    // posterior variance (~1e-10 / 128 in standardized units) is below
    // the 1e-12 floor, so the clamp fires. The batch path must still
    // match predict() bit for bit, and every value must be finite.
    Rng rng(43);
    std::vector<std::vector<double>> distinct(2), x, pool;
    std::vector<double> y;
    for (auto &p : distinct)
        p = {rng.uniform(), rng.uniform(), rng.uniform()};
    for (int copy = 0; copy < 128; ++copy)
        for (const auto &p : distinct) {
            x.push_back(p);
            y.push_back(p[0] + 0.1 * rng.gaussian());
        }
    for (int i = 0; i < 20; ++i) {
        x.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        y.push_back(x.back()[0] + 0.1 * rng.gaussian());
    }
    for (int j = 0; j < 60; ++j)
        pool.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    pool.insert(pool.end(), distinct.begin(), distinct.end());
    pool.push_back(x.back()); // a distinct training point

    for (const KernelKind kind :
         {KernelKind::SquaredExponential, KernelKind::Matern52}) {
        SCOPED_TRACE(::testing::Message()
                     << "kind " << static_cast<int>(kind));
        KernelParams params;
        params.kind = kind;
        params.lengthscale = 0.4;
        params.noise = 0.0;

        // The unjittered factorization fails, so the factor is of
        // K + jitter·I: (L Lᵀ)_00 = l_00² exceeds K_00 by the rung.
        unico::linalg::Matrix k(x.size(), x.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            for (std::size_t j = 0; j < x.size(); ++j)
                k(i, j) = kernelValue(params, x[i], x[j]);
        const unico::linalg::Cholesky chol(k);
        ASSERT_TRUE(chol.ok());
        const double l00 = chol.lower()(0, 0);
        EXPECT_GE(l00 * l00 - k(0, 0), 0.5e-10);

        GaussianProcess gp(params);
        gp.fit(x, y);
        ASSERT_TRUE(gp.trained());
        const auto batch = gp.predictBatch(pool);
        ASSERT_EQ(batch.size(), pool.size());
        const double scale = unico::common::stddev(y);
        const double floor = 1e-12 * scale * scale;
        std::size_t clamped = 0;
        for (std::size_t j = 0; j < pool.size(); ++j) {
            SCOPED_TRACE(::testing::Message() << "point " << j);
            const Prediction want = gp.predict(pool[j]);
            expectSamePrediction(batch[j], want);
            EXPECT_TRUE(std::isfinite(want.mean));
            EXPECT_TRUE(std::isfinite(want.variance));
            EXPECT_GE(want.variance, floor);
            if (sameBits(want.variance, floor))
                ++clamped;
        }
        EXPECT_EQ(clamped, distinct.size());
    }
}

namespace {

/** The acquisition the MOBO sampler ran before pruning: predict() and
 *  expectedImprovement() per point, then a strict '>' scan in pool
 *  order from -1. */
EiArgmax
referenceArgmax(const GaussianProcess &gp,
                const std::vector<std::vector<double>> &xs, double incumbent)
{
    EiArgmax best;
    for (std::size_t j = 0; j < xs.size(); ++j) {
        const double ei = expectedImprovement(gp.predict(xs[j]), incumbent);
        if (ei > best.ei) {
            best.ei = ei;
            best.index = j;
        }
    }
    return best;
}

/** How many exact K* columns the panel scan builds when every bound
 *  uses the candidate's exact mean instead of the screen's interval:
 *  the fewest the screened argmax can hope for. @p y_scale is the GP's
 *  target scale. */
std::size_t
exactMeanSolved(const GaussianProcess &gp,
                const std::vector<std::vector<double>> &xs,
                double incumbent, double y_scale)
{
    const std::size_t m = xs.size();
    std::vector<double> bound(m), ei(m);
    for (std::size_t j = 0; j < m; ++j) {
        const Prediction pred = gp.predict(xs[j]);
        ei[j] = expectedImprovement(pred, incumbent);
        Prediction ub = pred;
        ub.variance = std::max(kernelValue(gp.params(), xs[j], xs[j]),
                               1e-12) *
                      y_scale * y_scale;
        bound[j] = expectedImprovementBound(ub, incumbent);
        if (std::isnan(bound[j]))
            bound[j] = std::numeric_limits<double>::infinity();
    }
    std::vector<std::size_t> order(m);
    for (std::size_t j = 0; j < m; ++j)
        order[j] = j;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return bound[a] > bound[b] || (bound[a] == bound[b] && a < b);
    });
    const std::size_t panel = unico::linalg::Cholesky::solvePanelColumns();
    double best = -1.0;
    std::size_t solved = 0;
    for (std::size_t pos = 0; pos < m && !(bound[order[pos]] < best);
         pos += panel) {
        const std::size_t count = std::min(panel, m - pos);
        for (std::size_t c = 0; c < count; ++c)
            if (ei[order[pos + c]] > best)
                best = ei[order[pos + c]];
        solved += count;
    }
    return solved;
}

/** Checks the pruned argmax against the reference and returns how
 *  many candidates it solved: whole panels, and at most one panel
 *  more than exact-mean bounds would solve (@p y_scale as above; 0
 *  skips that check). */
std::size_t
expectSameArgmax(const GaussianProcess &gp,
                 const std::vector<std::vector<double>> &xs,
                 double incumbent, double y_scale = 0.0)
{
    const EiArgmax want = referenceArgmax(gp, xs, incumbent);
    const EiArgmax got = gp.argmaxExpectedImprovement(xs, incumbent);
    EXPECT_EQ(got.index, want.index);
    if (want.index) {
        EXPECT_TRUE(sameBits(got.ei, want.ei))
            << got.ei << " vs " << want.ei;
    }
    const std::size_t panel = unico::linalg::Cholesky::solvePanelColumns();
    EXPECT_TRUE(got.solved % panel == 0 || got.solved == xs.size())
        << got.solved;
    EXPECT_LE(got.solved, xs.size());
    if (y_scale > 0.0 && gp.trained()) {
        EXPECT_LE(got.solved,
                  exactMeanSolved(gp, xs, incumbent, y_scale) + panel);
    }
    return got.solved;
}

std::vector<double>
randomPoint(Rng &rng, std::size_t dims)
{
    std::vector<double> p(dims);
    for (auto &v : p)
        v = rng.uniform();
    return p;
}

/** A smooth 5-D target with a strong trend along axis 0. */
double
smoothTarget(const std::vector<double> &p, Rng &rng)
{
    return std::sin(4.0 * p[0]) + 2.0 * p[0] + p[1] * p[2] - 0.3 * p[4] +
           0.05 * rng.gaussian();
}

} // namespace

TEST(Gp, PrunedArgmaxMatchesFullArgmax)
{
    Rng rng(47);
    for (const KernelKind kind :
         {KernelKind::SquaredExponential, KernelKind::Matern52}) {
        for (const bool ard : {false, true}) {
            KernelParams params;
            params.kind = kind;
            params.lengthscale = 0.4;
            if (ard)
                params.ardLengthscales = {0.2, 0.5, 0.9, 1.6, 0.35};
            for (const std::size_t n : {4u, 17u, 120u, 256u}) {
                std::vector<std::vector<double>> x;
                std::vector<double> y;
                for (std::size_t i = 0; i < n; ++i) {
                    x.push_back(randomPoint(rng, 5));
                    y.push_back(smoothTarget(x.back(), rng));
                }
                GaussianProcess gp(params);
                gp.fit(x, y);
                ASSERT_TRUE(gp.trained());
                const double incumbent =
                    *std::min_element(y.begin(), y.end());
                for (const std::size_t m : {0u, 1u, 31u, 32u, 33u, 240u}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "kind " << static_cast<int>(kind)
                                 << " ard " << ard << " n " << n << " m "
                                 << m);
                    std::vector<std::vector<double>> pool;
                    for (std::size_t j = 0; j < m; ++j)
                        pool.push_back(j % 7 == 3 ? x[j % n]
                                                  : randomPoint(rng, 5));
                    // Incumbents below the best target leave EI to
                    // the variance, so the winner can sit panels deep
                    // in bound order.
                    for (const double shift : {0.0, -0.5, -2.0, 1.0})
                        expectSameArgmax(gp, pool, incumbent + shift,
                                         unico::common::stddev(y));
                }
            }
        }
    }

    // Edge cases, on a 240-point pool.
    std::vector<std::vector<double>> pool;
    for (int j = 0; j < 240; ++j)
        pool.push_back(randomPoint(rng, 5));

    // Untrained: every candidate has the prior, so the first wins.
    {
        const GaussianProcess gp;
        const EiArgmax got = gp.argmaxExpectedImprovement(pool, 0.0);
        EXPECT_EQ(got.index, std::optional<std::size_t>(0));
        EXPECT_EQ(got.solved, 0u);
        EXPECT_FALSE(gp.argmaxExpectedImprovement({}, 0.0).index);
    }

    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 120; ++i) {
        x.push_back(randomPoint(rng, 5));
        y.push_back(smoothTarget(x.back(), rng));
    }
    const double incumbent = *std::min_element(y.begin(), y.end());

    // Duplicate pool entries: equal EIs, the lower index must win.
    {
        GaussianProcess gp;
        gp.fit(x, y);
        std::vector<std::vector<double>> dup;
        for (int j = 0; j < 40; ++j)
            for (int copy = 0; copy < 3; ++copy)
                dup.push_back(pool[static_cast<std::size_t>(j)]);
        expectSameArgmax(gp, dup, incumbent);
        const EiArgmax got = gp.argmaxExpectedImprovement(dup, incumbent);
        ASSERT_TRUE(got.index);
        EXPECT_EQ(*got.index % 3, 0u);
    }

    // A NaN incumbent makes every EI and every bound NaN: all are
    // solved and none wins, as in the scan.
    {
        GaussianProcess gp;
        gp.fit(x, y);
        const double nan = std::numeric_limits<double>::quiet_NaN();
        const EiArgmax got = gp.argmaxExpectedImprovement(pool, nan);
        EXPECT_FALSE(got.index);
        EXPECT_EQ(got.solved, pool.size());
        EXPECT_FALSE(referenceArgmax(gp, pool, nan).index);
    }

    // A NaN target makes every α NaN: every screened interval is
    // unknown, so every column is built exactly, and none wins.
    {
        std::vector<double> y_nan = y;
        y_nan[7] = std::numeric_limits<double>::quiet_NaN();
        GaussianProcess gp;
        gp.fit(x, y_nan);
        ASSERT_TRUE(gp.trained());
        ASSERT_TRUE(std::isnan(gp.alpha()[0]));
        const EiArgmax got = gp.argmaxExpectedImprovement(pool, incumbent);
        EXPECT_FALSE(got.index);
        EXPECT_EQ(got.solved, pool.size());
        EXPECT_FALSE(referenceArgmax(gp, pool, incumbent).index);
    }

    // Constant targets: α = 0, so the screen's means are exact (0)
    // and every bound is EI at the prior variance with the mean on
    // the incumbent. Those bounds are equal and above every posterior
    // EI, so nothing is pruned.
    {
        GaussianProcess gp;
        gp.fit(x, std::vector<double>(x.size(), 2.5));
        ASSERT_TRUE(gp.trained());
        EXPECT_EQ(expectSameArgmax(gp, pool, 2.5, 1.0), pool.size());
    }

    // Duplicate training inputs with zero noise: the jittered factor
    // drives the variance at the duplicated points into the clamp.
    {
        KernelParams params;
        params.noise = 0.0;
        std::vector<std::vector<double>> xd;
        std::vector<double> yd;
        for (int copy = 0; copy < 64; ++copy)
            for (int k = 0; k < 2; ++k) {
                xd.push_back(x[static_cast<std::size_t>(k)]);
                yd.push_back(y[static_cast<std::size_t>(k)]);
            }
        xd.insert(xd.end(), x.begin() + 2, x.begin() + 40);
        yd.insert(yd.end(), y.begin() + 2, y.begin() + 40);
        GaussianProcess gp(params);
        gp.fit(xd, yd);
        ASSERT_TRUE(gp.trained());
        std::vector<std::vector<double>> clamped = {x[0], x[1]};
        clamped.insert(clamped.end(), pool.begin(), pool.begin() + 60);
        expectSameArgmax(gp, clamped, incumbent);
    }

    // A dip: two near-duplicate inputs with different, very low
    // targets at zero noise. Their |α| is huge, so the screened mean
    // interval of a candidate near them is wide (thousands of
    // standardized units). Plant one whose interval straddles the
    // incumbent but whose exact mean lies far below it: the winner,
    // found only if its bound comes from the interval's low end (from
    // the high end its bound would be about 0 and it would be pruned).
    {
        KernelParams params;
        params.noise = 0.0;
        std::vector<std::vector<double>> xd(x.begin(), x.begin() + 60);
        std::vector<double> yd(y.begin(), y.begin() + 60);
        const double low = *std::min_element(yd.begin(), yd.end());
        const std::vector<double> dip = randomPoint(rng, 5);
        std::vector<double> twin = dip;
        twin[0] += 1e-7;
        xd.push_back(dip);
        yd.push_back(low - 3.0);
        xd.push_back(twin);
        yd.push_back(low - 3.5);
        GaussianProcess gp(params);
        gp.fit(xd, yd);
        ASSERT_TRUE(gp.trained());
        const double best_std =
            (low - unico::common::mean(yd)) / unico::common::stddev(yd);
        std::optional<std::vector<double>> straddler;
        for (int t = 0; t < 400 && !straddler; ++t) {
            std::vector<double> p = dip;
            for (auto &v : p)
                v += 0.05 * rng.gaussian();
            const detail::MeanScreen sc = detail::screenMeans(
                unico::linalg::detail::activeLanePath(), gp.params(), {p},
                xd, gp.alpha());
            if (sc.mean[0] + sc.slack[0] > best_std + 1.0 &&
                expectedImprovement(gp.predict(p), low) > 1.0)
                straddler = p;
        }
        ASSERT_TRUE(straddler);
        // The rest of the pool: points whose EI stays below the
        // straddler's, so it is the one winner.
        const double ei = expectedImprovement(gp.predict(*straddler), low);
        std::vector<std::vector<double>> planted;
        while (planted.size() < 240) {
            std::vector<double> p = randomPoint(rng, 5);
            if (expectedImprovement(gp.predict(p), low) < ei)
                planted.push_back(std::move(p));
        }
        planted[200] = *straddler;
        expectSameArgmax(gp, planted, low);
        EXPECT_EQ(gp.argmaxExpectedImprovement(planted, low).index,
                  std::optional<std::size_t>(200));
    }

    // How much the bound prunes depends on how far the posterior
    // variance falls below the prior's. A tiny lengthscale leaves
    // every candidate at the prior, with equal EIs, so nothing is
    // pruned; at a moderate one the first panel's winner rules out
    // every other panel. A huge one shrinks every posterior variance
    // far below the prior while no mean beats the incumbent, so no
    // bound falls below the winner's small EI and nothing is pruned.
    const auto solvedAt = [&](double lengthscale) {
        KernelParams params;
        params.lengthscale = lengthscale;
        GaussianProcess gp(params);
        gp.fit(x, y);
        EXPECT_TRUE(gp.trained());
        return expectSameArgmax(gp, pool, incumbent,
                                unico::common::stddev(y));
    };
    EXPECT_EQ(solvedAt(1e-3), pool.size());
    EXPECT_EQ(solvedAt(0.4), unico::linalg::Cholesky::solvePanelColumns());
    EXPECT_EQ(solvedAt(100.0), pool.size());
}

namespace {

using unico::linalg::detail::LanePath;

/** Every lane instance this CPU runs; the baseline always does. */
std::vector<const LanePath *>
supportedLanePaths()
{
    std::vector<const LanePath *> out;
    for (const LanePath &path : unico::linalg::detail::lanePaths()) {
        if (path.supported())
            out.push_back(&path);
        else
            std::cout << "[  SKIPPED ] lane path " << path.name
                      << " (not supported by this CPU)\n";
    }
    return out;
}

/** A point at squared scaled distance @p r2 from @p z along a random
 *  direction, in the kernel's per-axis lengthscale units. */
std::vector<double>
pointAtSquaredDistance(Rng &rng, const KernelParams &params,
                       const std::vector<double> &z, double r2)
{
    std::vector<double> dir(z.size());
    double norm = 0.0;
    for (auto &v : dir) {
        v = rng.gaussian();
        norm += v * v;
    }
    std::vector<double> p(z.size());
    for (std::size_t a = 0; a < z.size(); ++a) {
        const double l = params.ardLengthscales.empty()
                             ? params.lengthscale
                             : params.ardLengthscales[a];
        p[a] = z[a] + l * std::sqrt(r2 / norm) * dir[a];
    }
    return p;
}

std::vector<KernelParams>
screenKernels(double lengthscale)
{
    std::vector<KernelParams> out;
    for (const KernelKind kind :
         {KernelKind::SquaredExponential, KernelKind::Matern52}) {
        for (const bool ard : {false, true}) {
            KernelParams params;
            params.kind = kind;
            params.lengthscale = lengthscale;
            params.variance = 1.7;
            if (ard)
                params.ardLengthscales = {lengthscale, 0.5 * lengthscale,
                                          2.0 * lengthscale,
                                          0.8 * lengthscale,
                                          3.0 * lengthscale};
            out.push_back(params);
        }
    }
    return out;
}

} // namespace

TEST(Screen, KernelErrorWithinBoundOnEveryLane)
{
    // With one training point and α = 1 the screen's mean is its
    // approximate kernel k̃ itself. Check it against kernelValue() on
    // every lane instance, from r² = 0 into the range where each
    // kernel's exp underflows (the screen cuts SE at r² > 1416 and
    // Matérn at r² > 1.0e5), and check that every instance gives the
    // same bits.
    Rng rng(71);
    const auto paths = supportedLanePaths();
    for (const double lengthscale : {1e-3, 0.4, 100.0}) {
        for (const KernelParams &params : screenKernels(lengthscale)) {
            SCOPED_TRACE(::testing::Message()
                         << "kind " << static_cast<int>(params.kind)
                         << " ard " << !params.ardLengthscales.empty()
                         << " lengthscale " << lengthscale);
            const std::vector<double> z = randomPoint(rng, 5);
            std::vector<std::vector<double>> pool = {z};
            for (int j = 1; j < 1000; ++j) {
                const double r2 = std::pow(10.0, -12.0 + 17.5 * rng.uniform());
                pool.push_back(pointAtSquaredDistance(rng, params, z, r2));
            }
            const std::vector<double> alpha = {1.0};
            const detail::MeanScreen first = detail::screenMeans(
                *paths.front(), params, pool, {z}, alpha);
            std::size_t underflowed = 0;
            for (const LanePath *path : paths) {
                SCOPED_TRACE(path->name);
                const detail::MeanScreen got =
                    detail::screenMeans(*path, params, pool, {z}, alpha);
                ASSERT_EQ(got.mean.size(), pool.size());
                EXPECT_EQ(got.mean[0], params.variance);
                for (std::size_t j = 0; j < pool.size(); ++j) {
                    const double want = kernelValue(params, pool[j], z);
                    const double approx = got.mean[j];
                    EXPECT_LE(std::abs(approx - want),
                              detail::kScreenKernelRelError *
                                      std::abs(approx) +
                                  params.variance * 1e-302 + 1e-322)
                        << "point " << j << ": " << approx << " vs "
                        << want;
                    EXPECT_TRUE(sameBits(approx, first.mean[j]));
                    EXPECT_TRUE(sameBits(got.slack[j], first.slack[j]));
                    if (approx == 0.0)
                        ++underflowed;
                }
            }
            EXPECT_GT(underflowed, 0u);
        }
    }
}

TEST(Screen, MeanIntervalContainsExactMean)
{
    // μ̃ ± δ must contain the exact standardized mean's bits, the sum
    // Σ_i k(x_j, x_i) α_i in training order that meanSums() forms,
    // on every lane instance, for fitted GPs (large |α| at small
    // noise) and hand-made α spanning many magnitudes and signs.
    Rng rng(73);
    const auto paths = supportedLanePaths();
    for (const double lengthscale : {1e-3, 0.4, 100.0}) {
        for (const KernelParams &base : screenKernels(lengthscale)) {
            for (const std::size_t n : {1u, 17u, 256u}) {
                SCOPED_TRACE(::testing::Message()
                             << "kind " << static_cast<int>(base.kind)
                             << " ard " << !base.ardLengthscales.empty()
                             << " lengthscale " << lengthscale << " n "
                             << n);
                std::vector<std::vector<double>> x;
                std::vector<double> y;
                for (std::size_t i = 0; i < n; ++i) {
                    x.push_back(randomPoint(rng, 5));
                    y.push_back(smoothTarget(x.back(), rng));
                }
                KernelParams params = base;
                params.noise = 1e-6;
                GaussianProcess gp(params);
                gp.fit(x, y);
                ASSERT_TRUE(gp.trained());
                std::vector<double> wild(n);
                for (auto &a : wild)
                    a = (rng.uniform() < 0.5 ? -1.0 : 1.0) *
                        std::pow(10.0, -8.0 + 16.0 * rng.uniform());
                std::vector<std::vector<double>> pool;
                for (int j = 0; j < 120; ++j)
                    pool.push_back(j % 9 == 4 ? x[static_cast<std::size_t>(
                                                    j) % n]
                                              : randomPoint(rng, 5));
                for (const std::vector<double> *alpha :
                     {&gp.alpha(), static_cast<const std::vector<double> *>(&wild)}) {
                    for (const LanePath *path : paths) {
                        SCOPED_TRACE(path->name);
                        const detail::MeanScreen got = detail::screenMeans(
                            *path, params, pool, x, *alpha);
                        for (std::size_t j = 0; j < pool.size(); ++j) {
                            double exact = 0.0;
                            for (std::size_t i = 0; i < n; ++i)
                                exact += kernelValue(params, pool[j], x[i]) *
                                         (*alpha)[i];
                            EXPECT_LE(got.mean[j] - got.slack[j], exact)
                                << "point " << j;
                            EXPECT_GE(got.mean[j] + got.slack[j], exact)
                                << "point " << j;
                            EXPECT_TRUE(std::isfinite(got.slack[j]));
                        }
                    }
                }
            }
        }
    }

    // Outside the bound's range the screen knows nothing.
    const std::vector<double> wide(detail::kScreenMaxDims + 1, 0.5);
    const detail::MeanScreen got = detail::screenMeans(
        *paths.front(), KernelParams{}, {wide}, {wide}, {1.0});
    EXPECT_EQ(got.slack[0], std::numeric_limits<double>::infinity());
}

TEST(Acquisition, EiBoundDominatesFloatEi)
{
    // Floating-point EI is not exactly monotone in sigma or in the
    // mean, so the bound carries a margin; it must dominate EI at
    // every smaller sigma and every larger mean (the screened
    // acquisition bounds at the low end of a mean interval), including
    // sigmas and means within a few ulps of the bound's, over twelve
    // decades of scale.
    Rng rng(59);
    std::size_t bare_violations = 0;
    for (int draw = 0; draw < 400000; ++draw) {
        const double scale = std::pow(10.0, -6.0 + 12.0 * rng.uniform());
        const double best = scale * (10.0 * rng.uniform() - 5.0);
        const double sigma_ub = scale * (0.01 + rng.uniform());
        const double z = -40.0 + 80.0 * rng.uniform();
        Prediction ub;
        ub.mean = best - z * sigma_ub;
        ub.variance = sigma_ub * sigma_ub;
        const double bound = expectedImprovementBound(ub, best);
        const double bare = expectedImprovement(ub, best);
        double sigma = sigma_ub;
        switch (draw % 4) {
          case 0:
            sigma = sigma_ub * rng.uniform();
            break;
          case 1:
            sigma = sigma_ub * (1.0 - 1e-6 * rng.uniform());
            break;
          case 2:
            for (int step = 1 + draw % 16; step > 0; --step)
                sigma = std::nextafter(sigma, 0.0);
            break;
          default:
            break;
        }
        Prediction pred = ub;
        pred.variance = std::min(sigma * sigma, ub.variance);
        switch ((draw / 4) % 4) {
          case 1:
            for (int step = 1 + draw % 8; step > 0; --step)
                pred.mean = std::nextafter(pred.mean, HUGE_VAL);
            break;
          case 2:
            pred.mean += sigma_ub * 1e-6 * rng.uniform();
            break;
          case 3:
            pred.mean += sigma_ub * 10.0 * rng.uniform();
            break;
          default:
            break;
        }
        const double ei = expectedImprovement(pred, best);
        ASSERT_LE(ei, bound) << "z " << z << " sigma " << sigma
                             << " sigma_ub " << sigma_ub << " best "
                             << best;
        if (ei > bare)
            ++bare_violations;
    }
    // Without the margin the bound would fail: EI at sigma_ub itself
    // is exceeded by EI at some smaller sigma (~5 % of these draws).
    EXPECT_GT(bare_violations, 0u);
}
