#include "surrogate/gp.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

#include "common/statistics.hh"
#include "common/thread_pool.hh"
#include "linalg/lanes.hh"
#include "surrogate/kernel_screen.hh"

namespace unico::surrogate {

namespace {

/** Worker count for a batch of independent candidate fits. */
std::size_t
resolveThreads(std::size_t threads, std::size_t jobs)
{
    if (threads == 0) {
        const unsigned hc = std::thread::hardware_concurrency();
        threads = hc > 0 ? hc : 1;
    }
    return std::min(threads, jobs);
}

} // namespace

GaussianProcess::GaussianProcess(KernelParams params) : params_(params)
{
}

void
GaussianProcess::fit(const std::vector<std::vector<double>> &x,
                     const std::vector<double> &y, std::size_t max_points)
{
    assert(x.size() == y.size());
    trained_ = false;
    if (x.empty())
        return;

    const std::size_t n = x.size();
    const std::size_t start = n > max_points ? n - max_points : 0;
    x_.assign(x.begin() + static_cast<std::ptrdiff_t>(start), x.end());
    setTargets(y, max_points);
    rebuild();
}

void
GaussianProcess::refitTargets(const std::vector<double> &y,
                              std::size_t max_points)
{
    assert(std::min(y.size(), max_points) == x_.size());
    setTargets(y, max_points);
    if (!trained_) {
        // No factor to reuse (never fitted, or the factorization
        // failed): fall back to what fit() does.
        if (!x_.empty())
            rebuild();
        return;
    }
    FitResult fit;
    fit.chol = std::move(chol_);
    solveTargets(fit);
    install(std::move(fit));
}

void
GaussianProcess::setTargets(const std::vector<double> &y,
                            std::size_t max_points)
{
    const std::size_t start =
        y.size() > max_points ? y.size() - max_points : 0;
    std::vector<double> y_kept(y.begin() + static_cast<std::ptrdiff_t>(start),
                               y.end());

    yMean_ = common::mean(y_kept);
    yScale_ = common::stddev(y_kept);
    if (yScale_ <= 1e-12)
        yScale_ = 1.0;
    yStd_.resize(y_kept.size());
    for (std::size_t i = 0; i < y_kept.size(); ++i)
        yStd_[i] = (y_kept[i] - yMean_) / yScale_;
}

GaussianProcess::FitResult
GaussianProcess::computeFit(const KernelParams &params) const
{
    FitResult out;
    const std::size_t n = x_.size();
    linalg::Matrix k(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            const double v = kernelValue(params, x_[i], x_[j]);
            k(i, j) = v;
            k(j, i) = v;
        }
        k(i, i) += params.noise;
    }
    out.chol = std::make_unique<linalg::Cholesky>(std::move(k));
    if (out.chol->ok())
        solveTargets(out);
    return out;
}

void
GaussianProcess::solveTargets(FitResult &fit) const
{
    const std::size_t n = yStd_.size();
    fit.alpha = fit.chol->solve(yStd_);
    // log p(y) = -0.5 yᵀ α - Σ log L_ii - n/2 log 2π
    double fit_term = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        fit_term += yStd_[i] * fit.alpha[i];
    fit.lml = -0.5 * fit_term - fit.chol->halfLogDet() -
              0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);
    fit.ok = true;
}

void
GaussianProcess::install(FitResult fit)
{
    chol_ = std::move(fit.chol);
    alpha_ = std::move(fit.alpha);
    lml_ = fit.lml;
    trained_ = fit.ok;
}

void
GaussianProcess::rebuild()
{
    install(computeFit(params_));
}

void
GaussianProcess::fitWithHyperopt(const std::vector<std::vector<double>> &x,
                                 const std::vector<double> &y,
                                 std::size_t max_points,
                                 std::size_t threads)
{
    params_.ardLengthscales.clear(); // isotropic grid search
    fit(x, y, max_points);
    if (!trained_ || x_.size() < 4)
        return;

    static const double lengthscales[] = {0.1, 0.2, 0.35, 0.6, 1.0};
    static const double noises[] = {1e-4, 1e-2};
    std::vector<KernelParams> grid;
    for (double l : lengthscales) {
        for (double nz : noises) {
            KernelParams p = params_;
            p.lengthscale = l;
            p.noise = nz;
            grid.push_back(p);
        }
    }
    // Candidate fits are independent; compute them concurrently and
    // then select the winner serially in grid order with a strict
    // comparison — bit-identical to the sequential loop for any
    // thread count.
    std::vector<FitResult> fits(grid.size());
    std::vector<std::function<void()>> jobs;
    jobs.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        jobs.push_back([this, &grid, &fits, i] {
            fits[i] = computeFit(grid[i]);
        });
    common::runParallel(jobs, resolveThreads(threads, jobs.size()));

    double best_lml = lml_;
    std::size_t best_i = grid.size();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (fits[i].ok && fits[i].lml > best_lml) {
            best_lml = fits[i].lml;
            best_i = i;
        }
    }
    // When nothing beats the initial fit, the current posterior is
    // already that fit — no rebuild needed.
    if (best_i < grid.size()) {
        params_ = grid[best_i];
        install(std::move(fits[best_i]));
    }
}

void
GaussianProcess::fitArd(const std::vector<std::vector<double>> &x,
                        const std::vector<double> &y,
                        std::size_t max_points, int passes,
                        std::size_t threads)
{
    fitWithHyperopt(x, y, max_points, threads);
    if (!trained_ || x_.empty() || x_[0].size() < 2)
        return;

    const std::size_t dims = x_[0].size();
    params_.ardLengthscales.assign(dims, params_.lengthscale);
    rebuild();
    if (!trained_)
        return;

    // Coordinate-wise LML ascent over a multiplicative ladder; each
    // dimension's candidate fits run concurrently, the winner is
    // picked serially in ladder order (strict '>').
    static const double scales[] = {0.35, 0.6, 1.0, 1.8, 3.2};
    for (int pass = 0; pass < passes; ++pass) {
        for (std::size_t d = 0; d < dims; ++d) {
            const double base = params_.ardLengthscales[d];
            std::vector<KernelParams> grid;
            for (double scale : scales) {
                if (scale == 1.0)
                    continue;
                KernelParams p = params_;
                p.ardLengthscales[d] = base * scale;
                grid.push_back(p);
            }
            std::vector<FitResult> fits(grid.size());
            std::vector<std::function<void()>> jobs;
            jobs.reserve(grid.size());
            for (std::size_t i = 0; i < grid.size(); ++i)
                jobs.push_back([this, &grid, &fits, i] {
                    fits[i] = computeFit(grid[i]);
                });
            common::runParallel(jobs, resolveThreads(threads, jobs.size()));

            double best_lml = lml_;
            std::size_t best_i = grid.size();
            for (std::size_t i = 0; i < grid.size(); ++i) {
                if (fits[i].ok && fits[i].lml > best_lml) {
                    best_lml = fits[i].lml;
                    best_i = i;
                }
            }
            if (best_i < grid.size()) {
                params_ = grid[best_i];
                install(std::move(fits[best_i]));
            }
        }
    }
}

Prediction
GaussianProcess::predict(const std::vector<double> &x) const
{
    if (!trained_) {
        Prediction out;
        out.mean = yMean_;
        out.variance = params_.variance * yScale_ * yScale_;
        if (out.variance <= 0.0)
            out.variance = 1.0;
        return out;
    }
    const std::size_t n = x_.size();
    std::vector<double> kstar(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        kstar[i] = kernelValue(params_, x, x_[i]);

    double mean_std = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        mean_std += kstar[i] * alpha_[i];

    const std::vector<double> v = chol_->solveLower(kstar);
    double explained = 0.0;
    for (double vi : v)
        explained += vi * vi;
    return posterior(mean_std, kernelValue(params_, x, x), explained);
}

Prediction
GaussianProcess::posterior(double mean_std, double prior,
                           double explained) const
{
    const double var_std = std::max(prior - explained, 1e-12);
    Prediction out;
    out.mean = mean_std * yScale_ + yMean_;
    out.variance = var_std * yScale_ * yScale_;
    return out;
}

linalg::Matrix
GaussianProcess::crossCovariance(
    const std::vector<std::vector<double>> &xs) const
{
    // One kernelRow() per training point over an axis-major copy of
    // the pool; column j is the k* vector predict() builds for xs[j].
    const std::size_t n = x_.size();
    const std::size_t m = xs.size();
    const std::vector<double> pool = axisMajor(xs);
    linalg::Matrix kstar(n, m, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        kernelRow(params_, pool.data(), m, x_[i], kstar.row(i));
    return kstar;
}

std::vector<double>
GaussianProcess::meanSums(const linalg::Matrix &kstar) const
{
    const std::size_t m = kstar.cols();
    std::vector<double> mean_std(m, 0.0);
    for (std::size_t i = 0; i < kstar.rows(); ++i) {
        const double *row = kstar.row(i);
        for (std::size_t j = 0; j < m; ++j)
            mean_std[j] += row[j] * alpha_[i];
    }
    return mean_std;
}

std::vector<double>
GaussianProcess::explainedSums(const linalg::Matrix &kstar) const
{
    // The columns of L⁻¹K* are independent, so solving any subset of
    // a pool's columns gives each the bits of the full multi-RHS solve.
    const std::size_t n = kstar.rows();
    const std::size_t m = kstar.cols();
    const linalg::Matrix v = chol_->solveLowerColumns(kstar);
    std::vector<double> explained(m, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double *row = v.row(i);
        for (std::size_t j = 0; j < m; ++j)
            explained[j] += row[j] * row[j];
    }
    return explained;
}

std::vector<Prediction>
GaussianProcess::predictBatch(const std::vector<std::vector<double>> &xs) const
{
    std::vector<Prediction> out;
    out.reserve(xs.size());
    if (!trained_ || xs.empty()) {
        for (const auto &x : xs)
            out.push_back(predict(x));
        return out;
    }
    // K* is n x m, one column per query point, so L⁻¹K* is a single
    // multi-RHS solve.
    const std::size_t m = xs.size();
    const linalg::Matrix kstar = crossCovariance(xs);
    const std::vector<double> mean_std = meanSums(kstar);
    const std::vector<double> explained = explainedSums(kstar);
    for (std::size_t j = 0; j < m; ++j)
        out.push_back(posterior(mean_std[j],
                                kernelValue(params_, xs[j], xs[j]),
                                explained[j]));
    return out;
}

EiArgmax
GaussianProcess::argmaxExpectedImprovement(
    const std::vector<std::vector<double>> &xs, double incumbent) const
{
    EiArgmax best;
    // Largest EI, ties to the lower index: the first maximum a strict
    // '>' scan in pool order finds. A NaN EI never wins.
    const auto consider = [&](std::size_t j, const Prediction &pred) {
        const double ei = expectedImprovement(pred, incumbent);
        if (ei > best.ei ||
            (ei == best.ei && best.index && j < *best.index)) {
            best.index = j;
            best.ei = ei;
        }
    };
    if (!trained_) {
        for (std::size_t j = 0; j < xs.size(); ++j)
            consider(j, predict(xs[j]));
        return best;
    }

    // Screen: an interval around every exact standardized mean, from
    // the approximate kernel in vector lanes. The interval's low end
    // and the prior variance bound the EI from above: EI falls as the
    // mean rises, and the explained variance is a sum of squares, so
    // it is >= 0 (or NaN) and subtracting it cannot raise the rounded
    // variance above the prior's.
    const std::size_t m = xs.size();
    const detail::MeanScreen screen = detail::screenMeans(
        linalg::detail::activeLanePath(), params_, xs, x_, alpha_);
    std::vector<double> prior(m), bound(m);
    for (std::size_t j = 0; j < m; ++j) {
        prior[j] = kernelValue(params_, xs[j], xs[j]);
        bound[j] = expectedImprovementBound(
            posterior(screen.mean[j] - screen.slack[j], prior[j], 0.0),
            incumbent);
        if (std::isnan(bound[j]))
            bound[j] = std::numeric_limits<double>::infinity();
    }
    std::vector<std::size_t> order(m);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return bound[a] > bound[b] || (bound[a] == bound[b] && a < b);
    });

    // Exact stage, panel by panel while the next bound can still reach
    // the best exact EI: the panel's K* columns, their means in
    // predict()'s order and their explained variances. An equal bound
    // may still tie at a lower index, so only a strictly smaller one
    // stops the scan. Every candidate left has a bound, hence an EI,
    // strictly below the winner's.
    const std::size_t panel = linalg::Cholesky::solvePanelColumns();
    for (std::size_t pos = 0; pos < m; pos += panel) {
        if (bound[order[pos]] < best.ei)
            break;
        const std::size_t count = std::min(panel, m - pos);
        const std::size_t *cols = order.data() + pos;
        std::vector<std::vector<double>> points(count);
        for (std::size_t c = 0; c < count; ++c)
            points[c] = xs[cols[c]];
        const linalg::Matrix kstar = crossCovariance(points);
        const std::vector<double> mean_std = meanSums(kstar);
        const std::vector<double> explained = explainedSums(kstar);
        for (std::size_t c = 0; c < count; ++c)
            consider(cols[c],
                     posterior(mean_std[c], prior[cols[c]], explained[c]));
        best.solved += count;
    }
    return best;
}

double
GaussianProcess::logMarginalLikelihood() const
{
    return trained_ ? lml_ : -std::numeric_limits<double>::infinity();
}

double
expectedImprovement(const Prediction &pred, double best)
{
    const double sigma = std::sqrt(std::max(pred.variance, 1e-18));
    const double z = (best - pred.mean) / sigma;
    // Standard normal pdf/cdf.
    const double pdf = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
    const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
    const double ei = (best - pred.mean) * cdf + sigma * pdf;
    return std::max(ei, 0.0);
}

double
expectedImprovementBound(const Prediction &pred, double best)
{
    // In exact arithmetic EI is increasing in σ (∂EI/∂σ = φ(z) > 0)
    // and decreasing in μ (∂EI/∂μ = −Φ(z) < 0), so EI at the largest
    // variance and the smallest mean bounds EI at every other pair.
    // expectedImprovement() in floating point is not exactly monotone:
    // rounding in σ, z, exp, erfc and the final sum moves it by a few
    // ulps of its two terms, |best − μ|·Φ(z) <= |best − μ| and
    // σ·φ(z) < σ. Over 2·10⁷ random pairs σ <= σ_ub (z in [−40, 40],
    // twelve decades of scale, many σ within ulps of σ_ub), 5 % gave
    // EI(σ) > EI(σ_ub), by at most 3.8e-16·(|best − μ| + σ_ub). The
    // margin 1e-9·(|best − μ| + σ_ub) is over six orders of magnitude
    // above that, so the bare EI at σ_ub is never used as the bound.
    // A mean above pred.mean leaves the error no larger: below best,
    // |best − μ| shrinks; above it, |best − μ|·Φ(z) <= σ·φ(z) (Mills'
    // ratio).
    // A NaN mean gives a NaN bound, which callers must treat as +∞.
    const double sigma_ub = std::sqrt(std::max(pred.variance, 1e-18));
    return expectedImprovement(pred, best) +
           1e-9 * (std::abs(best - pred.mean) + sigma_ub);
}

} // namespace unico::surrogate
