#include "surrogate/gp.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "common/statistics.hh"
#include "common/thread_pool.hh"

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
    Prediction out;
    if (!trained_) {
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
    const double var_std = std::max(
        kernelValue(params_, x, x) - explained, 1e-12);

    out.mean = mean_std * yScale_ + yMean_;
    out.variance = var_std * yScale_ * yScale_;
    return out;
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
    // multi-RHS solve. Each row k(x_j, x_i), j = 0..m-1, is one
    // kernelRow() over an axis-major copy of the pool. The mean and
    // explained-variance sums run over rows i = 0..n-1 for every
    // column, predict()'s order.
    const std::size_t n = x_.size();
    const std::size_t m = xs.size();
    const std::vector<double> pool = axisMajor(xs);
    linalg::Matrix kstar(n, m, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        kernelRow(params_, pool.data(), m, x_[i], kstar.row(i));
    std::vector<double> mean_std(m, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double *row = kstar.row(i);
        for (std::size_t j = 0; j < m; ++j)
            mean_std[j] += row[j] * alpha_[i];
    }
    const linalg::Matrix v = chol_->solveLowerColumns(kstar);
    std::vector<double> explained(m, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double *row = v.row(i);
        for (std::size_t j = 0; j < m; ++j)
            explained[j] += row[j] * row[j];
    }
    for (std::size_t j = 0; j < m; ++j) {
        const double var_std = std::max(
            kernelValue(params_, xs[j], xs[j]) - explained[j], 1e-12);
        Prediction pred;
        pred.mean = mean_std[j] * yScale_ + yMean_;
        pred.variance = var_std * yScale_ * yScale_;
        out.push_back(pred);
    }
    return out;
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
lowerConfidenceBound(const Prediction &pred, double beta)
{
    return pred.mean - beta * std::sqrt(std::max(pred.variance, 0.0));
}

} // namespace unico::surrogate
