/**
 * @file
 * Exact Gaussian-process regression — the MOBO surrogate model.
 *
 * One GP is trained per co-optimization objective (latency, power,
 * area, sensitivity); inputs are normalized hardware configurations.
 * Targets are standardized internally, observation noise is jittered
 * and hyperparameters are selected by log-marginal-likelihood grid
 * search (robust at the small sample counts of HW search).
 */

#ifndef UNICO_SURROGATE_GP_HH
#define UNICO_SURROGATE_GP_HH

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "linalg/matrix.hh"
#include "surrogate/kernel.hh"

namespace unico::surrogate {

/** Posterior mean/variance at a query point. */
struct Prediction
{
    double mean = 0.0;
    double variance = 1.0;
};

/** The winner of an expected-improvement argmax over a candidate pool. */
struct EiArgmax
{
    /** Pool position of the first candidate with the largest EI;
     *  empty when the pool is empty or every EI is NaN. */
    std::optional<std::size_t> index;
    double ei = -1.0; ///< the winner's expectedImprovement()
    /** Candidates whose exact K* column was built and solved (the
     *  rest were pruned by their screened EI bound). */
    std::size_t solved = 0;
};

/** Exact GP regressor with internal target standardization. */
class GaussianProcess
{
  public:
    explicit GaussianProcess(KernelParams params = KernelParams{});

    /**
     * Fit the GP to (X, y). When @p max_points is exceeded the most
     * recent observations are kept (subset-of-data approximation),
     * bounding the O(n^3) cost.
     */
    void fit(const std::vector<std::vector<double>> &x,
             const std::vector<double> &y, std::size_t max_points = 512);

    /**
     * Fit with hyperparameter selection: grid search over
     * lengthscales/noise maximizing log marginal likelihood, then a
     * final fit at the best setting.
     *
     * Candidate fits are independent, so they run on @p threads
     * workers (0 = one per hardware thread, capped at the grid size;
     * 1 = serial). The winner is selected serially in grid order
     * with a strict comparison, so the chosen hyperparameters — and
     * the resulting posterior — are bit-identical for every thread
     * count.
     */
    void fitWithHyperopt(const std::vector<std::vector<double>> &x,
                         const std::vector<double> &y,
                         std::size_t max_points = 512,
                         std::size_t threads = 0);

    /**
     * Fit with per-dimension ARD lengthscales: starts from the
     * isotropic hyperopt optimum and runs @p passes rounds of
     * coordinate-wise log-marginal-likelihood ascent over each
     * dimension's lengthscale. Irrelevant inputs end up with long
     * lengthscales and stop influencing the posterior. Ladder
     * candidates are fitted on @p threads workers with the same
     * determinism guarantee as fitWithHyperopt().
     */
    void fitArd(const std::vector<std::vector<double>> &x,
                const std::vector<double> &y,
                std::size_t max_points = 512, int passes = 2,
                std::size_t threads = 0);

    /**
     * Replace the targets but keep the retained inputs, the kernel
     * parameters and the Cholesky factor: re-standardize @p y (the
     * same most-recent @p max_points window fit() keeps), then
     * recompute α and the log marginal likelihood. The factor depends
     * only on the inputs and the kernel, so this is bit-identical to
     * fit() on the same x at O(n²) instead of O(n³). @p y must match
     * the x of the last fit(); an untrained GP refactorizes.
     */
    void refitTargets(const std::vector<double> &y,
                      std::size_t max_points = 512);

    /** True once fit() succeeded with at least one sample. */
    bool trained() const { return trained_; }

    /** Number of retained training points. */
    std::size_t size() const { return x_.size(); }

    /** Posterior prediction at @p x (prior if untrained). */
    Prediction predict(const std::vector<double> &x) const;

    /**
     * Posterior predictions at every point of @p xs, bit-identical to
     * predict() on each. The cross-covariances go through one blocked
     * multi-RHS triangular solve instead of one solve per point, and
     * every point's sums run in predict()'s order.
     */
    std::vector<Prediction>
    predictBatch(const std::vector<std::vector<double>> &xs) const;

    /**
     * The candidate of @p xs with the largest expectedImprovement()
     * against @p incumbent, ties to the lower index: the same winner,
     * and the same EI bits, as a strict '>' scan of predictBatch() in
     * pool order. A vector screen first brackets every candidate's
     * posterior mean with a proven error bound, which with the prior
     * variance bounds its EI from above (expectedImprovementBound()).
     * Exact cross-covariances, means and variances are then built one
     * solveLowerColumns() panel at a time in descending-bound order,
     * only while a candidate's EI can still win.
     */
    EiArgmax
    argmaxExpectedImprovement(const std::vector<std::vector<double>> &xs,
                              double incumbent) const;

    /** Log marginal likelihood of the current fit. */
    double logMarginalLikelihood() const;

    /** α = K⁻¹y over the standardized targets of the current fit. */
    const std::vector<double> &alpha() const { return alpha_; }

    /** Current kernel hyperparameters. */
    const KernelParams &params() const { return params_; }

  private:
    /** Everything a fit at one hyperparameter setting produces. */
    struct FitResult
    {
        std::unique_ptr<linalg::Cholesky> chol;
        std::vector<double> alpha;
        double lml = 0.0;
        bool ok = false;
    };

    /** Fit at @p params from the retained (x_, yStd_) data. Pure:
     *  touches no member state, safe to run concurrently. */
    FitResult computeFit(const KernelParams &params) const;

    /** Standardize the last @p max_points targets into yStd_. */
    void setTargets(const std::vector<double> &y, std::size_t max_points);

    /** α = K⁻¹ yStd_ and the log marginal likelihood on @p fit's
     *  factor; marks the fit ok. Shared by computeFit() and
     *  refitTargets() so both paths are the same arithmetic. */
    void solveTargets(FitResult &fit) const;

    /** K*: row i holds k(x_j, x_i) for every point x_j of @p xs. */
    linalg::Matrix crossCovariance(
        const std::vector<std::vector<double>> &xs) const;

    /** Σ_i K*_ij α_i for every column j of @p kstar, in predict()'s
     *  row order. */
    std::vector<double> meanSums(const linalg::Matrix &kstar) const;

    /** Σ_i v_ij² for v = L⁻¹K*, in predict()'s row order: one
     *  solveLowerColumns() over the columns of @p kstar. */
    std::vector<double> explainedSums(const linalg::Matrix &kstar) const;

    /** The posterior from a point's standardized mean sum, its prior
     *  variance k(x, x) and its explained variance. */
    Prediction posterior(double mean_std, double prior,
                         double explained) const;

    /** Adopt a fit as the current posterior. */
    void install(FitResult fit);

    void rebuild();

    KernelParams params_;
    std::vector<std::vector<double>> x_;
    std::vector<double> yStd_;  ///< standardized targets
    double yMean_ = 0.0;
    double yScale_ = 1.0;
    std::vector<double> alpha_; ///< K^{-1} y
    std::unique_ptr<linalg::Cholesky> chol_;
    bool trained_ = false;
    double lml_ = 0.0;
};

/**
 * Expected improvement for minimization: EI(x) = E[max(best - f, 0)].
 * @param best incumbent (smallest observed value, standardized to the
 *        same scale as @p pred).
 */
double expectedImprovement(const Prediction &pred, double best);

/**
 * An upper bound on expectedImprovement() for every mean at or above
 * @p pred.mean and every variance up to @p pred.variance,
 * floating-point rounding included:
 * EI at that variance plus a margin (see the comment at the
 * definition).
 */
double expectedImprovementBound(const Prediction &pred, double best);

} // namespace unico::surrogate

#endif // UNICO_SURROGATE_GP_HH
