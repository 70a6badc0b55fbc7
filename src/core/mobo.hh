/**
 * @file
 * Batched multi-objective Bayesian-optimization hardware sampler
 * (Sec. 3.2): a ParEGO-style surrogate (GP over the scalarized
 * objective with per-slot random simplex weights) proposes batches
 * of N hardware configurations by maximizing expected improvement
 * over a candidate pool of random and locally mutated designs.
 */

#ifndef UNICO_CORE_MOBO_HH
#define UNICO_CORE_MOBO_HH

#include <cstdint>
#include <set>
#include <vector>

#include "accel/design_space.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "moo/pareto.hh"
#include "surrogate/gp.hh"

namespace unico::core {

/** Tunables of the MOBO hardware sampler. */
struct MoboConfig
{
    std::size_t candidatePool = 192; ///< random candidates per slot
    std::size_t eliteMutants = 48;   ///< mutated elite candidates
    std::size_t maxGpPoints = 256;   ///< subset-of-data cap
    double rho = 0.2;                ///< ParEGO augmentation
    /** Fraction of each batch drawn uniformly at random (BOHB-style
     *  exploration mix; 0 = fully model-guided). */
    double randomFraction = 0.0;
    /** Tune per-dimension ARD lengthscales when first fitting the
     *  surrogate (slower, but down-weights irrelevant HW axes). */
    bool useArd = false;
    /** Worker threads for the GP hyperparameter grid search
     *  (0 = hardware concurrency; results are thread-count
     *  independent). */
    std::size_t gpThreads = 0;
};

/** Batched MOBO sampler over a discrete hardware design space. */
class MoboHwSampler
{
  public:
    MoboHwSampler(const accel::DesignSpace &space,
                  std::size_t num_objectives, std::uint64_t seed,
                  MoboConfig cfg = MoboConfig{});

    /**
     * Record an evaluated hardware sample.
     * @param high_fidelity whether the sample passed the High
     *        Fidelity Update Rule (only these train the surrogate).
     * A sample with a non-finite objective is recorded but never
     * trains the surrogate and does not move the ideal/nadir bounds.
     */
    void observe(const accel::HwPoint &h, const moo::Objectives &y,
                 bool high_fidelity);

    /** Total observations recorded. */
    std::size_t observations() const { return all_.size(); }

    /** Observations currently marked high fidelity. */
    std::size_t highFidelityCount() const;

    /**
     * Flip the high-fidelity flag of observation @p index (insertion
     * order). The driver records a whole batch first, runs the
     * update rule on the batch's normalized objectives, then marks
     * the selected samples.
     */
    void setHighFidelity(std::size_t index, bool high_fidelity);

    /**
     * Min-max normalize raw objectives using the running ideal/nadir
     * over *all* observations (so scalars are comparable across MOBO
     * trials).
     */
    moo::Objectives normalize(const moo::Objectives &y) const;

    /**
     * Propose a batch of @p n hardware configurations, deduplicated
     * against each other and against past observations where
     * possible. Falls back to random sampling until the surrogate
     * has enough high-fidelity data.
     */
    std::vector<accel::HwPoint> sampleBatch(std::size_t n);

    /** Wall seconds this sampler object spent in sampleBatch() (GP
     *  fit + acquisition). Diagnostics only: not part of the virtual
     *  EvalClock and not in saveState(), so a resumed run counts only
     *  its own batches. */
    double overheadSeconds() const { return overheadSeconds_; }

    /** Proposals that fell back to space-filling sampling because the
     *  GP fit failed (Cholesky jitter exhausted) or produced a
     *  non-finite posterior. Monotone; the driver tracks deltas. */
    std::uint64_t gpFallbacks() const { return gpFallbacks_; }

    /**
     * Serialize the sampler state (observations, RNG, tuned kernel)
     * for checkpointing. restoreState() on a sampler constructed
     * with the same space/objectives/config reproduces the exact
     * sampling stream the saved sampler would have produced.
     */
    common::Json saveState() const;

    /** Restore a snapshot produced by saveState(). */
    void restoreState(const common::Json &state);

  private:
    struct Obs
    {
        accel::HwPoint h;
        std::vector<double> x; ///< normalized design vector
        moo::Objectives y;     ///< raw objectives
        bool highFidelity;
    };

    struct BatchModel;

    accel::HwPoint proposeOne(BatchModel &model,
                              const std::set<accel::HwPoint> &batch_keys);

    const accel::DesignSpace &space_;
    std::size_t numObjectives_;
    MoboConfig cfg_;
    common::Rng rng_;
    std::vector<Obs> all_;
    std::set<accel::HwPoint> seenKeys_;
    moo::Objectives ideal_;
    moo::Objectives nadir_;
    surrogate::KernelParams kernelParams_;
    bool kernelTuned_ = false;
    double overheadSeconds_ = 0.0;
    std::uint64_t gpFallbacks_ = 0;
};

} // namespace unico::core

#endif // UNICO_CORE_MOBO_HH
