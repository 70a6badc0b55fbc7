/**
 * @file
 * Learned surrogate fast-path: an online ridge-regression cost model
 * that pre-screens mapping candidates so exact (analytical or
 * cycle-level) evaluations are reserved for the most promising
 * fraction.
 *
 * Grounded in Shi et al., "Learned Hardware/Software Co-Design of
 * Neural Accelerators" and DOSA's differentiable one-loop search:
 * mapping quality is largely predictable from cheap structural
 * features (tile sizes, loop orders, buffer/PE dimensions, derived
 * MACs/bytes ratios), so a model refit on the exact evaluations a run
 * has already paid for can filter out most losers before they reach
 * the expensive model.
 *
 * Determinism contract: every component here is a pure function of
 * the observation sequence — features are deterministic, the Gram
 * accumulation and Cholesky refit are bit-stable, and the admission
 * policy uses no RNG. Each per-layer screen trains only on its own
 * run-local exact evaluations, so serial and threaded runs make
 * identical decisions; with screening disabled (or keep = 1.0)
 * trajectories are byte-identical to a build without this module.
 * Exact evaluations remain the sole source of truth: screened-out
 * candidates return surrogate-fidelity evals that never become
 * incumbents, samples, checkpoint state, Pareto entries or CSV rows.
 */

#ifndef UNICO_SURROGATE_LEARNED_MODEL_HH
#define UNICO_SURROGATE_LEARNED_MODEL_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "accel/ascend.hh"
#include "accel/spatial.hh"
#include "camodel/cube_mapping.hh"
#include "camodel/search.hh"
#include "common/shard_cache.hh"
#include "linalg/matrix.hh"
#include "mapping/engine.hh"
#include "mapping/mapping.hh"
#include "workload/tensor_op.hh"

namespace unico::surrogate {

/** Tuning knobs of the surrogate screening stage. */
struct SurrogateOptions
{
    /** Master switch; false is the byte-identical legacy path. */
    bool enabled = false;

    /** Fraction of candidates admitted to exact evaluation once the
     *  screen is trained; the rest are answered by the model. */
    double keep = 0.25;

    /** Exact evaluations each per-layer screen observes before it
     *  starts screening (clamped >= 1 so the always-feasible first
     *  candidate of every engine is evaluated exactly). */
    int warmup = 12;

    /** Refit cadence: weights are recomputed from the accumulated
     *  normal equations every this many observations. */
    int refitEvery = 8;

    /** Ridge regularizer of the refit solve. */
    double ridge = 1e-3;

    /** Screened-out candidates admitted unconditionally after this
     *  many consecutive rejections, so the training signal never
     *  starves even at tiny keep fractions. */
    int forceAdmitAfter = 32;

    /** Sliding window of recent predicted scores that defines the
     *  keep-quantile admission threshold. */
    int scoreWindow = 64;
};

/** Aggregated screening counters (plain snapshot, safe to copy). */
struct SurrogateStats
{
    bool enabled = false;
    double keep = 1.0;
    std::uint64_t screens = 0;      ///< per-layer screens constructed
    std::uint64_t candidates = 0;   ///< screening decisions taken
    std::uint64_t screenedOut = 0;  ///< answered by the model
    std::uint64_t admitted = 0;     ///< sent to exact evaluation
    std::uint64_t forcedAdmits = 0; ///< admits forced by starvation
    std::uint64_t observations = 0; ///< exact evals trained on
    std::uint64_t refits = 0;       ///< normal-equation refits

    /** Fraction of screening decisions answered by the model. */
    double
    screenRate() const
    {
        return candidates > 0 ? static_cast<double>(screenedOut) /
                                    static_cast<double>(candidates)
                              : 0.0;
    }
};

/** One-line digest ("surrogate: screened=... admitted=... ..."). */
std::string toString(const SurrogateStats &stats);

/** Thread-safe counter sink shared by every screen of a run. */
class SurrogateSink
{
  public:
    void noteScreen() { screens_.fetch_add(1, std::memory_order_relaxed); }
    void
    noteDecision(bool admitted, bool forced)
    {
        candidates_.fetch_add(1, std::memory_order_relaxed);
        if (admitted)
            admitted_.fetch_add(1, std::memory_order_relaxed);
        else
            screenedOut_.fetch_add(1, std::memory_order_relaxed);
        if (forced)
            forcedAdmits_.fetch_add(1, std::memory_order_relaxed);
    }
    void
    noteObservation()
    {
        observations_.fetch_add(1, std::memory_order_relaxed);
    }
    void noteRefit() { refits_.fetch_add(1, std::memory_order_relaxed); }

    /** Momentary counter snapshot (stats fields only). */
    SurrogateStats snapshot() const;

  private:
    std::atomic<std::uint64_t> screens_{0};
    std::atomic<std::uint64_t> candidates_{0};
    std::atomic<std::uint64_t> screenedOut_{0};
    std::atomic<std::uint64_t> admitted_{0};
    std::atomic<std::uint64_t> forcedAdmits_{0};
    std::atomic<std::uint64_t> observations_{0};
    std::atomic<std::uint64_t> refits_{0};
};

/**
 * Shared surrogate state of one run, owned by the caller (CLI, bench
 * or test) and passed to the backend environments like the eval
 * cache. The optional corpus tap receives every exact observation as
 * a (fingerprint, features, targets) row for offline corpus dumps.
 */
struct SurrogateContext
{
    SurrogateOptions options;
    SurrogateSink sink;
    common::CorpusTap *tap = nullptr;

    /** Options + counters folded into one reportable snapshot. */
    SurrogateStats snapshot() const;
};

/** Prediction heads of the online cost model. */
enum SurrogateHead : int {
    kHeadLogLoss = 0,
    kHeadLogLatency = 1,
    kHeadLogEnergy = 2,
    kHeadArea = 3,
    kNumHeads = 4,
};

/**
 * Incrementally refit ridge regression over kNumHeads targets.
 *
 * observe() performs a rank-1 update of the shared Gram matrix XᵀX
 * and the per-head right-hand sides Xᵀy; every refitEvery
 * observations the weights are recomputed via the jittered-Cholesky
 * normal-equation solve. All state is a pure function of the
 * observation sequence, so identical corpora yield bit-identical
 * weights regardless of wall-clock or thread schedule.
 */
class OnlineCostModel
{
  public:
    OnlineCostModel(std::size_t dim, double ridge, int refit_every);

    /** Fold one exact observation into the normal equations. */
    void observe(const linalg::Vector &features,
                 const std::array<double, kNumHeads> &targets);

    /** True once at least one refit has produced weights. */
    bool ready() const { return fitted_; }

    /** Linear prediction of @p head at @p features (0 until ready). */
    double predict(int head, const linalg::Vector &features) const;

    /** Current weights of @p head (for determinism tests). */
    const linalg::Vector &weights(int head) const { return w_[head]; }

    std::uint64_t observations() const { return observations_; }
    std::uint64_t refits() const { return refits_; }

  private:
    void refit();

    std::size_t dim_;
    double ridge_;
    int refitEvery_;
    linalg::Matrix gram_;
    std::array<linalg::Vector, kNumHeads> rhs_;
    std::array<linalg::Vector, kNumHeads> w_;
    std::uint64_t observations_ = 0;
    std::uint64_t refits_ = 0;
    bool fitted_ = false;
};

/** Exact-eval targets in head order (log-compressed PPA + loss). */
std::array<double, kNumHeads> extractTargets(const mapping::MappingEval &eval);

/**
 * Deterministic feature vector of a spatial-template candidate:
 * log2 tile sizes, one-hot spatial unroll dims, loop-order positions,
 * log2 PE/buffer/NoC dimensions and derived footprint/intensity
 * ratios, with a leading bias term.
 */
linalg::Vector extractSpatialFeatures(const workload::TensorOp &op,
                                      const accel::SpatialHwConfig &hw,
                                      const mapping::Mapping &m);

/** Feature-vector length of extractSpatialFeatures. */
std::size_t spatialFeatureDim();

/**
 * Deterministic feature vector of a cube-core candidate: log2 L1/L0
 * tiles, buffering switches, log2 buffer/cube dimensions, the lowered
 * GEMM shape and derived tile-ratio/footprint features.
 */
linalg::Vector extractCubeFeatures(const workload::TensorOp &op,
                                   const accel::CubeHwConfig &hw,
                                   const camodel::CubeMapping &m);

/** Feature-vector length of extractCubeFeatures. */
std::size_t cubeFeatureDim();

/**
 * Per-layer screen for the spatial backend, or nullptr when @p ctx is
 * null or screening is disabled (the byte-identical default). The
 * screen trains run-locally on the exact evaluations that flow
 * through it; @p context is the query-context fingerprint used to key
 * corpus-tap rows consistently with the evaluation cache.
 */
std::unique_ptr<mapping::CandidateScreen>
makeSpatialScreen(SurrogateContext *ctx, const workload::TensorOp &op,
                  const accel::SpatialHwConfig &hw,
                  common::Fingerprint context);

/** Cube-core twin of makeSpatialScreen. */
std::unique_ptr<camodel::CubeCandidateScreen>
makeCubeScreen(SurrogateContext *ctx, const workload::TensorOp &op,
               const accel::CubeHwConfig &hw, common::Fingerprint context);

} // namespace unico::surrogate

#endif // UNICO_SURROGATE_LEARNED_MODEL_HH
