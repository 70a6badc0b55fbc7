/**
 * @file
 * Abstract co-search environment.
 *
 * UNICO (Sec. 3.5) is an algorithm framework, portable across
 * platforms: it needs only (1) a discrete HW design space, (2) a
 * budgeted, resumable SW mapping search per hardware sample, and
 * (3) a PPA estimation engine with a known evaluation cost. This
 * interface captures exactly that contract; concrete environments
 * bind the spatial template + analytical model (open-source
 * platform) or the Ascend-like core + cycle-level simulator.
 */

#ifndef UNICO_CORE_ENV_HH
#define UNICO_CORE_ENV_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "accel/design_space.hh"
#include "accel/ppa.hh"
#include "common/status.hh"
#include "mapping/engine.hh"
#include "surrogate/learned_model.hh"

namespace unico::core {

/**
 * One in-progress SW mapping search for a fixed hardware sample.
 *
 * Contract: bestLossHistory() gains one (monotone non-increasing)
 * entry per evaluation; chargedSeconds() accumulates the nominal
 * virtual cost of the PPA queries issued so far.
 */
class MappingRun
{
  public:
    virtual ~MappingRun() = default;

    /** Spend @p evals more mapping evaluations. */
    virtual void step(int evals) = 0;

    /** Total evaluations spent. */
    virtual int spent() const = 0;

    /** PPA of the best mapping found so far (aggregated over the
     *  workload's layers). */
    virtual accel::Ppa bestPpa() const = 0;

    /** Best-so-far mapping loss after each evaluation. */
    virtual const std::vector<double> &bestLossHistory() const = 0;

    /**
     * Robustness / sensitivity metric R of Eq. (2) computed from the
     * mapping-search landscape seen so far.
     * @param alpha right-tail fraction defining the sub-optimal
     *        mapping (paper uses alpha = 0.05, i.e. the 95% point).
     */
    virtual double sensitivity(double alpha) const = 0;

    /** Virtual seconds of PPA-evaluation cost charged so far. */
    virtual double chargedSeconds() const = 0;

    /**
     * Graceful-degradation hook: ask the run to switch its PPA
     * engine to a cheaper, more reliable fidelity rung (e.g. from
     * the cycle-level simulator to the analytical cost model) after
     * repeated evaluation faults. Returns true if the run degraded;
     * false when it is already at the lowest rung. Incumbents and
     * history are preserved across the switch.
     */
    virtual bool degradeToAnalytical() { return false; }
};

/** A co-search environment: HW space + SW search + PPA engine. */
class CoSearchEnv
{
  public:
    virtual ~CoSearchEnv() = default;

    /** The hardware design space. */
    virtual const accel::DesignSpace &hwSpace() const = 0;

    /** Begin a SW mapping search for hardware @p h. */
    virtual std::unique_ptr<MappingRun>
    createRun(const accel::HwPoint &h, std::uint64_t seed) const = 0;

    /** Power envelope (mW); infinity when unconstrained. */
    virtual double
    powerBudgetMw() const
    {
        return std::numeric_limits<double>::infinity();
    }

    /** Area envelope (mm^2); infinity when unconstrained. */
    virtual double
    areaBudgetMm2() const
    {
        return std::numeric_limits<double>::infinity();
    }

    /** Human-readable hardware description. */
    virtual std::string describeHw(const accel::HwPoint &h) const = 0;

    /**
     * The shared evaluation cache the environment's runs memoize
     * through, or nullptr when caching is disabled. Decorator
     * environments (fault injection) forward to the wrapped env so
     * the driver can report cache statistics from any stack.
     */
    virtual const accel::EvalCache *evalCache() const { return nullptr; }

    /** Always empty; see common::TransportStats. */
    virtual common::TransportStats
    transportStats() const
    {
        return {};
    }

    /**
     * Surrogate-screening counters of the learned fast-path this
     * environment evaluates through (all zero / disabled when no
     * screen is attached). Like evalCache(): diagnostics the driver
     * snapshots into the result; decorator environments forward to
     * the wrapped env.
     */
    virtual surrogate::SurrogateStats
    surrogateStats() const
    {
        return {};
    }

    /**
     * Smallest useful SW search budget for one hardware sample —
     * typically the number of distinct layers, so that even the
     * first successive-halving round seeds every layer once.
     */
    virtual int minSeedBudget() const { return 1; }

    /**
     * Registry name of the backend this environment binds
     * ("spatial", "ascend"); "custom" for ad-hoc environments.
     * Stamped into checkpoints so --resume refuses a mismatched
     * stack. Decorators forward to the wrapped environment.
     */
    virtual std::string backendName() const { return "custom"; }

    /**
     * Constraint-scenario label ("edge", "cloud", "area200", ...);
     * empty when the backend has no scenario notion. Part of the
     * checkpoint stack identity alongside backendName().
     */
    virtual std::string scenarioName() const { return ""; }

    /**
     * Digest of the count-weighted layer set being co-optimized
     * (0 = unknown). Completes the checkpoint stack identity: a
     * resume against different workloads is refused.
     */
    virtual std::uint64_t workloadDigest() const { return 0; }

    /**
     * Hand-designed reference configuration, when the platform ships
     * one (e.g. the Ascend expert default of Fig. 11); std::nullopt
     * otherwise.
     */
    virtual std::optional<accel::HwPoint>
    expertDefault() const
    {
        return std::nullopt;
    }

    /**
     * Convenience: run one budgeted mapping search for configuration
     * @p h and return the aggregated best PPA (used to score fixed
     * reference designs in benches).
     */
    accel::Ppa
    evaluateConfig(const accel::HwPoint &h, int budget,
                   std::uint64_t seed) const
    {
        auto run = createRun(h, seed);
        run->step(budget);
        return run->bestPpa();
    }
};

} // namespace unico::core

#endif // UNICO_CORE_ENV_HH
