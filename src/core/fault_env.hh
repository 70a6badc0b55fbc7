/**
 * @file
 * Fault-injecting decorator over any co-search environment.
 *
 * FaultyEnv wraps a CoSearchEnv and makes its MappingRuns fail the
 * way real cluster evaluations fail (Sec. 3.5): transient crashes
 * (thrown as EvalFault{Transient}), hangs (the supervisor's deadline
 * fires — virtual seconds are charged and EvalFault{Timeout} is
 * thrown) and silently corrupted PPA results (bestPpa() returns
 * garbage until a healthy re-evaluation repairs the incumbent).
 * All decisions come from a deterministic, seeded common::FaultPlan,
 * so fault patterns reproduce bit-for-bit across runs and thread
 * schedules — every recovery path in the driver is testable.
 */

#ifndef UNICO_CORE_FAULT_ENV_HH
#define UNICO_CORE_FAULT_ENV_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/fault.hh"
#include "core/env.hh"

namespace unico::core {

/** Snapshot of how many faults a FaultyEnv has injected so far. */
struct InjectionCounts
{
    std::uint64_t transient = 0;
    std::uint64_t hang = 0;
    std::uint64_t corrupt = 0;

    std::uint64_t
    total() const
    {
        return transient + hang + corrupt;
    }
};

/** Fault-injecting wrapper around an inner environment. */
class FaultyEnv : public CoSearchEnv
{
  public:
    /**
     * @param inner the real environment; must outlive the wrapper.
     * @param plan  per-evaluation fault oracle. The seed passed to
     *        createRun() is the plan's stream key, so each candidate
     *        owns an independent, reproducible fault stream.
     */
    FaultyEnv(CoSearchEnv &inner, common::FaultPlan plan);

    const accel::DesignSpace &hwSpace() const override;
    std::unique_ptr<MappingRun>
    createRun(const accel::HwPoint &h, std::uint64_t seed) const override;
    double powerBudgetMw() const override;
    double areaBudgetMm2() const override;
    std::string describeHw(const accel::HwPoint &h) const override;
    int minSeedBudget() const override;
    const accel::EvalCache *evalCache() const override
    {
        return inner_.evalCache();
    }
    surrogate::SurrogateStats surrogateStats() const override
    {
        return inner_.surrogateStats();
    }
    // Stack identity is the wrapped environment's: fault injection
    // does not change what a checkpoint was computed against.
    std::string backendName() const override;
    std::string scenarioName() const override;
    std::uint64_t workloadDigest() const override;
    std::optional<accel::HwPoint> expertDefault() const override;

    /** The fault oracle in use. */
    const common::FaultPlan &plan() const { return plan_; }

    /** Faults injected so far (across all runs of this env). */
    InjectionCounts injected() const;

  private:
    friend class FaultyRun;

    CoSearchEnv &inner_;
    common::FaultPlan plan_;
    mutable std::atomic<std::uint64_t> transient_{0};
    mutable std::atomic<std::uint64_t> hang_{0};
    mutable std::atomic<std::uint64_t> corrupt_{0};
};

} // namespace unico::core

#endif // UNICO_CORE_FAULT_ENV_HH
