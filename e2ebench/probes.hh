/**
 * @file
 * Direct-call layer probes: time single layers through their public
 * functions on the data of a finished search (its archive, its ops,
 * its front designs, its final checkpoint).
 */

#ifndef UNICO_E2EBENCH_PROBES_HH
#define UNICO_E2EBENCH_PROBES_HH

#include <string>
#include <vector>

#include "core/driver.hh"
#include "core/env.hh"
#include "workload/network.hh"

namespace unico::e2ebench {

/** Median timings of the layer probes (each over kProbeReps reps). */
struct ProbeResults
{
    double sampleBatchMs = 0.0;   ///< MoboHwSampler::sampleBatch(batch)
    double gpFitMs = 0.0;         ///< GaussianProcess::fit at n = 256
    double gpPredictUs = 0.0;     ///< GaussianProcess::predict at n = 256
    double choleskyMs = 0.0;      ///< Cholesky factorization, n = 256
    double solveLowerUs = 0.0;    ///< Cholesky::solveLower, n = 256
    double costmodelColdNs = 0.0; ///< AnalyticalCostModel::evaluate
    double camodelColdUs = 0.0;   ///< CycleAccurateModel::evaluate
    double cacheHitNs = 0.0;      ///< evaluateCached hit, searched engine
    double poolParallelism = 0.0; ///< busy / wall of one round on the pool
    double checkpointSaveMs = 0.0;
    double checkpointLoadMs = 0.0;
    double checkpointBytes = 0.0;
};

/** Repetitions behind every probe median. */
constexpr int kProbeReps = 5;

/** Everything the probes read from one finished search. */
struct ProbeInput
{
    const core::CoSearchEnv &env; ///< the searched (undecorated) env
    const core::CoSearchResult &result;
    const core::DriverConfig &cfg;
    /** Networks the search ran on (for the other backend's engine). */
    std::vector<workload::Network> networks;
    /** Scratch file the checkpoint probe writes. */
    std::string scratchCheckpoint;
};

/** Run every probe; throws std::runtime_error on a failed layer call. */
ProbeResults runProbes(const ProbeInput &in);

} // namespace unico::e2ebench

#endif // UNICO_E2EBENCH_PROBES_HH
