/**
 * @file
 * Result reporting: export a CoSearchResult (records, Pareto front,
 * convergence trace) to CSV files for offline analysis/plotting, and
 * summarize a search in a human-readable digest.
 */

#ifndef UNICO_CORE_REPORT_HH
#define UNICO_CORE_REPORT_HH

#include <string>

#include "core/driver.hh"
#include "core/env.hh"

namespace unico::core {

/** Compact per-search summary statistics. */
struct SearchSummary
{
    std::size_t samples = 0;          ///< HW configurations evaluated
    std::size_t feasible = 0;         ///< with a feasible mapping
    std::size_t constraintOk = 0;     ///< within power/area budgets
    std::size_t frontSize = 0;        ///< archived Pareto points
    std::size_t fullySearched = 0;    ///< received the full b_max
    double totalHours = 0.0;
    std::uint64_t evaluations = 0;    ///< SW search budget spent
    double bestLatencyMs = 0.0;       ///< over constraint-ok samples
    double bestPowerMw = 0.0;
    double bestAreaMm2 = 0.0;
    double meanSensitivity = 0.0;     ///< mean R over feasible samples
};

/** Compute summary statistics of a finished search. */
SearchSummary summarize(const CoSearchResult &result);

/** Render the summary as a short multi-line string. */
std::string toString(const SearchSummary &summary);

/**
 * Write the per-record table as CSV:
 * iteration, hw (description), latency, power, area, sensitivity,
 * budget, constraint_ok, fully_searched, high_fidelity.
 * @return false on I/O failure.
 */
bool writeRecordsCsv(const CoSearchResult &result, const CoSearchEnv &env,
                     const std::string &path);

/** Write the Pareto front as CSV (hw, latency, power, area). */
bool writeFrontCsv(const CoSearchResult &result, const CoSearchEnv &env,
                   const std::string &path);

/** Write the convergence trace as CSV (hours, front_size,
 *  best_latency, best_power). */
bool writeTraceCsv(const CoSearchResult &result, const std::string &path);

/**
 * Write the evaluation-cache counters as a one-row CSV (hits, misses,
 * hit_rate, insertions, evictions, entries, bytes, capacity_bytes,
 * shards). Kept separate from the records/front CSVs so those stay
 * byte-identical with the cache on or off.
 */
bool writeCacheCsv(const CoSearchResult &result, const std::string &path);

/**
 * Write the fault ledger as a one-row CSV: the evaluation-fault
 * categories the supervisor handled (transient, timeout, corrupt,
 * fatal, retries, degradations, penalized, gp_fallbacks,
 * ckpt_recoveries). Kept separate from the records/front/trace CSVs
 * so those stay byte-identical across execution topologies.
 */
bool writeFaultsCsv(const CoSearchResult &result, const std::string &path);

} // namespace unico::core

#endif // UNICO_CORE_REPORT_HH
