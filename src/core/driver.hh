/**
 * @file
 * The bi-level co-optimization driver (Algorithm 1).
 *
 * One configurable driver implements UNICO and the paper's
 * comparison points as mode combinations:
 *
 *   UNICO            = MSH budgets + HighFidelity update + R metric
 *   MSH + Champion   = ablation of Sec. 4.5
 *   SH  + Champion   = ablation of Sec. 4.5
 *   MOBOHB-like      = SH budgets + update with all samples
 *   HASCO-like       = full budget for every sample + Champion update
 *                      ("ChampionUpdate without SH", Sec. 4.5)
 */

#ifndef UNICO_CORE_DRIVER_HH
#define UNICO_CORE_DRIVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/design_space.hh"
#include "accel/ppa.hh"
#include "common/cancel.hh"
#include "common/eval_clock.hh"
#include "core/env.hh"
#include "core/job_context.hh"
#include "core/progress.hh"
#include "core/sh.hh"
#include "moo/pareto.hh"

namespace unico::common {
class ThreadPool;
class Watchdog;
} // namespace unico::common

namespace unico::core {

class MoboHwSampler;
class HighFidelitySelector;

/** SW search budget allocation policy across a HW batch. */
enum class BudgetMode {
    FullBudget, ///< every candidate receives bMax (no early stopping)
    SH,         ///< default successive halving (TV only)
    MSH,        ///< modified successive halving (TV + AUC quota)
    Hyperband,  ///< SH brackets of varying aggressiveness (BOHB-style)
};

/** Surrogate-model update policy. */
enum class UpdateMode {
    All,          ///< train on every sample (BOHB-style)
    HighFidelity, ///< High Fidelity Update Rule (UUL)
    Champion,     ///< train only on each batch's best sample
};

/** Human-readable mode names. */
const char *toString(BudgetMode mode);
const char *toString(UpdateMode mode);

/** Inverse of toString(); throws std::invalid_argument on an
 *  unknown name. Round-trip: fromString(toString(m)) == m. */
BudgetMode budgetModeFromString(const std::string &name);
UpdateMode updateModeFromString(const std::string &name);

/**
 * Recovery policy of the fault-tolerant evaluation supervisor.
 *
 * Evaluations classified Transient or Timeout (common::EvalStatus)
 * are retried with capped exponential backoff, every retry and
 * backoff charged to the EvalClock as real search cost. After
 * degradeAfterFaults faults on the same candidate the supervisor
 * drops the run one fidelity rung (cycle-level simulator ->
 * analytical model). A candidate that exhausts its retries, or hits
 * a Fatal fault, falls back to penalty PPA so the SH round and the
 * MOBO archive proceed with N-f survivors instead of aborting.
 */
struct RecoveryConfig
{
    /** Retries per candidate per SH round before penalty fallback. */
    int maxRetries = 3;
    /** Backoff after the i-th retry: base * 2^(i-1), capped. */
    double backoffBaseSeconds = 5.0;
    double backoffCapSeconds = 60.0;
    /** Faults on one candidate before degrading its PPA engine. */
    int degradeAfterFaults = 2;
};

/** Per-category fault counts observed by the supervisor. */
struct FaultStats
{
    std::uint64_t transient = 0;    ///< crashes / garbage (retryable)
    std::uint64_t timeout = 0;      ///< deadline expiries (virtual or
                                    ///< wall-clock watchdog)
    std::uint64_t corrupt = 0;      ///< invalid PPA detected
    std::uint64_t fatal = 0;        ///< non-retryable failures
    std::uint64_t retries = 0;      ///< retry attempts issued
    std::uint64_t degradations = 0; ///< engine-downgrade events
    std::uint64_t penalized = 0;    ///< candidates on penalty PPA
    /** MOBO trials whose GP fit failed (Cholesky jitter exhausted or
     *  non-finite posterior) and fell back to space-filling
     *  candidate selection instead of aborting. */
    std::uint64_t gpFallbacks = 0;
    /** Corrupted/truncated checkpoint generations skipped while
     *  resuming from the rotation window. */
    std::uint64_t checkpointRecoveries = 0;

    /** Total faults across categories. */
    std::uint64_t
    total() const
    {
        return transient + timeout + corrupt + fatal;
    }

    /** Accumulate another counter set. */
    void merge(const FaultStats &other);
};

/** One-line digest ("faults: transient=2 timeout=1 ..."). */
std::string toString(const FaultStats &stats);

/** Full driver configuration. */
struct DriverConfig
{
    std::string name = "unico";       ///< label used in reports
    int batchSize = 30;               ///< N, HW samples per MOBO trial
    int maxIter = 10;                 ///< MaxIter MOBO trials
    ShConfig sh;                      ///< bMax / eta / kFrac / pFrac
    BudgetMode budgetMode = BudgetMode::MSH;
    UpdateMode updateMode = UpdateMode::HighFidelity;
    bool useRobustness = true;        ///< append R as 4th objective
    double alpha = 0.05;              ///< sub-optimal quantile for R
    /** Fraction of HW samples drawn at random instead of by the
     *  acquisition (BOHB-style exploration; MOBOHB uses 1/3). */
    double randomFraction = 0.0;
    /** Use per-dimension ARD lengthscales in the surrogate. */
    bool ardSurrogate = false;
    std::size_t workers = 8;          ///< virtual worker pool size
    /** Host threads actually used to run SW-search jobs of one SH
     *  round concurrently (Sec. 3.5's parallel implementation).
     *  Results are bit-identical to the serial execution: each job
     *  owns its MappingRun and its seeded RNG. */
    std::size_t realThreads = 1;
    int minBudgetPerRound = 8;        ///< floor on per-round budget
    std::uint64_t seed = 1;
    RecoveryConfig recovery;          ///< fault-recovery policy
    /** Checkpoint file written at trial boundaries (empty =
     *  checkpointing disabled). Writes are CRC-trailed, fsynced and
     *  atomically renamed. */
    std::string checkpointPath;
    /** Resume from the checkpoint rotation window if any generation
     *  exists; the checkpoint's config fingerprint must match this
     *  configuration. */
    bool resumeFromCheckpoint = false;
    /** Auto-checkpoint every N completed trials (>= 1). */
    int checkpointEvery = 1;
    /** Rotated checkpoint generations kept on disk (path, path.1,
     *  ...); resume falls back past generations that fail CRC/parse
     *  validation. <= 1 keeps only the newest. */
    int checkpointKeep = 3;
    /** Whole-run wall-clock deadline in real seconds (0 = none);
     *  enforced by a watchdog thread independent of the virtual
     *  EvalClock. On expiry the run drains, checkpoints and returns
     *  with interrupted state, exactly like a shutdown signal. */
    double wallDeadlineSeconds = 0.0;
    /** Per-evaluation-attempt wall-clock deadline in real seconds
     *  (0 = none). Expiry cancels the attempt cooperatively and is
     *  classified EvalStatus::Timeout (retry/degrade/penalty). */
    double evalWallDeadlineSeconds = 0.0;
    /** External cancellation (e.g. the process-wide shutdown token
     *  cancelled by SIGINT/SIGTERM handlers); polled at iteration and
     *  evaluation-chunk boundaries. Not owned. */
    const common::CancelToken *cancel = nullptr;

    /** The canonical UNICO configuration. */
    static DriverConfig unico();
    /** HASCO-like baseline: full budget + champion update, no R. */
    static DriverConfig hascoLike();
    /** MOBOHB-like baseline: default SH + update-with-all, no R. */
    static DriverConfig mobohbLike();
    /** Ablation: default SH + champion update, no R. */
    static DriverConfig shChampion();
    /** Ablation: modified SH + champion update, no R. */
    static DriverConfig mshChampion();
};

/** One fully evaluated hardware sample. */
struct HwEvalRecord
{
    accel::HwPoint hw;
    accel::Ppa ppa;            ///< PPA at the best mapping found
    double sensitivity = 0.0;  ///< R (0 when robustness disabled)
    int budgetSpent = 0;       ///< SW evaluations granted by SH
    bool constraintOk = false; ///< feasible and within power/area
    bool fullySearched = false; ///< survived to the full b_max budget
    bool highFidelity = false; ///< passed the surrogate update rule
    int iteration = 0;         ///< MOBO trial that produced it
    int faults = 0;            ///< evaluation faults on this candidate
    bool degraded = false;     ///< PPA engine was downgraded
    bool penalized = false;    ///< retries exhausted -> penalty PPA
};

/** Pareto-front snapshot along the search-cost axis. */
struct TracePoint
{
    double hours;                        ///< virtual search cost
    std::vector<moo::Objectives> front;  ///< (lat, pow, area) points
};

/** Outcome of one co-search. */
struct CoSearchResult
{
    std::vector<HwEvalRecord> records; ///< every HW evaluated
    moo::ParetoFront front;  ///< constrained (lat, pow, area) front;
                             ///< entry ids index into records
    std::vector<TracePoint> trace; ///< per-iteration snapshots
    double totalHours = 0.0;
    std::uint64_t evaluations = 0;
    FaultStats faults;       ///< supervisor-observed fault counts
    /** Evaluation-cache counters (all zero when caching is off).
     *  Diagnostics only: never serialized into checkpoints and never
     *  part of the records/front CSVs, which stay byte-identical
     *  with the cache on or off. */
    common::CacheStats cacheStats;
    /** Surrogate-screening counters (disabled/zero without the
     *  learned fast-path). Diagnostics only, like cacheStats: never
     *  serialized into checkpoints or the records/front/trace CSVs,
     *  which stay byte-identical with screening off. */
    surrogate::SurrogateStats surrogateStats;
    /** Wall seconds the MOBO sampler (GP fit + acquisition) took in
     *  this run (MoboHwSampler::overheadSeconds()). Diagnostics only,
     *  like cacheStats: never serialized into checkpoints, CSVs or
     *  progress events; a resumed run counts only its own batches. */
    double samplerWallSeconds = 0.0;
    /** True when the run wound down early (shutdown signal or
     *  wall-clock deadline) after draining in-flight work and writing
     *  a resumable checkpoint; partial-trial state is rolled back so
     *  a resume reproduces the uninterrupted run bit-for-bit. */
    bool interrupted = false;
    /** Why the run stopped early ("signal", "wall-deadline"). */
    std::string interruptReason;
    /** Non-fatal incidents worth surfacing (checkpoint save failures,
     *  corrupted-generation fallbacks, GP-fit degradations). Not
     *  serialized; transient to the producing process. */
    std::vector<std::string> warnings;

    /** Record index of the min-Euclidean-distance Pareto design
     *  (Sec. 4.2); requires a non-empty front. */
    std::size_t minDistanceRecord() const;
};

/**
 * The named algorithm presets the CLI and the job manager share
 * ("unico", "hasco", "mobohb", "sh", "msh" — the DriverConfig
 * factory of the same flavour). Throws std::invalid_argument on an
 * unknown name so both front-ends reject specs identically.
 */
DriverConfig driverConfigForAlgo(const std::string &algo);

/**
 * The bi-level co-optimizer in resumable stepped form.
 *
 * start() binds the environment (and restores a checkpoint when the
 * configuration asks for one); each step() executes exactly one MOBO
 * trial and returns whether more work remains; result() seals the
 * outcome (final checkpoint, totals, diagnostics snapshots). The
 * monolithic CoOptimizer::run() is now a thin loop over this class.
 *
 * Per-job isolation: with an external JobContext the search charges
 * the job's EvalClock and polls the job's CancelToken at every
 * cooperative boundary (trial, SH round, evaluation chunk), so any
 * number of CoSearch instances can run concurrently in one process
 * — each on its own thread — without sharing mutable state beyond
 * the read-mostly evaluation cache their environments may point at.
 *
 * Progress: life-cycle milestones (trial completed, incumbent
 * changed, Pareto-front delta, checkpoint written) are emitted
 * through the optional ProgressObserver; events are observations
 * only and never alter the trajectory.
 */
class CoSearch
{
  public:
    /** @param ctx per-job state; nullptr uses an internal context.
     *  @param observer progress sink; nullptr disables emission.
     *  Both, when given, must outlive the CoSearch. */
    CoSearch(CoSearchEnv &env, DriverConfig cfg,
             JobContext *ctx = nullptr,
             ProgressObserver *observer = nullptr);
    ~CoSearch();

    CoSearch(const CoSearch &) = delete;
    CoSearch &operator=(const CoSearch &) = delete;

    /** Bind, resume, arm deadlines; idempotent. May throw
     *  CheckpointMismatchError on a foreign checkpoint. */
    void start();

    /** Run one MOBO trial. Returns true while more trials remain
     *  and the search has not been interrupted. */
    bool step();

    /** Trials completed so far (including restored ones). */
    int completedIterations() const { return completedIters_; }

    /** True once every trial ran or the search was interrupted. */
    bool finished() const;

    /** Seal and return the outcome (final checkpoint, totals);
     *  idempotent after the first call. */
    CoSearchResult result();

  private:
    bool pollInterrupt();
    void runTrial();
    void saveCheckpoint(int completed);
    void emit(ProgressEvent event);
    void emitIncumbentIfChanged();

    CoSearchEnv &env_;
    DriverConfig cfg_;
    JobContext ownedCtx_;
    JobContext *ctx_;
    ProgressObserver *observer_;

    std::size_t numObj_ = 3;
    std::unique_ptr<MoboHwSampler> sampler_;
    std::unique_ptr<HighFidelitySelector> selector_;
    std::vector<double> championW_;
    int minBudget_ = 1;
    StackIdentity stackId_;
    common::CancelToken runToken_;
    std::unique_ptr<common::ThreadPool> roundPool_;
    std::unique_ptr<common::Watchdog> watchdog_;
    std::uint64_t runWatchId_ = 0;
    CoSearchResult result_;
    int startIter_ = 0;
    int completedIters_ = 0;
    int lastSavedIter_ = 0;
    int iter_ = 0;
    std::size_t lastIncumbent_ = static_cast<std::size_t>(-1);
    bool started_ = false;
    bool sealed_ = false;
};

/** The bi-level co-optimizer (one-shot facade over CoSearch). */
class CoOptimizer
{
  public:
    CoOptimizer(CoSearchEnv &env, DriverConfig cfg,
                JobContext *ctx = nullptr,
                ProgressObserver *observer = nullptr);

    /** Execute Algorithm 1 and return the search outcome. */
    CoSearchResult run();

  private:
    CoSearch search_;
};

} // namespace unico::core

#endif // UNICO_CORE_DRIVER_HH
