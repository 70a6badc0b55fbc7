/**
 * @file
 * Multi-tenant co-search job manager.
 *
 * Turns the one-run-per-process driver stack into schedulable jobs:
 * submit() enqueues a RunSpec (core/run_spec.hh, the spec
 * co_search_cli reads from its flags), a fixed pool of scheduler
 * threads runs up to maxConcurrent jobs at once through the stepped
 * CoSearch driver, and cancel/pause/resume/status act on individual jobs
 * without perturbing their neighbours.
 *
 * Isolation model: each job owns a JobContext (seeded trajectory,
 * EvalClock, CancelToken, checkpoint prefix) plus its own
 * environment, fault injector and surrogate context, all built on
 * the job's scheduler thread. Jobs share exactly one mutable
 * resource — the optional read-mostly sharded evaluation cache —
 * whose use is byte-neutral by contract, so a job's records, front,
 * trace and checkpoints are bit-identical whether it ran alone, next
 * to other jobs, or through co_search_cli.
 *
 * Life cycle: Queued -> Running <-> Paused -> Completed | Cancelled
 * | Failed. The submit queue is bounded; submits beyond the bound
 * are rejected with a typed error instead of blocking the caller.
 * Every job's CancelToken is registered with the scoped shutdown
 * fan-out, so one SIGINT drains every live job to a valid
 * checkpoint.
 */

#ifndef UNICO_CORE_JOB_MANAGER_HH
#define UNICO_CORE_JOB_MANAGER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hh"
#include "common/json.hh"
#include "core/driver.hh"
#include "core/job_context.hh"
#include "core/progress.hh"
#include "core/run_spec.hh"

namespace unico::core {

/** Job life-cycle states. */
enum class JobState {
    Queued,
    Running,
    Paused,
    Completed,
    Cancelled,
    Failed,
};
const char *toString(JobState state);
/** Completed, Cancelled or Failed. */
bool isTerminal(JobState state);

/** Why a submit was rejected. */
enum class SubmitError {
    None = 0,
    BadSpec,      ///< validation failed (message names the field)
    QueueFull,    ///< bounded queue at capacity; retry later
    ShuttingDown, ///< manager is draining; no new work accepted
};
const char *toString(SubmitError error);

/** Outcome of submit(). */
struct SubmitResult
{
    std::uint64_t id = 0; ///< valid when ok()
    SubmitError error = SubmitError::None;
    std::string message; ///< human-readable rejection reason

    bool ok() const { return error == SubmitError::None; }
};

/** Point-in-time snapshot of one job. */
struct JobStatus
{
    std::uint64_t id = 0;
    std::string name;
    JobState state = JobState::Queued;
    int iteration = 0;
    int maxIterations = 0;
    double hours = 0.0;
    std::uint64_t evaluations = 0;
    std::size_t frontSize = 0;
    std::size_t records = 0;
    std::size_t events = 0; ///< progress events emitted so far
    bool interrupted = false;
    std::string error; ///< failure / interrupt reason
};
common::Json toJson(const JobStatus &status);

/** Manager construction options. */
struct JobManagerConfig
{
    /** Jobs running concurrently (scheduler thread-pool size). */
    std::size_t maxConcurrent = 2;
    /** Queued-but-not-running bound; excess submits are rejected
     *  with SubmitError::QueueFull. */
    std::size_t maxQueued = 16;
    /** Optional evaluation cache shared by every job (read-mostly;
     *  byte-neutral). nullptr = each job runs uncached. */
    accel::EvalCache *sharedCache = nullptr;
    /** Register each job's CancelToken with the process shutdown
     *  fan-out so SIGINT/SIGTERM drains all jobs. */
    bool shutdownFanout = true;
};

/**
 * Schedulable multi-job front-end over the stepped CoSearch driver.
 * All methods are thread-safe.
 */
class JobManager
{
  public:
    explicit JobManager(JobManagerConfig cfg = JobManagerConfig{});
    /** Cancels every live job, drains the schedulers and joins. */
    ~JobManager();

    JobManager(const JobManager &) = delete;
    JobManager &operator=(const JobManager &) = delete;

    /** validate() and enqueue a job. Typed rejection, never blocks;
     *  nsga2 is rejected (BadSpec): it runs only through the CLI. */
    SubmitResult submit(RunSpec spec);

    /** Cancel a job (queued or running). A running job drains at the
     *  next cooperative boundary and writes its final checkpoint.
     *  @return false for an unknown or already-terminal job. */
    bool cancel(std::uint64_t id,
                common::CancelReason reason =
                    common::CancelReason::JobCancel);

    /** Pause a job at its next trial boundary (no-op on terminal /
     *  cancelled jobs). @return false for an unknown/terminal job. */
    bool pause(std::uint64_t id);

    /** Resume a paused job. @return false for unknown/terminal. */
    bool resume(std::uint64_t id);

    /** Snapshot a job; std::nullopt for an unknown id. */
    std::optional<JobStatus> status(std::uint64_t id) const;

    /** Snapshots of every job, ordered by id. */
    std::vector<JobStatus> list() const;

    /** Block until the job is terminal; its final status.
     *  std::nullopt for an unknown id. */
    std::optional<JobStatus> wait(std::uint64_t id);

    /** The job's progress events from index @p from on. Blocks until
     *  at least one new event exists or the job is terminal; an
     *  empty vector means the stream is exhausted (job terminal).
     *  Replayable: any subscriber can start from 0 at any time. */
    std::vector<ProgressEvent> eventsSince(std::uint64_t id,
                                           std::size_t from);

    /** The job's final search result (records, front, trace, ...).
     *  std::nullopt while not Completed/Cancelled (Failed jobs have
     *  no result). */
    std::optional<CoSearchResult> result(std::uint64_t id) const;

    /** Cancel every non-terminal job (shutdown drain). */
    void cancelAll(common::CancelReason reason);

    /** Stop accepting submits and cancel everything; idempotent.
     *  The destructor joins the schedulers. */
    void shutdown();

    /** Live scheduler capacity (for status endpoints). */
    const JobManagerConfig &config() const { return cfg_; }

  private:
    struct Job;

    void schedulerLoop();
    void runJob(Job &job);
    JobStatus statusLocked(const Job &job) const;

    JobManagerConfig cfg_;
    mutable std::mutex mu_;
    std::condition_variable workCv_;
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
    std::deque<std::uint64_t> queue_;
    std::vector<std::thread> schedulers_;
    std::uint64_t nextId_ = 1;
    std::size_t queuedCount_ = 0;
    bool stopping_ = false;
};

} // namespace unico::core

#endif // UNICO_CORE_JOB_MANAGER_HH
