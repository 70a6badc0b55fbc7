#include "core/job_manager.hh"

#include <algorithm>
#include <utility>

#include "common/shard_cache.hh"
#include "common/shutdown.hh"
#include "core/fault_env.hh"
#include "core/report.hh"

namespace unico::core {

const char *
toString(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Paused: return "paused";
      case JobState::Completed: return "completed";
      case JobState::Cancelled: return "cancelled";
      case JobState::Failed: return "failed";
    }
    return "?";
}

bool
isTerminal(JobState state)
{
    return state == JobState::Completed ||
           state == JobState::Cancelled || state == JobState::Failed;
}

const char *
toString(SubmitError error)
{
    switch (error) {
      case SubmitError::None: return "none";
      case SubmitError::BadSpec: return "bad-spec";
      case SubmitError::QueueFull: return "queue-full";
      case SubmitError::ShuttingDown: return "shutting-down";
    }
    return "?";
}

common::Json
toJson(const JobStatus &status)
{
    common::Json doc = common::Json::object();
    doc["id"] = static_cast<std::int64_t>(status.id);
    if (!status.name.empty())
        doc["name"] = status.name;
    doc["state"] = toString(status.state);
    doc["iteration"] = status.iteration;
    doc["max_iterations"] = status.maxIterations;
    doc["hours"] = status.hours;
    doc["evaluations"] = static_cast<std::int64_t>(status.evaluations);
    doc["front_size"] = status.frontSize;
    doc["records"] = status.records;
    doc["events"] = status.events;
    doc["interrupted"] = status.interrupted;
    if (!status.error.empty())
        doc["error"] = status.error;
    return doc;
}

/** One managed job: spec, isolated context, life-cycle state and the
 *  replayable progress-event log. Guarded by JobManager::mu_. */
struct JobManager::Job
{
    std::uint64_t id = 0;
    RunSpec spec;
    JobContext ctx;
    JobState state = JobState::Queued;
    bool pauseRequested = false;
    std::string error;
    std::vector<ProgressEvent> events;
    std::optional<CoSearchResult> result;
    /** Signaled on state transitions, pause/resume and new events. */
    std::condition_variable cv;
};

JobManager::JobManager(JobManagerConfig cfg) : cfg_(cfg)
{
    cfg_.maxConcurrent = std::max<std::size_t>(cfg_.maxConcurrent, 1);
    schedulers_.reserve(cfg_.maxConcurrent);
    for (std::size_t i = 0; i < cfg_.maxConcurrent; ++i)
        schedulers_.emplace_back([this] { schedulerLoop(); });
}

JobManager::~JobManager()
{
    shutdown();
    for (auto &t : schedulers_)
        t.join();
    // Tokens outlive their fan-out registration: unregister every
    // job's token (idempotent) only after all schedulers stopped.
    if (cfg_.shutdownFanout)
        for (auto &[id, job] : jobs_)
            common::unregisterShutdownToken(job->ctx.cancel);
}

SubmitResult
JobManager::submit(RunSpec spec)
{
    if (const std::string why = validate(spec); !why.empty())
        return SubmitResult{0, SubmitError::BadSpec, why};
    if (spec.algo == "nsga2")
        return SubmitResult{0, SubmitError::BadSpec,
                            "algo nsga2 runs only through co_search_cli"};

    std::unique_lock<std::mutex> lk(mu_);
    if (stopping_)
        return SubmitResult{0, SubmitError::ShuttingDown,
                            "manager is shutting down"};
    if (queuedCount_ >= cfg_.maxQueued)
        return SubmitResult{
            0, SubmitError::QueueFull,
            "queue full (" + std::to_string(queuedCount_) +
                " jobs queued, bound " +
                std::to_string(cfg_.maxQueued) + ")"};

    auto job = std::make_unique<Job>();
    job->id = nextId_++;
    job->spec = std::move(spec);
    job->ctx.seed = job->spec.seed;
    job->ctx.checkpointPrefix = job->spec.checkpoint;
    if (cfg_.shutdownFanout)
        common::registerShutdownToken(job->ctx.cancel);
    const std::uint64_t id = job->id;
    queue_.push_back(id);
    ++queuedCount_;
    jobs_.emplace(id, std::move(job));
    workCv_.notify_one();
    return SubmitResult{id, SubmitError::None, {}};
}

bool
JobManager::cancel(std::uint64_t id, common::CancelReason reason)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || isTerminal(it->second->state))
        return false;
    Job &job = *it->second;
    job.ctx.cancel.cancel(reason);
    if (job.state == JobState::Queued) {
        // Never started: terminal immediately; the scheduler skips
        // the stale queue entry when it reaches it.
        job.state = JobState::Cancelled;
        job.error = common::toString(reason);
    }
    job.pauseRequested = false; // a paused job must wake to drain
    job.cv.notify_all();
    return true;
}

bool
JobManager::pause(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || isTerminal(it->second->state) ||
        it->second->ctx.cancel.cancelled())
        return false;
    it->second->pauseRequested = true;
    it->second->cv.notify_all();
    return true;
}

bool
JobManager::resume(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || isTerminal(it->second->state))
        return false;
    it->second->pauseRequested = false;
    it->second->cv.notify_all();
    return true;
}

JobStatus
JobManager::statusLocked(const Job &job) const
{
    JobStatus st;
    st.id = job.id;
    st.name = job.spec.name.empty() ? job.spec.algo : job.spec.name;
    st.state = job.state;
    st.maxIterations = job.spec.iters;
    st.events = job.events.size();
    if (!job.events.empty()) {
        const auto &last = job.events.back();
        st.iteration = last.iteration;
        st.hours = last.hours;
        st.evaluations = last.evaluations;
        st.frontSize = last.frontSize;
        st.records = last.records;
    }
    if (job.result)
        st.interrupted = job.result->interrupted;
    st.error = job.error;
    return st;
}

std::optional<JobStatus>
JobManager::status(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return statusLocked(*it->second);
}

std::vector<JobStatus>
JobManager::list() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const auto &[id, job] : jobs_)
        out.push_back(statusLocked(*job));
    return out;
}

std::optional<JobStatus>
JobManager::wait(std::uint64_t id)
{
    std::unique_lock<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    Job &job = *it->second;
    job.cv.wait(lk, [&] { return isTerminal(job.state); });
    return statusLocked(job);
}

std::vector<ProgressEvent>
JobManager::eventsSince(std::uint64_t id, std::size_t from)
{
    std::unique_lock<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return {};
    Job &job = *it->second;
    job.cv.wait(lk, [&] {
        return job.events.size() > from || isTerminal(job.state);
    });
    std::vector<ProgressEvent> out;
    for (std::size_t i = from; i < job.events.size(); ++i)
        out.push_back(job.events[i]);
    return out;
}

std::optional<CoSearchResult>
JobManager::result(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return it->second->result;
}

void
JobManager::cancelAll(common::CancelReason reason)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &[id, job] : jobs_) {
        if (isTerminal(job->state))
            continue;
        job->ctx.cancel.cancel(reason);
        if (job->state == JobState::Queued) {
            job->state = JobState::Cancelled;
            job->error = common::toString(reason);
        }
        job->pauseRequested = false;
        job->cv.notify_all();
    }
}

void
JobManager::shutdown()
{
    cancelAll(common::CancelReason::JobCancel);
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    workCv_.notify_all();
}

void
JobManager::schedulerLoop()
{
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lk(mu_);
            workCv_.wait(lk, [&] {
                return stopping_ || !queue_.empty();
            });
            while (!queue_.empty()) {
                const std::uint64_t id = queue_.front();
                queue_.pop_front();
                --queuedCount_;
                Job &candidate = *jobs_.at(id);
                if (candidate.state == JobState::Queued) {
                    job = &candidate;
                    break;
                }
            }
            if (job == nullptr) {
                if (stopping_)
                    return;
                continue;
            }
            job->state = JobState::Running;
            job->cv.notify_all();
        }
        runJob(*job);
    }
}

void
JobManager::runJob(Job &job)
{
    JobState final_state = JobState::Completed;
    std::string error;
    std::optional<CoSearchResult> final_result;
    try {
        // Everything below is private to this job and built on its
        // scheduler thread: workloads, environment, fault injector,
        // surrogate context, driver. The only shared mutable
        // resource is the (byte-neutral) evaluation cache.
        BackendOptions env_opt = backendOptions(job.spec);
        env_opt.cache = cfg_.sharedCache;
        env_opt.cancel = &job.ctx.cancel;

        surrogate::SurrogateContext surrogate_ctx;
        surrogate_ctx.options = surrogateOptions(job.spec);
        if (surrogate_ctx.options.enabled)
            env_opt.surrogate = &surrogate_ctx;

        const std::unique_ptr<CoSearchEnv> backend_env = makeBackendEnv(
            job.spec.backend, buildNetworks(job.spec), env_opt);

        const common::FaultSpec fault_spec = faultSpec(job.spec);
        FaultyEnv faulty_env(*backend_env,
                             common::FaultPlan(fault_spec));
        CoSearchEnv &env =
            fault_spec.active()
                ? static_cast<CoSearchEnv &>(faulty_env)
                : *backend_env;

        const DriverConfig cfg = driverConfig(job.spec);

        // Observer: append to the job's replayable event log under
        // the manager lock and wake streaming subscribers.
        struct Sink final : ProgressObserver
        {
            JobManager *mgr;
            Job *job;

            Sink(JobManager *m, Job *j) : mgr(m), job(j) {}

            void
            onProgress(const ProgressEvent &event) override
            {
                std::lock_guard<std::mutex> lk(mgr->mu_);
                ProgressEvent ev = event;
                ev.job = job->id;
                job->events.push_back(std::move(ev));
                job->cv.notify_all();
            }
        };
        Sink sink{this, &job};

        CoSearch search(env, cfg, &job.ctx, &sink);
        search.start();
        for (;;) {
            // Pause gate between trials: a pause request parks the
            // scheduler thread here; cancel always wins and wakes
            // the job so it can drain and checkpoint.
            {
                std::unique_lock<std::mutex> lk(mu_);
                while (job.pauseRequested &&
                       !job.ctx.cancel.cancelled()) {
                    if (job.state != JobState::Paused) {
                        job.state = JobState::Paused;
                        job.cv.notify_all();
                    }
                    job.cv.wait(lk);
                }
                if (job.state == JobState::Paused) {
                    job.state = JobState::Running;
                    job.cv.notify_all();
                }
            }
            if (!search.step())
                break;
        }
        CoSearchResult result = search.result();

        if (!job.spec.csvPrefix.empty()) {
            // Same writers, same order as co_search_cli — the three
            // result CSVs plus the fault ledger. cache.csv is
            // skipped: shared-cache hit counters depend on job
            // scheduling and have no per-job meaning.
            const std::string &prefix = job.spec.csvPrefix;
            bool ok =
                writeRecordsCsv(result, env,
                                prefix + "_records.csv") &&
                writeFrontCsv(result, env, prefix + "_front.csv") &&
                writeTraceCsv(result, prefix + "_trace.csv") &&
                writeFaultsCsv(result, prefix + "_faults.csv");
            if (!ok) {
                final_state = JobState::Failed;
                error = "csv write failed: " + prefix;
            }
        }
        if (final_state != JobState::Failed) {
            if (result.interrupted) {
                final_state = JobState::Cancelled;
                error = result.interruptReason;
            } else {
                final_state = JobState::Completed;
            }
        }
        final_result = std::move(result);
    } catch (const std::exception &e) {
        final_state = JobState::Failed;
        error = e.what();
    }

    std::lock_guard<std::mutex> lk(mu_);
    job.state = final_state;
    job.error = std::move(error);
    job.result = std::move(final_result);
    job.cv.notify_all();
}

} // namespace unico::core
