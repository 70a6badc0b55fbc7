/**
 * @file
 * Per-job execution context.
 *
 * The historical driver stack assumed "process == run": one global
 * shutdown token, one EvalClock, one checkpoint prefix. A JobContext
 * bundles exactly the state that must be private to one co-search
 * job so several jobs can coexist in a single process — each with
 * its own seeded trajectory, virtual-time ledger, cancellation token
 * and checkpoint file namespace — while sharing only read-mostly
 * resources (the sharded evaluation cache, the backend table).
 *
 * The stepped driver (core::CoSearch) accepts an optional JobContext;
 * when given one it charges the job's clock, polls the job's cancel
 * token at every cooperative boundary, and stamps the job's stack
 * identity after environment binding. The job manager registers each
 * context's token with the scoped shutdown fan-out so one SIGINT
 * drains every live job to a valid checkpoint.
 */

#ifndef UNICO_CORE_JOB_CONTEXT_HH
#define UNICO_CORE_JOB_CONTEXT_HH

#include <cstdint>
#include <string>

#include "common/cancel.hh"
#include "common/eval_clock.hh"

namespace unico::core {

class CoSearchEnv;

/**
 * Identity triple of a live evaluation stack, in the exact string
 * form stamped into checkpoints.
 */
struct StackIdentity
{
    std::string backend;
    std::string scenario;
    std::string workloadDigest;

    /** Snapshot an environment's identity (digest in hex). */
    static StackIdentity of(const CoSearchEnv &env);
};

/** State private to one co-search job. */
struct JobContext
{
    /** Run-level seed the job's whole trajectory derives from. */
    std::uint64_t seed = 1;
    /** The job's virtual-time ledger. Re-dimensioned by
     *  CoSearch::start() to the configured worker-pool size. */
    common::EvalClock clock;
    /** The job's cancellation token: cancelled by the job manager
     *  (cancel endpoint) or by the shutdown fan-out (SIGINT). */
    common::CancelToken cancel;
    /** File namespace of the job's durable artifacts (checkpoint
     *  generations, CSV exports): "<prefix>.ck.json",
     *  "<prefix>_records.csv", ... Empty disables both. */
    std::string checkpointPrefix;
    /** Identity of the evaluation stack the job binds; filled by
     *  CoSearch::start() once the environment is known. */
    StackIdentity stack;
};

} // namespace unico::core

#endif // UNICO_CORE_JOB_CONTEXT_HH
