/**
 * @file
 * Command-line co-search driver: run any of the shipped algorithms
 * on zoo networks or user-supplied workload files and export the
 * results as CSV — the "tool" face of the library.
 *
 *   co_search_cli --model resnet [--model vit ...] [--workload net.txt]
 *                 [--backend spatial|ascend] [--algo unico|...|nsga2]
 *                 [--batch N] [--iters I] [--bmax B] [--seed S] ...
 *
 * usage() below lists every flag. The flags describe one
 * core::RunSpec — the spec co_search_server takes as a JSON job
 * document, checked by the same validate() — plus the process flags
 * --batch-evals, --cache-mb / --no-cache, --progress-every,
 * --wall-deadline and --eval-wall-deadline. Repeated --model /
 * --workload add up; networks are built models first, then workload
 * files. An unknown flag, a malformed number or a spec validate()
 * rejects is a usage error: exit 2, nothing runs.
 *
 * Parallelism (Sec. 3.5, in-process): --threads T runs each
 * successive-halving round's per-HW mapping searches on T threads;
 * --batch-evals N fans each search's evaluation-independent candidate
 * blocks across a separate N-thread pool. Records, front, trace CSVs
 * and checkpoints are byte-identical for any T and N, with or without
 * the evaluation cache (--cache-mb, default 64 MB; --no-cache).
 *
 * Fault tolerance: the --*-rate flags wrap the environment in a
 * deterministic fault injector that exercises the driver's
 * supervisor; --checkpoint saves resumable state at trial boundaries
 * (--checkpoint-every, --checkpoint-keep rotation) and --resume
 * continues a killed search from the newest valid generation,
 * bit-for-bit. SIGINT/SIGTERM drain, checkpoint and exit 75
 * (EX_TEMPFAIL: resumable); a second signal kills. --wall-deadline
 * bounds the run and --eval-wall-deadline each evaluation attempt.
 *
 * --progress-every N prints the driver's typed progress events as
 * NDJSON, the stream co_search_server serves over HTTP. --surrogate
 * (--surrogate-keep F) screens predicted-worst candidates with an
 * online cost model; screened-out candidates never reach results,
 * checkpoints or CSVs, and --no-surrogate is byte-identical to builds
 * without the feature.
 */

#include <chrono>
#include <iomanip>
#include <iostream>

#include "baselines/nsga2.hh"
#include "cli/run_spec_args.hh"
#include "common/fault.hh"
#include "common/shard_cache.hh"
#include "common/shutdown.hh"
#include "common/thread_pool.hh"
#include "common/table.hh"
#include "core/fault_env.hh"
#include "core/report.hh"
#include "core/run_spec.hh"
#include "workload/model_zoo.hh"

using namespace unico;

namespace {

int
usage(const char *prog)
{
    std::cerr
        << "usage: " << prog
        << " --model NAME | --workload FILE [more ...]\n"
           "  [--backend NAME] [--scenario edge|cloud]"
           " [--engine random|annealing|genetic]\n"
           "  [--area-budget MM2] [--algo unico|hasco|mobohb|"
           "nsga2|sh|msh]\n"
           "  [--batch N] [--iters I] [--bmax B] [--seed S]"
           " [--threads T] [--batch-evals N]\n"
           "  [--max-shapes K] [--csv-prefix PREFIX]"
           " [--progress-every N]\n"
           "  [--cache-mb MB] [--no-cache]\n"
           "  [--surrogate] [--surrogate-keep F] [--no-surrogate]\n"
           "  [--fault-rate F] [--hang-rate F] [--corrupt-rate F]"
           " [--fault-seed S]\n"
           "  [--checkpoint FILE] [--resume] [--checkpoint-every N]"
           " [--checkpoint-keep K]\n"
           "  [--wall-deadline SEC] [--eval-wall-deadline SEC]\n"
           "backends: ";
    for (const auto &name : core::backendNames())
        std::cerr << name << " ";
    std::cerr << "\nmodels: ";
    for (const auto &name : workload::modelNames())
        std::cerr << name << " ";
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);

    // The run itself is a RunSpec, read and validated exactly as the
    // job server reads a job document; the flags below it only shape
    // this process (pools, cache, progress, wall deadlines).
    core::RunSpec spec;
    std::int64_t batch_evals = 0, cache_mb = 0, progress_every = 0;
    double wall_deadline = 0.0, eval_wall_deadline = 0.0;
    std::vector<workload::Network> nets;
    try {
        spec = cli::runSpecFromArgs(
            args, {"batch-evals", "cache-mb", "no-cache", "progress-every",
                   "wall-deadline", "eval-wall-deadline"});
        batch_evals = args.getInt("batch-evals", 0);
        cache_mb = args.getInt("cache-mb", 64);
        progress_every = args.getInt("progress-every", 0);
        wall_deadline = args.getDouble("wall-deadline", 0.0);
        eval_wall_deadline = args.getDouble("eval-wall-deadline", 0.0);
        if (const std::string why = core::validate(spec); !why.empty())
            throw std::invalid_argument(why);
        if (batch_evals < 0 || batch_evals > 1024)
            throw std::invalid_argument("--batch-evals must be 0..1024");
        nets = core::buildNetworks(spec);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage(args.program().c_str());
    }
    core::BackendOptions env_opt = core::backendOptions(spec);

    // Batched cold evaluation, byte-identical to serial.
    std::unique_ptr<common::ThreadPool> eval_pool;
    if (batch_evals > 0) {
        eval_pool = std::make_unique<common::ThreadPool>(
            static_cast<std::size_t>(batch_evals));
        env_opt.evalPool = eval_pool.get();
    }

    // Evaluation cache: search results do not depend on it.
    const bool cached = !args.has("no-cache") && cache_mb > 0;
    accel::EvalCache cache(
        cached ? static_cast<std::size_t>(cache_mb) * 1024 * 1024 : 0);
    if (cached)
        env_opt.cache = &cache;

    // Learned surrogate screening: off by default (byte-identical
    // legacy path); exact evaluations stay the sole source of truth.
    common::CorpusTap corpus_tap;
    surrogate::SurrogateContext surrogate_ctx;
    surrogate_ctx.options = core::surrogateOptions(spec);
    surrogate_ctx.tap = &corpus_tap;
    if (surrogate_ctx.options.enabled)
        env_opt.surrogate = &surrogate_ctx;

    std::cout << "workloads:";
    for (const auto &net : nets)
        std::cout << " " << net.name();
    const std::unique_ptr<core::CoSearchEnv> backend_env =
        core::makeBackendEnv(spec.backend, std::move(nets), env_opt);
    std::cout << "\nbackend: " << backend_env->backendName();
    if (!backend_env->scenarioName().empty())
        std::cout << " (" << backend_env->scenarioName() << ")";
    std::cout << "\n";
    if (surrogate_ctx.options.enabled)
        std::cout << "surrogate screening: keep="
                  << surrogate_ctx.options.keep << "\n";
    if (eval_pool != nullptr)
        std::cout << "batched evaluation: " << batch_evals
                  << " threads\n";

    // Optional fault injection: wrap the real environment in a
    // deterministic injector so the run exercises the supervisor.
    const common::FaultSpec fault_spec = core::faultSpec(spec);
    core::FaultyEnv faulty_env(*backend_env,
                               common::FaultPlan(fault_spec));
    core::CoSearchEnv &env =
        fault_spec.active() ? static_cast<core::CoSearchEnv &>(faulty_env)
                            : *backend_env;
    if (fault_spec.active())
        std::cout << "fault injection: "
                  << faulty_env.plan().describe() << "\n";

    core::CoSearchResult result;
    double search_wall_s = 0.0; // MOBO-driven algorithms only
    if (spec.algo == "nsga2") {
        baselines::Nsga2Config cfg;
        cfg.population = spec.batch;
        cfg.generations = spec.iters;
        cfg.swBudget = spec.bmax;
        cfg.seed = spec.seed;
        result = baselines::runNsga2(env, cfg);
    } else {
        core::DriverConfig cfg = core::driverConfig(spec);
        cfg.wallDeadlineSeconds = wall_deadline;
        cfg.evalWallDeadlineSeconds = eval_wall_deadline;
        // Graceful shutdown: SIGINT/SIGTERM cancel this token; the
        // driver drains, checkpoints and returns with interrupted
        // state instead of dying mid-write. Scoped install that stays
        // live through the run.
        common::ShutdownScope shutdown_scope;
        cfg.cancel = &common::shutdownToken();

        // --progress-every N: machine-readable progress as one JSON
        // object per line on stdout — the same typed events the job
        // server streams. Trial events are thinned to every Nth;
        // life-cycle events (started/incumbent/front/checkpoint/
        // finished) always print.
        struct NdjsonProgress final : core::ProgressObserver
        {
            int every = 0;

            void
            onProgress(const core::ProgressEvent &event) override
            {
                if (event.kind == core::ProgressKind::TrialCompleted &&
                    event.iteration % every != 0)
                    return;
                std::cout << core::toJson(event).dump() << "\n";
                std::cout.flush();
            }
        };
        NdjsonProgress progress;
        progress.every = static_cast<int>(progress_every);
        core::ProgressObserver *observer =
            progress.every > 0 ? &progress : nullptr;

        core::CoOptimizer driver(env, cfg, nullptr, observer);
        const auto run_start = std::chrono::steady_clock::now();
        try {
            result = driver.run();
        } catch (const std::exception &e) {
            // A stale/foreign checkpoint or a malformed document must
            // fail with a clean diagnostic, not a core dump.
            std::cerr << "error: " << e.what() << "\n";
            return 1;
        }
        search_wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - run_start)
                            .count();
        for (const auto &warning : result.warnings)
            std::cerr << "warning: " << warning << "\n";
        if (fault_spec.active()) {
            const auto counts = faulty_env.injected();
            std::cout << "\ninjected faults: transient="
                      << counts.transient << " hang=" << counts.hang
                      << " corrupt=" << counts.corrupt << "\n"
                      << "recovered " << core::toString(result.faults)
                      << "\n";
        } else if (result.faults.total() > 0 ||
                   result.faults.gpFallbacks > 0 ||
                   result.faults.checkpointRecoveries > 0) {
            // Genuine (non-injected) faults — watchdog timeouts, GP
            // fit fallbacks, checkpoint recoveries — also deserve a
            // digest.
            std::cout << "\nrecovered " << core::toString(result.faults)
                      << "\n";
        }
    }

    // Baselines (nsga2) don't report cache counters themselves;
    // snapshot them here so every algorithm prints the same digest.
    // The corpus-tap counters fold into the cache stats (they share
    // the diagnostics CSV), and the surrogate digest rides beside it.
    if (const accel::EvalCache *c = env.evalCache()) {
        result.cacheStats = c->stats();
        corpus_tap.mergeInto(result.cacheStats);
    }
    result.surrogateStats = env.surrogateStats();

    std::cout << "\n" << core::toString(core::summarize(result)) << "\n";
    if (env.evalCache() != nullptr)
        std::cout << common::toString(result.cacheStats) << "\n";
    if (surrogate_ctx.options.enabled)
        std::cout << surrogate::toString(result.surrogateStats) << "\n";
    if (search_wall_s > 0.0)
        std::cout << "sampler wall: " << std::fixed << std::setprecision(3)
                  << result.samplerWallSeconds << " s of "
                  << search_wall_s << " s search wall ("
                  << std::setprecision(1)
                  << 100.0 * result.samplerWallSeconds / search_wall_s
                  << " %)\n"
                  << std::defaultfloat << std::setprecision(6);
    std::cout << "\n";
    common::TableWriter table(
        {"hw", "L(ms)", "P(mW)", "A(mm2)", "R"});
    for (const auto &entry : result.front.entries()) {
        const auto &rec = result.records[entry.id];
        table.addRow({env.describeHw(rec.hw),
                      common::TableWriter::num(rec.ppa.latencyMs),
                      common::TableWriter::num(rec.ppa.powerMw, 1),
                      common::TableWriter::num(rec.ppa.areaMm2, 2),
                      common::TableWriter::num(rec.sensitivity, 3)});
    }
    std::cout << "Pareto front:\n";
    table.print(std::cout);
    if (!result.front.empty()) {
        const auto &best = result.records[result.minDistanceRecord()];
        std::cout << "\nrecommended design: "
                  << env.describeHw(best.hw) << "\n";
    }

    const std::string &prefix = spec.csvPrefix;
    if (!prefix.empty()) {
        bool ok =
            core::writeRecordsCsv(result, env, prefix + "_records.csv") &&
            core::writeFrontCsv(result, env, prefix + "_front.csv") &&
            core::writeTraceCsv(result, prefix + "_trace.csv");
        // Cache counters go to their own file so the three result
        // CSVs above stay byte-identical with the cache on or off.
        if (env.evalCache() != nullptr)
            ok = ok &&
                 core::writeCacheCsv(result, prefix + "_cache.csv");
        // Likewise the fault ledger: a resume that skipped a corrupt
        // checkpoint generation counts the recovery there.
        ok = ok && core::writeFaultsCsv(result, prefix + "_faults.csv");
        std::cout << (ok ? "\ncsv written to " : "\ncsv write FAILED: ")
                  << prefix << "_{records,front,trace}.csv\n";
        if (!ok)
            return 1;
    }
    if (result.interrupted) {
        std::cout << "\ninterrupted (" << result.interruptReason
                  << "): state checkpointed, rerun with --resume to "
                     "continue\n";
        return common::kExitResumable;
    }
    return 0;
}
