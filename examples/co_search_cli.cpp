/**
 * @file
 * Command-line co-search driver: run any of the shipped algorithms
 * on zoo networks or user-supplied workload files and export the
 * results as CSV — the "tool" face of the library.
 *
 * Usage:
 *   co_search_cli --model resnet [--model vit ...] \
 *                 [--workload my_net.txt ...] \
 *                 [--backend spatial|ascend] \
 *                 [--scenario edge|cloud] [--engine ENGINE] \
 *                 [--area-budget MM2] \
 *                 [--algo unico|hasco|mobohb|nsga2|sh|msh] \
 *                 [--batch N] [--iters I] [--bmax B] [--seed S] \
 *                 [--threads T] [--batch-evals N] \
 *                 [--csv-prefix out/prefix] [--progress-every N] \
 *                 [--cache-mb MB] [--no-cache] \
 *                 [--surrogate] [--surrogate-keep F] [--no-surrogate] \
 *                 [--fault-rate F] [--hang-rate F] [--corrupt-rate F] \
 *                 [--fault-seed S] [--checkpoint FILE] [--resume] \
 *                 [--checkpoint-every N] [--checkpoint-keep K] \
 *                 [--wall-deadline SEC] [--eval-wall-deadline SEC]
 *
 * Parallelism: Sec. 3.5's master/worker execution runs in-process.
 * --threads T dispatches each successive-halving round's per-HW
 * mapping searches across T threads, and --batch-evals N (below)
 * fans cold evaluations out inside each search. Records, front,
 * trace CSVs and checkpoints are byte-identical for any T and N.
 * The flags of the removed process/TCP evaluation fleet (--workers,
 * --worker-*, --fleet-*) are rejected with a usage error.
 *
 * Fault tolerance: the --*-rate flags wrap the environment in a
 * deterministic fault injector (per-evaluation crash/hang/corrupt
 * probabilities) to exercise the driver's supervisor; --checkpoint
 * saves resumable state at trial boundaries (every N trials with
 * --checkpoint-every, keeping a K-deep rotation window with
 * --checkpoint-keep) and --resume continues a killed search from the
 * newest valid generation, bit-for-bit.
 *
 * Interruption: SIGINT/SIGTERM wind the search down gracefully —
 * in-flight evaluations drain, a final checkpoint is written, and the
 * process exits with code 75 (EX_TEMPFAIL: resumable). A second
 * signal kills immediately. --wall-deadline bounds the whole run and
 * --eval-wall-deadline each evaluation attempt in real seconds.
 *
 * Batched evaluation: --batch-evals N fans the mapping engines'
 * evaluation-independent candidate blocks (random sampling, annealing
 * exploration, genetic seeding) across N threads on a pool separate
 * from --threads' round-dispatch pool. The deterministic batch
 * contract keeps every record, front, trace CSV and checkpoint
 * byte-identical to the serial run; only wall-clock changes.
 *
 * Evaluation cache: PPA queries are memoized in a sharded LRU cache
 * (--cache-mb sets the byte budget, default 64 MB; --no-cache
 * disables it). Results, checkpoints and the records/front/trace
 * CSVs are bit-identical either way — only wall-clock changes.
 *
 * Progress: --progress-every N prints one JSON object per line on
 * stdout — the stepped driver's typed progress events (started /
 * trial / incumbent / front / checkpoint / finished), with trial
 * events thinned to every Nth. The identical event stream is what
 * co_search_server serves over HTTP, so scripts can watch either.
 *
 * Surrogate screening: --surrogate (tune with --surrogate-keep F,
 * default 0.25) trains an online ridge-regression cost model on the
 * exact evaluations each run pays for and answers the predicted-worst
 * candidates from the model, reserving exact evaluation for the keep
 * fraction. Off by default; --no-surrogate forces the legacy path,
 * whose outputs are byte-identical to builds without the feature.
 * Screened-out candidates are fidelity-tagged and never become
 * incumbents, Pareto entries, checkpoint state or CSV rows.
 */

#include <chrono>
#include <iomanip>
#include <iostream>

#include "baselines/nsga2.hh"
#include "common/cli.hh"
#include "common/fault.hh"
#include "common/shard_cache.hh"
#include "common/shutdown.hh"
#include "common/thread_pool.hh"
#include "common/table.hh"
#include "core/backend.hh"
#include "core/driver.hh"
#include "core/fault_env.hh"
#include "core/report.hh"
#include "surrogate/learned_model.hh"
#include "workload/model_zoo.hh"
#include "workload/parser.hh"

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

    // The process/TCP evaluation fleet was removed; its flags must
    // fail loudly, not be ignored (a stale --fleet-connect would
    // otherwise start a full search of its own).
    for (const std::string &name : args.optionNames()) {
        if (name == "workers" || name.rfind("worker-", 0) == 0 ||
            name.rfind("fleet-", 0) == 0) {
            std::cerr << "error: --" << name
                      << " was removed with the evaluation fleet; "
                         "use --threads T (parallel SH rounds) and "
                         "--batch-evals N (parallel cold evaluations)\n";
            return usage(args.program().c_str());
        }
    }

    // Workload list: every positional arg and every --model /
    // --workload option value.
    std::vector<workload::Network> nets;
    try {
        if (args.has("model"))
            nets.push_back(
                workload::makeNetwork(args.getString("model", "")));
        if (args.has("workload"))
            nets.push_back(workload::parseNetworkFile(
                args.getString("workload", "")));
        for (const auto &pos : args.positional()) {
            if (pos.find('.') != std::string::npos)
                nets.push_back(workload::parseNetworkFile(pos));
            else
                nets.push_back(workload::makeNetwork(pos));
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage(args.program().c_str());
    }
    if (nets.empty())
        return usage(args.program().c_str());

    // Backend selection: every evaluation stack (HW space + mapping
    // search + PPA engine) is constructed through the registry, and
    // each backend parses its own option vocabulary.
    const std::string backend = args.getString("backend", "spatial");
    core::BackendOptions env_opt;
    try {
        env_opt = core::parseBackendOptions(backend, args);
    } catch (const core::BackendError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage(args.program().c_str());
    }

    // Batched cold evaluation: --batch-evals N fans the engines'
    // evaluation-independent candidate blocks across N threads,
    // byte-identical to serial.
    const std::int64_t batch_evals = args.getInt("batch-evals", 0);
    if (batch_evals < 0 || batch_evals > 1024) {
        std::cerr << "error: --batch-evals must be 0..1024\n";
        return usage(args.program().c_str());
    }
    std::unique_ptr<common::ThreadPool> eval_pool;
    if (batch_evals > 0) {
        eval_pool = std::make_unique<common::ThreadPool>(
            static_cast<std::size_t>(batch_evals));
        env_opt.evalPool = eval_pool.get();
    }

    // Evaluation cache: on by default; --no-cache disables it and
    // --cache-mb sizes it. Search results do not depend on either.
    const std::int64_t cache_mb = args.getInt("cache-mb", 64);
    accel::EvalCache cache(
        args.has("no-cache") || cache_mb <= 0
            ? 0
            : static_cast<std::size_t>(cache_mb) * 1024 * 1024);
    if (!args.has("no-cache") && cache_mb > 0)
        env_opt.cache = &cache;

    // Learned surrogate screening: off by default (byte-identical
    // legacy path); --surrogate (or --surrogate-keep F) turns it on,
    // --no-surrogate wins over both. Exact evaluations stay the sole
    // source of truth — screened-out candidates never reach results,
    // checkpoints or the records/front/trace CSVs.
    common::CorpusTap corpus_tap;
    surrogate::SurrogateContext surrogate_ctx;
    surrogate_ctx.options.enabled =
        (args.has("surrogate") || args.has("surrogate-keep")) &&
        !args.has("no-surrogate");
    surrogate_ctx.options.keep =
        args.getDouble("surrogate-keep", surrogate_ctx.options.keep);
    surrogate_ctx.tap = &corpus_tap;
    if (surrogate_ctx.options.enabled) {
        if (!(surrogate_ctx.options.keep > 0.0) ||
            surrogate_ctx.options.keep > 1.0) {
            std::cerr
                << "error: --surrogate-keep must be in (0, 1]\n";
            return usage(args.program().c_str());
        }
        env_opt.surrogate = &surrogate_ctx;
    }

    std::cout << "workloads:";
    for (const auto &net : nets)
        std::cout << " " << net.name();
    const std::unique_ptr<core::CoSearchEnv> backend_env =
        core::makeBackendEnv(backend, std::move(nets), env_opt);
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
    common::FaultSpec fault_spec;
    fault_spec.transientRate = args.getDouble("fault-rate", 0.0);
    fault_spec.hangRate = args.getDouble("hang-rate", 0.0);
    fault_spec.corruptRate = args.getDouble("corrupt-rate", 0.0);
    fault_spec.seed =
        static_cast<std::uint64_t>(args.getInt("fault-seed", 7));
    core::FaultyEnv faulty_env(*backend_env,
                               common::FaultPlan(fault_spec));
    core::CoSearchEnv &env =
        fault_spec.active() ? static_cast<core::CoSearchEnv &>(faulty_env)
                            : *backend_env;
    if (fault_spec.active())
        std::cout << "fault injection: "
                  << faulty_env.plan().describe() << "\n";

    const std::string algo = args.getString("algo", "unico");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    core::CoSearchResult result;
    double search_wall_s = 0.0; // MOBO-driven algorithms only
    if (algo == "nsga2") {
        baselines::Nsga2Config cfg;
        cfg.population = static_cast<int>(args.getInt("batch", 20));
        cfg.generations = static_cast<int>(args.getInt("iters", 8));
        cfg.swBudget = static_cast<int>(args.getInt("bmax", 200));
        cfg.seed = seed;
        result = baselines::runNsga2(env, cfg);
    } else {
        core::DriverConfig cfg;
        try {
            cfg = core::driverConfigForAlgo(algo);
        } catch (const std::exception &) {
            return usage(args.program().c_str());
        }
        cfg.batchSize = static_cast<int>(args.getInt("batch", 20));
        cfg.maxIter = static_cast<int>(args.getInt("iters", 8));
        cfg.sh.bMax = static_cast<int>(args.getInt("bmax", 200));
        cfg.realThreads =
            static_cast<std::size_t>(args.getInt("threads", 1));
        cfg.seed = seed;
        cfg.checkpointPath = args.getString("checkpoint", "");
        cfg.resumeFromCheckpoint = args.has("resume");
        if (cfg.resumeFromCheckpoint && cfg.checkpointPath.empty()) {
            std::cerr << "error: --resume requires --checkpoint FILE\n";
            return usage(args.program().c_str());
        }
        cfg.checkpointEvery =
            static_cast<int>(args.getInt("checkpoint-every", 1));
        cfg.checkpointKeep =
            static_cast<int>(args.getInt("checkpoint-keep", 3));
        cfg.wallDeadlineSeconds = args.getDouble("wall-deadline", 0.0);
        cfg.evalWallDeadlineSeconds =
            args.getDouble("eval-wall-deadline", 0.0);
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
        progress.every =
            static_cast<int>(args.getInt("progress-every", 0));
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

    const std::string prefix = args.getString("csv-prefix", "");
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
