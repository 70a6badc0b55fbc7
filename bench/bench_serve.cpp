/**
 * @file
 * Multi-tenant job-core benchmark: measures the serving-path costs
 * the HTTP front-end adds on top of the raw driver.
 *
 * Three sweeps, all in-process against core::JobManager (the server
 * adds only connection plumbing on top of it):
 *
 *   1. submit-to-first-event latency — wall time from submit()
 *      returning to the job's first progress event being observable,
 *      i.e. how long a client waits before its NDJSON stream starts.
 *
 *   2. throughput — jobs/minute for a batch of identical small
 *      searches at 1, 2 and 4 concurrent scheduler slots, showing
 *      how co-scheduling amortizes over the shared eval cache.
 *
 *   3. cache-sharing uplift — hit rate of one cache shared by all
 *      jobs of a batch versus a per-job private cache. Sharing is
 *      byte-neutral by contract, so this uplift is pure wall-clock
 *      win.
 *
 * Lands in BENCH_serve.json (machine-readable, uploaded by CI next
 * to BENCH_micro.json / BENCH_chaos.json) plus a console table.
 *
 * Usage: bench_serve [--jobs N] [--iters N] [--batch N] [--bmax B]
 *                    [--seed S] [--json BENCH_serve.json]
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "core/job_manager.hh"

using namespace unico;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Run @p jobs specs to completion under one manager; wall ms. */
double
runBatch(const std::vector<core::RunSpec> &jobs,
         std::size_t concurrent, accel::EvalCache *cache)
{
    core::JobManagerConfig cfg;
    cfg.maxConcurrent = concurrent;
    cfg.maxQueued = jobs.size() + 1;
    cfg.sharedCache = cache;
    cfg.shutdownFanout = false;
    core::JobManager mgr(cfg);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::uint64_t> ids;
    ids.reserve(jobs.size());
    for (const auto &spec : jobs) {
        const auto sub = mgr.submit(spec);
        if (!sub.ok()) {
            std::cerr << "submit failed: " << sub.message << "\n";
            std::exit(1);
        }
        ids.push_back(sub.id);
    }
    for (const auto id : ids)
        mgr.wait(id);
    return msSince(t0);
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);
    const int jobs = static_cast<int>(args.getInt("jobs", 6));
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    // Every job: resnet, unico, the given N / MaxIter / b_max.
    core::RunSpec base;
    base.models = {"resnet"};
    base.iters = static_cast<int>(args.getInt("iters", 4));
    base.batch = static_cast<int>(args.getInt("batch", 8));
    base.bmax = static_cast<int>(args.getInt("bmax", 120));
    auto benchSpec = [&base](std::uint64_t job_seed) {
        core::RunSpec spec = base;
        spec.seed = job_seed;
        return spec;
    };

    auto bench_json = common::Json::array();

    // --- 1. submit-to-first-event latency -------------------------
    {
        std::vector<double> samples;
        for (int i = 0; i < jobs; ++i) {
            core::JobManagerConfig cfg;
            cfg.maxConcurrent = 1;
            cfg.shutdownFanout = false;
            core::JobManager mgr(cfg);
            const Clock::time_point t0 = Clock::now();
            const auto sub = mgr.submit(benchSpec(seed + i));
            // Blocks until the Started event lands in the log — the
            // moment a streaming client would receive its first line.
            mgr.eventsSince(sub.id, 0);
            samples.push_back(msSince(t0));
            mgr.wait(sub.id);
        }
        std::sort(samples.begin(), samples.end());
        const double median = samples[samples.size() / 2];
        const double mean =
            std::accumulate(samples.begin(), samples.end(), 0.0) /
            static_cast<double>(samples.size());
        std::cout << "submit-to-first-event: median " << median
                  << " ms, mean " << mean << " ms over "
                  << samples.size() << " jobs\n";
        auto row = common::Json::object();
        row["name"] = "submit_to_first_event";
        row["median_ms"] = median;
        row["mean_ms"] = mean;
        row["samples"] = samples.size();
        bench_json.push(std::move(row));
    }

    // --- 2. jobs/minute at 1/2/4 concurrent -----------------------
    {
        common::TableWriter table(
            {"concurrent", "wall(ms)", "jobs/min"});
        for (const std::size_t concurrent : {1u, 2u, 4u}) {
            std::vector<core::RunSpec> specs;
            for (int i = 0; i < jobs; ++i)
                specs.push_back(benchSpec(seed + i));
            accel::EvalCache cache(64 * 1024 * 1024);
            const double ms = runBatch(specs, concurrent, &cache);
            const double per_minute =
                static_cast<double>(jobs) / (ms / 60000.0);
            table.addRow({std::to_string(concurrent),
                          std::to_string(ms),
                          std::to_string(per_minute)});
            auto row = common::Json::object();
            row["name"] = "throughput_c" + std::to_string(concurrent);
            row["concurrent"] = concurrent;
            row["jobs"] = jobs;
            row["wall_ms"] = ms;
            row["jobs_per_minute"] = per_minute;
            bench_json.push(std::move(row));
        }
        std::cout << "\n";
        table.print(std::cout);
        std::cout << "\n";
    }

    // --- 3. cache-sharing hit-rate uplift -------------------------
    {
        // Same specs either against one shared cache or each against
        // a private one; the delta in hit rate is what multi-tenancy
        // buys (identical seeds maximize overlap — the server's
        // steady state when clients re-run reference configs).
        std::vector<core::RunSpec> specs;
        for (int i = 0; i < jobs; ++i)
            specs.push_back(benchSpec(seed));

        accel::EvalCache shared(64 * 1024 * 1024);
        runBatch(specs, 2, &shared);
        const auto s = shared.stats();
        const double shared_rate =
            s.hits + s.misses > 0
                ? static_cast<double>(s.hits) /
                      static_cast<double>(s.hits + s.misses)
                : 0.0;

        std::uint64_t private_hits = 0, private_total = 0;
        for (const auto &spec : specs) {
            accel::EvalCache own(64 * 1024 * 1024);
            runBatch({spec}, 1, &own);
            const auto p = own.stats();
            private_hits += p.hits;
            private_total += p.hits + p.misses;
        }
        const double private_rate =
            private_total > 0 ? static_cast<double>(private_hits) /
                                    static_cast<double>(private_total)
                              : 0.0;

        std::cout << "cache hit rate: shared " << shared_rate
                  << " vs private " << private_rate << " (uplift "
                  << shared_rate - private_rate << ")\n";
        auto row = common::Json::object();
        row["name"] = "cache_sharing";
        row["jobs"] = jobs;
        row["shared_hit_rate"] = shared_rate;
        row["private_hit_rate"] = private_rate;
        row["uplift"] = shared_rate - private_rate;
        bench_json.push(std::move(row));
    }

    const std::string json_out =
        args.getString("json", "BENCH_serve.json");
    if (!json_out.empty()) {
        auto doc = common::Json::object();
        auto ctx = common::Json::object();
        ctx["executable"] = "bench_serve";
        ctx["jobs"] = jobs;
        ctx["iters"] = base.iters;
        ctx["batch"] = base.batch;
        ctx["bmax"] = base.bmax;
        ctx["seed"] = static_cast<std::int64_t>(seed);
        doc["context"] = std::move(ctx);
        doc["benchmarks"] = std::move(bench_json);
        std::ofstream f(json_out);
        f << doc.dump(2) << "\n";
        std::cout << "json written to " << json_out << "\n";
    }
    return 0;
}
