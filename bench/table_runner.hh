/**
 * @file
 * Shared implementation of Tables 1 and 2: per-network comparison of
 * HASCO-like, NSGA-II and UNICO on the spatial platform, reporting
 * the PPA of the min-Euclidean-distance Pareto design and the
 * (virtual) search cost in hours.
 */

#ifndef UNICO_BENCH_TABLE_RUNNER_HH
#define UNICO_BENCH_TABLE_RUNNER_HH

#include "bench_common.hh"

namespace unico::bench {

/** Run the Table-1/2 experiment for one power scenario. */
inline int
runScenarioTable(int argc, char **argv, accel::Scenario scenario,
                 const char *title)
{
    const common::CliArgs args(argc, argv);
    const BenchOptions opt = BenchOptions::parse(args);
    const int seeds = static_cast<int>(args.getInt("seeds", 3));

    const std::vector<std::string> nets = {
        "bert", "mobilenet", "resnet", "srgan",
        "unet", "vit",       "xception",
    };

    std::cout << title << "\n"
              << "power budget: "
              << accel::powerBudgetMw(scenario) / 1000.0
              << " W, scale=" << opt.scale << ", seed=" << opt.run.seed
              << ", seeds averaged=" << seeds << "\n\n";

    common::TableWriter table({"network", "method", "L(ms)", "P(mW)",
                               "A(mm2)", "cost(h)", "evals"});

    for (const auto &net : nets) {
        const auto env = makeBenchEnv(opt, {net}, scenario);

        struct Aggregate
        {
            const char *method;
            double latency = 0.0, power = 0.0, area = 0.0;
            double hours = 0.0;
            std::uint64_t evals = 0;
            int valid = 0;
        };
        std::vector<Aggregate> aggs = {
            {"HASCO"}, {"NSGAII"}, {"UNICO"}};

        for (int s = 0; s < seeds; ++s) {
            BenchOptions so = opt;
            so.run.seed = opt.run.seed + static_cast<std::uint64_t>(s) * 7919;

            std::vector<core::CoSearchResult> results;
            {
                auto cfg = benchDriverConfig(
                    core::DriverConfig::hascoLike(), so);
                core::CoOptimizer driver(*env, cfg);
                results.push_back(driver.run());
            }
            results.push_back(
                baselines::runNsga2(*env, benchNsga2Config(so)));
            {
                auto cfg = benchDriverConfig(core::DriverConfig::unico(),
                                             so);
                core::CoOptimizer driver(*env, cfg);
                results.push_back(driver.run());
            }

            for (std::size_t m = 0; m < aggs.size(); ++m) {
                const MinDistSummary sum = summarize(results[m]);
                aggs[m].hours += sum.hours;
                aggs[m].evals += results[m].evaluations;
                if (sum.valid) {
                    aggs[m].latency += sum.latencyMs;
                    aggs[m].power += sum.powerMw;
                    aggs[m].area += sum.areaMm2;
                    ++aggs[m].valid;
                }
            }
        }

        for (const auto &agg : aggs) {
            const double v = std::max(agg.valid, 1);
            const double runs = static_cast<double>(seeds);
            table.addRow(
                {net, agg.method,
                 agg.valid ? common::TableWriter::num(agg.latency / v)
                           : "-",
                 agg.valid ? common::TableWriter::num(agg.power / v, 1)
                           : "-",
                 agg.valid ? common::TableWriter::num(agg.area / v, 2)
                           : "-",
                 common::TableWriter::num(agg.hours / runs, 2),
                 common::TableWriter::num(static_cast<long long>(
                     static_cast<double>(agg.evals) / runs))});
        }
    }

    emitTable(table, opt);

    std::cout << "\nExpected shape (paper Table "
              << (scenario == accel::Scenario::Edge ? "1" : "2")
              << "): UNICO matches or beats HASCO/NSGAII on most\n"
              << "networks while spending a several-fold smaller "
                 "search cost.\n";
    return 0;
}

} // namespace unico::bench

#endif // UNICO_BENCH_TABLE_RUNNER_HH
