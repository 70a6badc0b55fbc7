/**
 * @file
 * Reproduces Fig. 7: hypervolume difference vs search cost for
 * HASCO, NSGA-II, MOBOHB and UNICO on the edge (7a) and cloud (7b)
 * devices. Per network, every algorithm's trace is normalized under
 * shared bounds; the emitted series is the mean hypervolume
 * difference across networks, interpolated on a common cost grid.
 */

#include <map>

#include "bench_common.hh"

using namespace unico;
using namespace unico::bench;

namespace {

/** Piecewise-constant interpolation of a (hours, hv) series. */
double
interpolate(const std::vector<std::pair<double, double>> &series,
            double hours, double before_start)
{
    double value = before_start;
    for (const auto &[h, v] : series) {
        if (h > hours)
            break;
        value = v;
    }
    return value;
}

void
runDevice(accel::Scenario scenario, const BenchOptions &opt,
          const std::vector<std::string> &nets, const char *label,
          int seeds)
{
    struct MethodRun
    {
        std::string method;
        std::vector<std::vector<std::pair<double, double>>> series;
    };
    std::vector<MethodRun> methods = {
        {"HASCO", {}}, {"NSGAII", {}}, {"MOBOHB", {}}, {"UNICO", {}}};

    double max_hours = 0.0;
    for (const auto &net : nets) {
      for (int s = 0; s < seeds; ++s) {
        BenchOptions seed_opt = opt;
        seed_opt.run.seed += static_cast<std::uint64_t>(s) * 1000;
        const auto env = makeBenchEnv(seed_opt, {net}, scenario);

        std::vector<core::CoSearchResult> results;
        {
            core::CoOptimizer d(*env,
                                benchDriverConfig(
                                    core::DriverConfig::hascoLike(),
                                    seed_opt));
            results.push_back(d.run());
        }
        results.push_back(
            baselines::runNsga2(*env, benchNsga2Config(seed_opt)));
        {
            core::CoOptimizer d(*env,
                                benchDriverConfig(
                                    core::DriverConfig::mobohbLike(),
                                    seed_opt));
            results.push_back(d.run());
        }
        {
            core::CoOptimizer d(*env, benchDriverConfig(
                                         core::DriverConfig::unico(),
                                         seed_opt));
            results.push_back(d.run());
        }

        // Shared normalization bounds per network.
        moo::Objectives ideal, nadir;
        std::vector<const core::CoSearchResult *> ptrs;
        for (const auto &r : results)
            ptrs.push_back(&r);
        unionBounds(ptrs, ideal, nadir);

        for (std::size_t m = 0; m < methods.size(); ++m) {
            auto series =
                hvDifferenceSeries(results[m].trace, ideal, nadir);
            if (!series.empty())
                max_hours = std::max(max_hours, series.back().first);
            methods[m].series.push_back(std::move(series));
        }
      }
    }

    // Mean series on a common grid; before a method's first snapshot
    // its difference is the full box (nothing found yet).
    const double full_box = std::pow(1.1, 3.0);
    common::TableWriter table(
        {"hours", "HASCO", "NSGAII", "MOBOHB", "UNICO"});
    const int grid = 16;
    for (int g = 1; g <= grid; ++g) {
        const double hours = max_hours * g / grid;
        std::vector<std::string> row = {
            common::TableWriter::num(hours, 2)};
        for (const auto &method : methods) {
            double acc = 0.0;
            for (const auto &series : method.series)
                acc += interpolate(series, hours, full_box);
            row.push_back(common::TableWriter::num(
                acc / static_cast<double>(method.series.size()), 4));
        }
        table.addRow(std::move(row));
    }

    std::cout << "\nFig. 7" << label
              << ": mean hypervolume difference vs search cost ("
              << (scenario == accel::Scenario::Edge ? "edge" : "cloud")
              << ")\n";
    table.print(std::cout);

    // Final-value summary.
    std::cout << "final hypervolume difference (lower is better): ";
    for (const auto &method : methods) {
        double acc = 0.0;
        for (const auto &series : method.series)
            acc += interpolate(series, max_hours, full_box);
        std::cout << method.method << "="
                  << common::TableWriter::num(
                         acc / static_cast<double>(method.series.size()),
                         4)
                  << " ";
    }
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);
    const BenchOptions opt = BenchOptions::parse(args);

    // Representative subset by default; --full uses all 7 networks.
    std::vector<std::string> nets = {"mobilenet", "resnet", "vit"};
    if (args.has("full"))
        nets = {"bert", "mobilenet", "resnet", "srgan",
                "unet", "vit",       "xception"};

    const int seeds = static_cast<int>(args.getInt("seeds", 3));
    std::cout << "Fig. 7: search-convergence comparison, scale="
              << opt.scale << ", seed=" << opt.run.seed
              << ", seeds averaged=" << seeds << "\n";
    runDevice(accel::Scenario::Edge, opt, nets, "a", seeds);
    runDevice(accel::Scenario::Cloud, opt, nets, "b", seeds);

    std::cout << "\nExpected shape (paper Fig. 7): UNICO's curve drops "
                 "fastest and ends lowest;\nMOBOHB follows, HASCO and "
                 "NSGAII converge slowest.\n";
    return 0;
}
