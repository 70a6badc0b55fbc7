/**
 * @file
 * Ablations of UNICO's design choices beyond Fig. 10 (the items
 * called out in DESIGN.md §6):
 *
 *  (a) the MSH AUC-promotion quota p (p = 0 degenerates to SH;
 *      the paper fixes p = 0.15 N),
 *  (b) the sub-optimal quantile alpha of the robustness metric, and
 *  (c) the HW batch size N at a fixed evaluation budget.
 *
 * Each sweep reports final normalized hypervolume, cost and the
 * min-distance design's latency.
 */

#include "bench_common.hh"

using namespace unico;
using namespace unico::bench;

namespace {

double
finalHv(const core::CoSearchResult &result, const moo::Objectives &ideal,
        const moo::Objectives &nadir)
{
    if (result.trace.empty())
        return 0.0;
    std::vector<moo::Objectives> pts;
    for (const auto &y : result.trace.back().front)
        pts.push_back(moo::normalizeObjectives(y, ideal, nadir));
    return moo::hypervolume(pts, moo::Objectives(ideal.size(), 1.1));
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);
    const BenchOptions opt = BenchOptions::parse(args);
    const int seeds = static_cast<int>(args.getInt("seeds", 2));

    std::cout << "UNICO design-choice ablations (DESIGN.md §6), scale="
              << opt.scale << ", seeds averaged=" << seeds << "\n\n";

    const auto env =
        makeBenchEnv(opt, {"mobilenet", "resnet"}, accel::Scenario::Edge, 3);

    auto run_with = [&](auto mutate_cfg) {
        std::vector<core::CoSearchResult> results;
        for (int s = 0; s < seeds; ++s) {
            BenchOptions so = opt;
            so.run.seed = opt.run.seed + static_cast<std::uint64_t>(s) * 7919;
            auto cfg = benchDriverConfig(core::DriverConfig::unico(), so);
            mutate_cfg(cfg);
            core::CoOptimizer driver(*env, cfg);
            results.push_back(driver.run());
        }
        return results;
    };

    // ---- (a) AUC promotion quota p -----------------------------------
    {
        common::TableWriter table({"pFrac", "final hv", "cost(h)",
                                   "min-dist L(ms)"});
        std::vector<std::vector<core::CoSearchResult>> all;
        const double p_values[] = {0.0, 0.15, 0.3, 0.45};
        for (double p : p_values)
            all.push_back(
                run_with([p](core::DriverConfig &cfg) {
                    cfg.sh.pFrac = p;
                }));

        moo::Objectives ideal, nadir;
        std::vector<const core::CoSearchResult *> ptrs;
        for (const auto &group : all)
            for (const auto &r : group)
                ptrs.push_back(&r);
        unionBounds(ptrs, ideal, nadir);

        for (std::size_t i = 0; i < all.size(); ++i) {
            double hv = 0.0, hours = 0.0, lat = 0.0;
            int lat_n = 0;
            for (const auto &r : all[i]) {
                hv += finalHv(r, ideal, nadir);
                hours += r.totalHours;
                if (!r.front.empty()) {
                    lat += r.records[r.minDistanceRecord()]
                               .ppa.latencyMs;
                    ++lat_n;
                }
            }
            const double n = static_cast<double>(all[i].size());
            table.addRow({common::TableWriter::num(p_values[i], 2),
                          common::TableWriter::num(hv / n, 4),
                          common::TableWriter::num(hours / n, 2),
                          lat_n ? common::TableWriter::num(lat / lat_n)
                                : "-"});
        }
        std::cout << "(a) MSH AUC-promotion quota p (p=0 is default "
                     "SH; paper uses 0.15):\n";
        table.print(std::cout);
        std::cout << "\n";
    }

    // ---- (b) robustness quantile alpha ---------------------------------
    {
        common::TableWriter table(
            {"alpha", "mean R (feasible)", "final hv"});
        const double alphas[] = {0.01, 0.05, 0.15, 0.30};
        std::vector<std::vector<core::CoSearchResult>> all;
        for (double a : alphas)
            all.push_back(run_with(
                [a](core::DriverConfig &cfg) { cfg.alpha = a; }));

        moo::Objectives ideal, nadir;
        std::vector<const core::CoSearchResult *> ptrs;
        for (const auto &group : all)
            for (const auto &r : group)
                ptrs.push_back(&r);
        unionBounds(ptrs, ideal, nadir);

        for (std::size_t i = 0; i < all.size(); ++i) {
            double r_acc = 0.0, hv = 0.0;
            std::size_t r_n = 0;
            for (const auto &res : all[i]) {
                hv += finalHv(res, ideal, nadir);
                for (const auto &rec : res.records) {
                    if (rec.ppa.feasible) {
                        r_acc += rec.sensitivity;
                        ++r_n;
                    }
                }
            }
            table.addRow(
                {common::TableWriter::num(alphas[i], 2),
                 r_n ? common::TableWriter::num(
                           r_acc / static_cast<double>(r_n), 3)
                     : "-",
                 common::TableWriter::num(
                     hv / static_cast<double>(all[i].size()), 4)});
        }
        std::cout << "(b) sub-optimal quantile alpha of R (paper: "
                     "0.05 -> the 95% right-tail point). Smaller alpha\n"
                     "    reaches deeper into the tail and reports "
                     "larger R:\n";
        table.print(std::cout);
        std::cout << "\n";
    }

    // ---- (c) batch size at fixed sample budget ------------------------
    {
        common::TableWriter table(
            {"batch N", "trials", "final hv", "cost(h)"});
        const int total_samples = opt.scaled(240, 48);
        const int batches[] = {6, 12, 24, 48};
        std::vector<std::vector<core::CoSearchResult>> all;
        for (int n : batches) {
            const int iters = std::max(total_samples / n, 1);
            all.push_back(run_with([n, iters](core::DriverConfig &cfg) {
                cfg.batchSize = n;
                cfg.maxIter = iters;
            }));
        }
        moo::Objectives ideal, nadir;
        std::vector<const core::CoSearchResult *> ptrs;
        for (const auto &group : all)
            for (const auto &r : group)
                ptrs.push_back(&r);
        unionBounds(ptrs, ideal, nadir);

        for (std::size_t i = 0; i < all.size(); ++i) {
            double hv = 0.0, hours = 0.0;
            for (const auto &r : all[i]) {
                hv += finalHv(r, ideal, nadir);
                hours += r.totalHours;
            }
            const double n = static_cast<double>(all[i].size());
            table.addRow(
                {common::TableWriter::num(
                     static_cast<long long>(batches[i])),
                 common::TableWriter::num(static_cast<long long>(
                     std::max(total_samples / batches[i], 1))),
                 common::TableWriter::num(hv / n, 4),
                 common::TableWriter::num(hours / n, 2)});
        }
        std::cout << "(c) HW batch size N at a fixed total sample "
                     "budget (wider batches parallelize better but\n"
                     "    refresh the surrogate less often):\n";
        table.print(std::cout);
    }
    return 0;
}
