/**
 * @file
 * Fault-tolerance sweep: runs the UNICO co-search under increasing
 * injected fault rates (transient crashes, hangs, corrupted PPA
 * results, mixed 2:1:1 across the three kinds) and reports how the
 * final normalized hypervolume and search cost degrade relative to
 * the fault-free run at the same seed.
 *
 * Expected shape: the supervisor's retry/degrade/penalty ladder keeps
 * the search alive and the hypervolume within a few percent of the
 * clean run at moderate fault rates (<= 20%), while charged hours
 * grow with the injected rate (retries, backoff and burned deadlines
 * are real search cost).
 */

#include "bench_common.hh"

#include "common/fault.hh"
#include "core/fault_env.hh"

using namespace unico;

namespace {

/** Normalized hypervolume of a result's final front under shared
 *  bounds. */
double
finalHv(const core::CoSearchResult &result, const moo::Objectives &ideal,
        const moo::Objectives &nadir)
{
    const moo::Objectives ref(ideal.size(), 1.1);
    std::vector<moo::Objectives> pts;
    pts.reserve(result.front.size());
    for (const auto &y : result.front.points())
        pts.push_back(moo::normalizeObjectives(y, ideal, nadir));
    return moo::hypervolume(pts, ref);
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);
    const auto opt = bench::BenchOptions::parse(args);

    const auto env =
        bench::makeBenchEnv(opt, {"resnet"}, accel::Scenario::Edge);
    auto cfg = bench::benchDriverConfig(core::DriverConfig::unico(), opt);
    cfg.realThreads =
        static_cast<std::size_t>(args.getInt("threads", 1));

    struct Sweep
    {
        const char *label;
        double transient, hang, corrupt;
    };
    const Sweep sweeps[] = {
        {"fault-free", 0.0, 0.0, 0.0},
        {"transient 5%", 0.05, 0.0, 0.0},
        {"transient 20%", 0.20, 0.0, 0.0},
        {"hang 5%", 0.0, 0.05, 0.0},
        {"corrupt 10%", 0.0, 0.0, 0.10},
        {"mixed 20%", 0.10, 0.05, 0.05},
    };

    std::vector<core::CoSearchResult> results;
    std::vector<core::InjectionCounts> injected;
    for (const auto &sw : sweeps) {
        common::FaultSpec spec;
        spec.transientRate = sw.transient;
        spec.hangRate = sw.hang;
        spec.corruptRate = sw.corrupt;
        spec.seed = opt.run.seed + 1000;
        core::FaultyEnv faulty(*env, common::FaultPlan(spec));
        core::CoSearchEnv &run_env =
            spec.active() ? static_cast<core::CoSearchEnv &>(faulty)
                          : *env;
        core::CoOptimizer driver(run_env, cfg);
        results.push_back(driver.run());
        injected.push_back(faulty.injected());
        std::cout << sw.label << ": " << toString(results.back().faults)
                  << "\n";
    }

    // Shared normalization bounds so hypervolumes are comparable.
    moo::Objectives ideal, nadir;
    std::vector<const core::CoSearchResult *> ptrs;
    for (const auto &res : results)
        ptrs.push_back(&res);
    bench::unionBounds(ptrs, ideal, nadir);

    const double hv0 = finalHv(results[0], ideal, nadir);
    std::cout << "\nHypervolume degradation vs injected fault rate "
                 "(UNICO, resnet/edge)\n\n";
    common::TableWriter table({"injection", "injected", "retries",
                               "penalized", "front", "hours", "HV",
                               "HV/HV0"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &res = results[i];
        const double hv = finalHv(res, ideal, nadir);
        table.addRow(
            {sweeps[i].label, std::to_string(injected[i].total()),
             std::to_string(res.faults.retries),
             std::to_string(res.faults.penalized),
             std::to_string(res.front.size()),
             common::TableWriter::num(res.totalHours, 1),
             common::TableWriter::num(hv, 4),
             common::TableWriter::num(hv0 > 0.0 ? hv / hv0 : 0.0, 3)});
    }
    bench::emitTable(table, opt);
    std::cout << "\nExpected: every run completes; HV/HV0 stays near "
                 "1.0 at moderate rates while hours grow with the "
                 "injected load.\n";
    return 0;
}
