/**
 * @file
 * Reproduces Fig. 11: UNICO deployment on the Ascend-like platform.
 *
 * For each of {UNet, FSRCNN@120x320, FSRCNN@240x640, DLEU}, UNICO
 * co-optimizes the cube-core configuration (paper: batch N = 8,
 * MaxIter = 30, b_max = 200; scaled here to batch 12 x 12 trials,
 * area <= 200 mm^2) against the cycle-level simulator, and the
 * latency/power savings of the best-found hardware over the expert
 * default are reported.
 */

#include "bench_common.hh"

using namespace unico;
using namespace unico::bench;

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);
    const BenchOptions opt = BenchOptions::parse(args);
    // Fig. 11 is the Ascend deployment experiment: pin the ascend
    // backend rather than following --backend.
    BenchOptions ascend = opt;
    ascend.run.backend = "ascend";

    std::cout << "Fig. 11: UNICO vs expert default on the Ascend-like "
                 "platform, scale=" << opt.scale << ", seed=" << opt.run.seed
              << "\n(PPA engine: cycle-level simulator; every query "
                 "charges 2-10 virtual minutes)\n\n";

    const std::vector<std::string> nets = {
        "unet", "fsrcnn_120x320", "fsrcnn_240x640", "dleu"};

    common::TableWriter table({"network", "variant", "hw", "L(ms)",
                               "P(mW)", "A(mm2)", "latency savings",
                               "power savings", "cost(h)"});

    double lat_save_acc = 0.0, pow_save_acc = 0.0;
    int count = 0;
    for (const auto &net : nets) {
        const auto env =
            makeBenchEnv(ascend, {net}, accel::Scenario::Edge, 3);

        // Paper settings N=8, MaxIter=30, b_max=200; scaled here.
        core::DriverConfig cfg = core::DriverConfig::unico();
        cfg.batchSize = 12;
        cfg.maxIter = opt.scaled(12, 3);
        cfg.sh.bMax = opt.scaled(64, 16);
        cfg.minBudgetPerRound = 6;
        cfg.workers = 8;
        cfg.seed = opt.run.seed;
        core::CoOptimizer driver(*env, cfg);
        const auto result = driver.run();

        const int default_budget = cfg.sh.bMax;
        const accel::HwPoint expert_hw = env->expertDefault().value();
        const accel::Ppa def =
            env->evaluateConfig(expert_hw, default_budget, opt.run.seed + 3);

        table.addRow({net, "default", env->describeHw(expert_hw),
                      common::TableWriter::num(def.latencyMs),
                      common::TableWriter::num(def.powerMw, 1),
                      common::TableWriter::num(def.areaMm2, 1), "-", "-",
                      "-"});

        if (result.front.empty()) {
            table.addRow({net, "UNICO", "no feasible design", "-", "-",
                          "-", "-", "-",
                          common::TableWriter::num(result.totalHours, 1)});
            continue;
        }
        // The co-optimization goal of Sec. 4.6 is reducing *both*
        // latency and power under the area cap: pick the front design
        // maximizing the balanced improvement min(latency savings,
        // power savings) over the default; fall back to the
        // min-distance representative when nothing improves both.
        const core::HwEvalRecord *picked = nullptr;
        double best_balance = 0.0;
        for (const auto &entry : result.front.entries()) {
            const auto &cand = result.records[entry.id];
            if (!cand.fullySearched)
                continue;
            const double ls =
                (def.latencyMs - cand.ppa.latencyMs) / def.latencyMs;
            const double ps =
                (def.powerMw - cand.ppa.powerMw) / def.powerMw;
            const double balance = std::min(ls, ps);
            if (balance > best_balance) {
                best_balance = balance;
                picked = &cand;
            }
        }
        if (!picked)
            picked = &result.records[result.minDistanceRecord()];
        const auto &rec = *picked;
        const double lat_save =
            (def.latencyMs - rec.ppa.latencyMs) / def.latencyMs * 100.0;
        const double pow_save =
            (def.powerMw - rec.ppa.powerMw) / def.powerMw * 100.0;
        lat_save_acc += lat_save;
        pow_save_acc += pow_save;
        ++count;
        table.addRow({net, "UNICO", env->describeHw(rec.hw),
                      common::TableWriter::num(rec.ppa.latencyMs),
                      common::TableWriter::num(rec.ppa.powerMw, 1),
                      common::TableWriter::num(rec.ppa.areaMm2, 1),
                      common::TableWriter::num(lat_save, 1) + "%",
                      common::TableWriter::num(pow_save, 1) + "%",
                      common::TableWriter::num(result.totalHours, 1)});
    }

    emitTable(table, opt);
    if (count > 0) {
        std::cout << "\naverage savings: latency "
                  << common::TableWriter::num(lat_save_acc / count, 1)
                  << "%, power "
                  << common::TableWriter::num(pow_save_acc / count, 1)
                  << "%\n";
    }
    std::cout << "\nExpected shape (paper Fig. 11): UNICO improves "
                 "latency (e.g. ~12-26% on UNet/FSRCNN)\nand power "
                 "(~32% average) over the expert default, typically by "
                 "rebalancing the L0A/L0B/L0C split.\n";
    return 0;
}
