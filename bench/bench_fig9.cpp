/**
 * @file
 * Reproduces Fig. 9: generalization to unseen DNNs.
 *
 * Co-optimize UNICO (with R) and HASCO on the training set
 * {MobileNetV2, ResNet, SRGAN, VGG}; take each method's
 * min-Euclidean-distance hardware; run an individual SW mapping
 * search with that fixed hardware on eight unseen networks; report
 * the per-network gain ratio of UNICO over HASCO on the
 * min-Euclidean-distance of the resulting PPA.
 */

#include "bench_common.hh"

using namespace unico;
using namespace unico::bench;

namespace {

/** Normalized PPA distance to the origin under shared scales. */
double
ppaDistance(const accel::Ppa &ppa, const accel::Ppa &scale_ref)
{
    const double l = ppa.latencyMs / std::max(scale_ref.latencyMs, 1e-12);
    const double p = ppa.powerMw / std::max(scale_ref.powerMw, 1e-12);
    const double a = ppa.areaMm2 / std::max(scale_ref.areaMm2, 1e-12);
    return std::sqrt(l * l + p * p + a * a);
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);
    const BenchOptions opt = BenchOptions::parse(args);

    std::cout << "Fig. 9: UNICO vs HASCO generalization to unseen DNNs, "
              << "scale=" << opt.scale << ", seed=" << opt.run.seed << "\n\n";

    const std::vector<std::string> training = {"mobilenet_v2", "resnet",
                                               "srgan", "vgg"};
    // --surrogate/--surrogate-keep screen the training co-searches;
    // the fixed-hardware validation runs below stay exact so the
    // generalization comparison itself is never approximated.
    surrogate::SurrogateContext surrogate_ctx;
    surrogate_ctx.options = core::surrogateOptions(opt.run);
    if (surrogate_ctx.options.enabled)
        std::cout << "surrogate screening: keep="
                  << surrogate_ctx.options.keep << "\n\n";
    const auto train_env = makeBenchEnv(opt, training,
                                        accel::Scenario::Edge, 3,
                                        nullptr, &surrogate_ctx);

    auto unico_cfg = benchDriverConfig(core::DriverConfig::unico(), opt);
    core::CoOptimizer unico_driver(*train_env, unico_cfg);
    const auto unico_result = unico_driver.run();

    auto hasco_cfg =
        benchDriverConfig(core::DriverConfig::hascoLike(), opt);
    core::CoOptimizer hasco_driver(*train_env, hasco_cfg);
    const auto hasco_result = hasco_driver.run();

    if (unico_result.front.empty() || hasco_result.front.empty()) {
        std::cout << "empty front(s); increase --scale\n";
        return 0;
    }
    // Pick each method's representative under a *shared*
    // normalization (union bounds over both methods' fully-searched
    // fronts) so the selection criterion treats both identically.
    std::vector<moo::Objectives> shippable;
    for (const auto *res : {&unico_result, &hasco_result}) {
        for (const auto &entry : res->front.entries())
            if (res->records[entry.id].fullySearched)
                shippable.push_back(entry.objectives);
    }
    const auto ideal = moo::idealPoint(shippable);
    const auto nadir = moo::nadirPoint(shippable);
    auto pick = [&](const core::CoSearchResult &res) -> std::size_t {
        double best_dist = std::numeric_limits<double>::infinity();
        std::size_t best = res.minDistanceRecord();
        for (const auto &entry : res.front.entries()) {
            if (!res.records[entry.id].fullySearched)
                continue;
            const auto norm =
                moo::normalizeObjectives(entry.objectives, ideal, nadir);
            double acc = 0.0;
            for (double v : norm)
                acc += v * v;
            if (acc < best_dist) {
                best_dist = acc;
                best = static_cast<std::size_t>(entry.id);
            }
        }
        return best;
    };
    const auto &unico_hw = unico_result.records[pick(unico_result)].hw;
    const auto &hasco_hw = hasco_result.records[pick(hasco_result)].hw;
    std::cout << "UNICO hardware: " << train_env->describeHw(unico_hw)
              << "\nHASCO hardware: " << train_env->describeHw(hasco_hw)
              << "\n\n";

    const std::vector<std::string> validation = {
        "unet",          "vit",
        "xception",      "mobilenet_v3_large",
        "mobilenet_v3_small", "nasnet_mobile",
        "efficientnet_v2",    "convnext",
    };
    // Budget-limited validation (the deployment reality the R metric
    // targets: a new workload gets a quick mapping search, not an
    // exhaustive one), averaged over mapping-search seeds.
    const int budget = opt.scaled(60, 24);
    const int val_seeds = 3;

    common::TableWriter table({"network", "UNICO dist", "HASCO dist",
                               "gain (HASCO/UNICO)"});
    double gain_acc = 0.0;
    int gain_count = 0;
    for (const auto &net : validation) {
        const auto val_env =
            makeBenchEnv(opt, {net}, accel::Scenario::Edge, 4);
        accel::Ppa ppa_u, ppa_h;
        ppa_u.feasible = ppa_h.feasible = true;
        for (int s = 0; s < val_seeds; ++s) {
            auto run_u =
                val_env->createRun(unico_hw, opt.run.seed + 17 + s * 53);
            run_u->step(budget);
            auto run_h =
                val_env->createRun(hasco_hw, opt.run.seed + 17 + s * 53);
            run_h->step(budget);
            const accel::Ppa pu = run_u->bestPpa();
            const accel::Ppa ph = run_h->bestPpa();
            ppa_u.feasible &= pu.feasible;
            ppa_h.feasible &= ph.feasible;
            ppa_u.latencyMs += pu.latencyMs / val_seeds;
            ppa_u.powerMw += pu.powerMw / val_seeds;
            ppa_u.areaMm2 += pu.areaMm2 / val_seeds;
            ppa_h.latencyMs += ph.latencyMs / val_seeds;
            ppa_h.powerMw += ph.powerMw / val_seeds;
            ppa_h.areaMm2 += ph.areaMm2 / val_seeds;
        }
        if (!ppa_u.feasible || !ppa_h.feasible) {
            table.addRow({net, ppa_u.feasible ? "ok" : "infeasible",
                          ppa_h.feasible ? "ok" : "infeasible", "-"});
            continue;
        }
        // Shared scale: the element-wise max of the two PPAs.
        accel::Ppa scale_ref;
        scale_ref.latencyMs = std::max(ppa_u.latencyMs, ppa_h.latencyMs);
        scale_ref.powerMw = std::max(ppa_u.powerMw, ppa_h.powerMw);
        scale_ref.areaMm2 = std::max(ppa_u.areaMm2, ppa_h.areaMm2);
        const double dist_u = ppaDistance(ppa_u, scale_ref);
        const double dist_h = ppaDistance(ppa_h, scale_ref);
        const double gain = dist_h / std::max(dist_u, 1e-12);
        gain_acc += gain;
        ++gain_count;
        table.addRow({net, common::TableWriter::num(dist_u, 4),
                      common::TableWriter::num(dist_h, 4),
                      common::TableWriter::num(gain, 3)});
    }

    emitTable(table, opt);
    if (gain_count > 0) {
        std::cout << "\naverage gain ratio: "
                  << common::TableWriter::num(gain_acc / gain_count, 3)
                  << " (paper reports UNICO improving HASCO's "
                     "min-distance by ~44% on average,\n i.e. a mean "
                     "gain ratio > 1)\n";
    }
    return 0;
}
