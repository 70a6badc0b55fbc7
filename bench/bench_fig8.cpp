/**
 * @file
 * Reproduces Fig. 8: is the metric R a reliable indicator of HW
 * generalization?
 *
 * Protocol (Sec. 4.3): (1) run UNICO *without* R on the training set
 * {UNet, SRGAN, BERT}; (2) select Pareto pairs with similar PPA on
 * the training networks; (3) compute R for each pair member; (4)
 * run individual SW mapping search for both members on the unseen
 * validation set {ResNet, ResUNet, ViT, MobileNet}; (5) check that
 * the more robust member (smaller R) achieves lower validation
 * latency.
 */

#include "bench_common.hh"
#include "common/statistics.hh"

using namespace unico;
using namespace unico::bench;

namespace {

struct FrontPoint
{
    std::size_t record;
    moo::Objectives normalized;
    double sensitivity;
};

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);
    const BenchOptions opt = BenchOptions::parse(args);

    std::cout << "Fig. 8: reliability of the robustness metric R, "
              << "scale=" << opt.scale << ", seed=" << opt.run.seed << "\n\n";

    // (1) Co-optimize on the training set WITHOUT R as an objective.
    const auto train_env = makeBenchEnv(
        opt, {"unet", "srgan", "bert"}, accel::Scenario::Edge, 4);
    auto cfg = benchDriverConfig(core::DriverConfig::unico(), opt);
    cfg.useRobustness = false;
    cfg.name = "UNICO-noR";
    core::CoOptimizer driver(*train_env, cfg);
    const core::CoSearchResult result = driver.run();

    if (result.front.size() < 2) {
        std::cout << "front too small to form pairs; increase --scale\n";
        return 0;
    }

    // Fig. 8a: the obtained Pareto front (power vs latency), with R.
    common::TableWriter front_table(
        {"point", "hw", "L(ms)", "P(mW)", "A(mm2)", "R"});
    std::vector<FrontPoint> points;
    {
        const auto pts = result.front.points();
        const auto ideal = moo::idealPoint(pts);
        const auto nadir = moo::nadirPoint(pts);
        int idx = 0;
        for (const auto &entry : result.front.entries()) {
            const auto &rec = result.records[entry.id];
            // Only fully-searched designs carry a trustworthy R
            // estimate (enough mapping samples behind it).
            if (!rec.fullySearched)
                continue;
            points.push_back(FrontPoint{
                entry.id,
                moo::normalizeObjectives(entry.objectives, ideal, nadir),
                rec.sensitivity});
            front_table.addRow(
                {common::TableWriter::num(static_cast<long long>(idx++)),
                 train_env->describeHw(rec.hw),
                 common::TableWriter::num(rec.ppa.latencyMs),
                 common::TableWriter::num(rec.ppa.powerMw, 1),
                 common::TableWriter::num(rec.ppa.areaMm2, 2),
                 common::TableWriter::num(rec.sensitivity, 3)});
        }
    }
    std::cout << "Fig. 8a: Pareto front on the training set\n";
    front_table.print(std::cout);

    // (2) Pick up to 3 pairs with similar PPA but differing R.
    struct Pair
    {
        std::size_t a, b;  // indices into points
        double ppaDist;
        double rGap;
    };
    std::vector<Pair> pairs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = i + 1; j < points.size(); ++j) {
            Pair p;
            p.a = i;
            p.b = j;
            p.ppaDist = common::l2Distance(points[i].normalized,
                                           points[j].normalized);
            p.rGap = std::abs(points[i].sensitivity -
                              points[j].sensitivity);
            pairs.push_back(p);
        }
    }
    // Paper rule: pair members must have similar PPA (<= ~10%
    // collective difference); among qualifying pairs prefer the
    // clearest R gap. Relax the similarity threshold gradually if the
    // front is too sparse to produce three pairs.
    std::vector<bool> used(points.size(), false);
    std::vector<Pair> chosen;
    for (double threshold : {0.10, 0.20, 0.35}) {
        std::vector<Pair> eligible;
        for (const auto &p : pairs)
            if (p.ppaDist <= threshold && p.rGap > 1e-9)
                eligible.push_back(p);
        std::sort(eligible.begin(), eligible.end(),
                  [](const Pair &x, const Pair &y) {
                      return x.rGap > y.rGap;
                  });
        for (const auto &p : eligible) {
            if (chosen.size() >= 3)
                break;
            if (used[p.a] || used[p.b])
                continue;
            used[p.a] = used[p.b] = true;
            chosen.push_back(p);
        }
        if (chosen.size() >= 3)
            break;
    }
    if (chosen.empty()) {
        std::cout << "\nno comparable pairs with differing R found; "
                     "increase --scale\n";
        return 0;
    }

    // (4)-(5) Validate both pair members on unseen DNNs. The
    // validation mapping search runs on a limited budget — that is
    // where robustness to SW search pays off (a fragile design's
    // narrow mapping optimum is missed under a finite budget).
    const std::vector<std::string> validation = {
        "resnet", "resunet", "vit", "mobilenet"};
    const int budget = opt.scaled(36, 16);

    common::TableWriter table({"pair", "point", "R", "role", "net",
                               "val L(ms)"});
    int wins = 0, comparisons = 0;
    int pair_idx = 0;
    for (const auto &p : chosen) {
        const FrontPoint &fa = points[p.a];
        const FrontPoint &fb = points[p.b];
        const bool a_robust = fa.sensitivity <= fb.sensitivity;
        const FrontPoint &robust = a_robust ? fa : fb;
        const FrontPoint &fragile = a_robust ? fb : fa;

        // Aggregate scale-free: geometric mean of per-network
        // latency ratios (validation nets differ by orders of
        // magnitude in absolute latency). Each search is averaged
        // over a few seeds to damp mapping-search luck.
        double log_ratio = 0.0;
        const int val_seeds = 3;
        for (const auto &net : validation) {
            const auto val_env =
                makeBenchEnv(opt, {net}, accel::Scenario::Edge, 4);
            double lat_r = 0.0, lat_f = 0.0;
            for (int s = 0; s < val_seeds; ++s) {
                auto run_r = val_env->createRun(
                    result.records[robust.record].hw,
                    opt.run.seed + 101 + s * 37);
                run_r->step(budget);
                auto run_f = val_env->createRun(
                    result.records[fragile.record].hw,
                    opt.run.seed + 101 + s * 37);
                run_f->step(budget);
                lat_r += run_r->bestPpa().feasible
                             ? run_r->bestPpa().latencyMs
                             : 1e9;
                lat_f += run_f->bestPpa().feasible
                             ? run_f->bestPpa().latencyMs
                             : 1e9;
            }
            lat_r /= val_seeds;
            lat_f /= val_seeds;
            log_ratio += std::log(lat_f / lat_r);
            table.addRow({common::TableWriter::num(
                              static_cast<long long>(pair_idx)),
                          common::TableWriter::num(static_cast<long long>(
                              robust.record)),
                          common::TableWriter::num(robust.sensitivity, 3),
                          "robust", net,
                          common::TableWriter::num(lat_r)});
            table.addRow({common::TableWriter::num(
                              static_cast<long long>(pair_idx)),
                          common::TableWriter::num(static_cast<long long>(
                              fragile.record)),
                          common::TableWriter::num(fragile.sensitivity, 3),
                          "fragile", net,
                          common::TableWriter::num(lat_f)});
        }
        const double geo_gain = std::exp(
            log_ratio / static_cast<double>(validation.size()));
        ++comparisons;
        if (geo_gain >= 1.0)
            ++wins;
        std::cout << "\npair " << pair_idx << ": robust R="
                  << robust.sensitivity << " vs fragile R="
                  << fragile.sensitivity
                  << ", geo-mean validation latency ratio "
                     "(fragile/robust) = "
                  << common::TableWriter::num(geo_gain, 3) << " ("
                  << (geo_gain >= 1.0 ? "robust wins" : "fragile wins")
                  << ")\n";
        ++pair_idx;
    }

    std::cout << "\nFig. 8b: per-network validation latencies\n";
    emitTable(table, opt);
    std::cout << "\nrobust-point wins: " << wins << "/" << comparisons
              << " pairs\n";

    // Population-level evidence beyond the paper's three pairs: rank
    // correlation between R and the budget-limited validation
    // degradation across every fully-searched design of the search.
    {
        std::vector<double> r_values, degradation;
        std::size_t taken = 0;
        for (const auto &rec : result.records) {
            if (!rec.fullySearched || !rec.constraintOk)
                continue;
            if (taken++ >= 14)
                break;
            double log_deg = 0.0;
            int n = 0;
            for (const auto &net : {"mobilenet", "resnet", "vit"}) {
                const auto val_env =
                    makeBenchEnv(opt, {net}, accel::Scenario::Edge, 4);
                double limited = 0.0, converged = 0.0;
                for (int s = 0; s < 2; ++s) {
                    auto lim = val_env->createRun(rec.hw, 500 + s);
                    lim->step(budget);
                    auto conv = val_env->createRun(rec.hw, 500 + s);
                    conv->step(opt.scaled(240, 64));
                    limited += lim->bestPpa().latencyMs;
                    converged += conv->bestPpa().latencyMs;
                }
                log_deg += std::log(std::max(limited / converged, 1e-9));
                ++n;
            }
            r_values.push_back(rec.sensitivity);
            degradation.push_back(std::exp(log_deg / n));
        }
        const double rho = common::spearman(r_values, degradation);
        std::cout << "\nrank correlation between R (training) and "
                     "budget-limited validation degradation\nacross "
                  << r_values.size()
                  << " fully-searched designs: spearman = "
                  << common::TableWriter::num(rho, 3) << "\n";
    }

    std::cout << "\nExpected shape (paper Fig. 8): the smaller-R member "
                 "of each pair attains lower\nlatency on the unseen "
                 "validation networks, and R correlates positively "
                 "with\nhow much a design depends on SW search budget.\n";
    return 0;
}
