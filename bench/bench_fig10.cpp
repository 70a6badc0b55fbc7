/**
 * @file
 * Reproduces Fig. 10: feature-contribution ablation.
 *
 * Four variants on the multi-DNN workload {UNet, SRGAN, BERT, ViT}:
 *   HASCO               (full budget + champion update)
 *   SH  + ChampionUpdate
 *   MSH + ChampionUpdate
 *   UNICO               (MSH + HighFidelityUpdate + R)
 * reporting hypervolume (higher is better) against search cost.
 */

#include "bench_common.hh"

using namespace unico;
using namespace unico::bench;

namespace {

/** Hypervolume (not difference) series under shared normalization. */
std::vector<std::pair<double, double>>
hvSeries(const std::vector<core::TracePoint> &trace,
         const moo::Objectives &ideal, const moo::Objectives &nadir)
{
    std::vector<std::pair<double, double>> out;
    const moo::Objectives ref(ideal.size(), 1.1);
    for (const auto &tp : trace) {
        std::vector<moo::Objectives> pts;
        for (const auto &y : tp.front)
            pts.push_back(moo::normalizeObjectives(y, ideal, nadir));
        out.emplace_back(tp.hours, moo::hypervolume(pts, ref));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);
    const BenchOptions opt = BenchOptions::parse(args);

    std::cout << "Fig. 10: ablation of MSH and the high-fidelity "
                 "update, scale=" << opt.scale << ", seed=" << opt.run.seed
              << "\n\n";

    const auto env = makeBenchEnv(
        opt, {"unet", "srgan", "bert", "vit"}, accel::Scenario::Edge, 3);

    struct Variant
    {
        std::string name;
        core::DriverConfig cfg;
        core::CoSearchResult result;
    };
    std::vector<Variant> variants;
    variants.push_back({"HASCO",
                        benchDriverConfig(core::DriverConfig::hascoLike(),
                                          opt),
                        {}});
    variants.push_back(
        {"SH+ChampionUpdate",
         benchDriverConfig(core::DriverConfig::shChampion(), opt),
         {}});
    variants.push_back(
        {"MSH+ChampionUpdate",
         benchDriverConfig(core::DriverConfig::mshChampion(), opt),
         {}});
    variants.push_back(
        {"UNICO",
         benchDriverConfig(core::DriverConfig::unico(), opt),
         {}});

    for (auto &variant : variants) {
        core::CoOptimizer driver(*env, variant.cfg);
        variant.result = driver.run();
    }

    moo::Objectives ideal, nadir;
    std::vector<const core::CoSearchResult *> ptrs;
    for (const auto &v : variants)
        ptrs.push_back(&v.result);
    unionBounds(ptrs, ideal, nadir);

    common::TableWriter series_table(
        {"variant", "hours", "hypervolume"});
    common::TableWriter final_table(
        {"variant", "final hv", "cost(h)", "evals", "vs HASCO"});

    double hasco_final = 0.0;
    for (auto &variant : variants) {
        const auto series =
            hvSeries(variant.result.trace, ideal, nadir);
        for (const auto &[hours, hv] : series) {
            series_table.addRow({variant.name,
                                 common::TableWriter::num(hours, 2),
                                 common::TableWriter::num(hv, 4)});
        }
        const double final_hv = series.empty() ? 0.0 : series.back().second;
        if (variant.name == "HASCO")
            hasco_final = final_hv;
        const double rel =
            hasco_final > 0.0
                ? (final_hv - hasco_final) / hasco_final * 100.0
                : 0.0;
        final_table.addRow(
            {variant.name, common::TableWriter::num(final_hv, 4),
             common::TableWriter::num(variant.result.totalHours, 2),
             common::TableWriter::num(
                 static_cast<long long>(variant.result.evaluations)),
             common::TableWriter::num(rel, 1) + "%"});
    }

    std::cout << "hypervolume vs cost series:\n";
    series_table.print(std::cout);
    std::cout << "\nfinal comparison:\n";
    emitTable(final_table, opt);

    std::cout << "\nExpected shape (paper Fig. 10): "
                 "SH+ChampionUpdate prunes too aggressively and can "
                 "fall below HASCO;\nMSH+ChampionUpdate improves on "
                 "HASCO (~14% in the paper); full UNICO improves "
                 "most (~28%).\n";
    return 0;
}
