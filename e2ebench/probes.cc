#include "probes.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <set>
#include <stdexcept>
#include <utility>

#include "camodel/cube_mapping.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/ascend_env.hh"
#include "core/backend.hh"
#include "core/checkpoint.hh"
#include "core/fidelity.hh"
#include "core/mobo.hh"
#include "core/spatial_env.hh"
#include "linalg/matrix.hh"
#include "mapping/mapping.hh"
#include "surrogate/gp.hh"
#include "stats.hh"
#include "trace.hh"

namespace unico::e2ebench {

namespace {

/** The GP subset-of-data cap (MoboConfig::maxGpPoints). */
constexpr std::size_t kGpPoints = 256;
/** Designs and random mappings per op the engine probes evaluate. */
constexpr std::size_t kProbeDesigns = 8;
constexpr int kMappingsPerOp = 16;
/** Minimum wall time of one repetition of a per-call probe. */
constexpr std::int64_t kMinRepNs = 10'000'000;

/** Round-pool width of the pool probe: the job server's --threads 4. */
constexpr std::size_t kPoolThreads = 4;
/** Defeats dead-code elimination of probed calls. */
volatile double g_sink = 0.0;

/** Median milliseconds of kProbeReps calls of @p fn. */
template <typename Fn>
double
medianMs(Fn &&fn)
{
    std::vector<double> reps;
    for (int r = 0; r < kProbeReps; ++r) {
        const std::int64_t t0 = nowNs();
        fn();
        reps.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    }
    return median(reps);
}

/** Median nanoseconds per call, where one @p fn invocation makes
 *  @p calls calls; each repetition loops for at least kMinRepNs. */
template <typename Fn>
double
nsPerCall(Fn &&fn, std::size_t calls)
{
    std::vector<double> reps;
    for (int r = 0; r < kProbeReps; ++r) {
        const std::int64_t t0 = nowNs();
        std::size_t done = 0;
        do {
            fn();
            done += calls;
        } while (nowNs() - t0 < kMinRepNs);
        reps.push_back(static_cast<double>(nowNs() - t0) /
                       static_cast<double>(done));
    }
    return median(reps);
}

/** The objective vector the driver archives for a record: the
 *  driver's penalty objectives for infeasible designs. */
moo::Objectives
archivedObjectives(const core::HwEvalRecord &rec, std::size_t num_obj)
{
    moo::Objectives y;
    if (!rec.ppa.feasible) {
        y = {1e6, 1e5, 1e3, 10.0};
        y.resize(num_obj, 10.0);
        return y;
    }
    y = {rec.ppa.latencyMs, rec.ppa.powerMw, rec.ppa.areaMm2};
    if (num_obj > 3)
        y.push_back(rec.sensitivity);
    return y;
}

/** Front designs of the search, at most kProbeDesigns. */
std::vector<accel::HwPoint>
frontDesigns(const core::CoSearchResult &result)
{
    std::vector<accel::HwPoint> out;
    for (const auto &entry : result.front.entries()) {
        if (out.size() == kProbeDesigns)
            break;
        out.push_back(result.records[entry.id].hw);
    }
    return out;
}

std::vector<accel::HwPoint>
randomDesigns(const accel::DesignSpace &space, common::Rng &rng)
{
    std::vector<accel::HwPoint> out;
    for (std::size_t i = 0; i < kProbeDesigns; ++i)
        out.push_back(space.randomPoint(rng));
    return out;
}

/**
 * kMappingsPerOp random mappings of @p space, feasible ones first: an
 * infeasible mapping can exit the model early, so the probe times the
 * full evaluation a surviving candidate costs. Falls back to
 * infeasible draws when the design fits few mappings.
 */
template <typename Space, typename Feasible>
auto
feasibleMappings(const Space &space, common::Rng &rng, Feasible &&feasible)
{
    std::vector<decltype(space.random(rng))> good;
    std::vector<decltype(space.random(rng))> bad;
    for (int tries = 0; tries < 64 * kMappingsPerOp &&
                        static_cast<int>(good.size()) < kMappingsPerOp;
         ++tries) {
        auto m = space.random(rng);
        (feasible(m) ? good : bad).push_back(std::move(m));
    }
    for (std::size_t i = 0;
         static_cast<int>(good.size()) < kMappingsPerOp && i < bad.size(); ++i)
        good.push_back(bad[i]);
    return good;
}

struct EngineTimes
{
    double coldNs = 0.0;
    double hitNs = 0.0;
};

/**
 * Cold evaluate() vs warm evaluateCached() of @p env's PPA engine over
 * its ops at @p designs: the query context is prepared once per
 * (op, design), as the mapping engines do.
 */
template <typename MapSpace, typename Env, typename Decode,
          typename EvalCached>
EngineTimes
probeEngine(const Env &env, const std::vector<accel::HwPoint> &designs,
            common::Rng &rng, Decode decode, EvalCached eval_cached)
{
    const auto &model = env.model();
    using Prep = decltype(model.prepare(env.layers()[0].op, decode(designs[0])));
    using Map = decltype(std::declval<const MapSpace &>().random(rng));
    struct Query
    {
        Prep prep;
        std::vector<Map> maps;
    };
    std::vector<Query> queries;
    std::size_t calls = 0;
    for (const auto &h : designs) {
        const auto hw = decode(h);
        for (const auto &wop : env.layers()) {
            Query q{model.prepare(wop.op, hw), {}};
            q.maps = feasibleMappings(MapSpace(wop.op), rng,
                                      [&](const Map &m) {
                                          return model.evaluate(q.prep, m)
                                              .feasible;
                                      });
            calls += q.maps.size();
            queries.push_back(std::move(q));
        }
    }
    accel::EvalCache cache(64u << 20);
    auto cached = [&] {
        double acc = 0.0;
        for (const auto &q : queries)
            for (const auto &m : q.maps)
                acc += eval_cached(model, q.prep, m, cache).latencyMs;
        g_sink = acc;
    };
    EngineTimes t;
    t.coldNs = nsPerCall(
        [&] {
            double acc = 0.0;
            for (const auto &q : queries)
                for (const auto &m : q.maps)
                    acc += model.evaluate(q.prep, m).latencyMs;
            g_sink = acc;
        },
        calls);
    cached(); // warm: every later lookup hits
    t.hitNs = nsPerCall(cached, calls);
    return t;
}

EngineTimes
probeSpatial(const core::SpatialEnv &env,
             const std::vector<accel::HwPoint> &designs, common::Rng &rng)
{
    return probeEngine<mapping::MappingSpace>(
        env, designs, rng,
        [&](const accel::HwPoint &h) { return env.spatialSpace().decode(h); },
        [](const auto &model, const auto &prep, const auto &m,
           accel::EvalCache &cache) {
            return model.evaluateCached(prep, m, cache);
        });
}

EngineTimes
probeAscend(const core::AscendEnv &env,
            const std::vector<accel::HwPoint> &designs, common::Rng &rng)
{
    return probeEngine<camodel::CubeMappingSpace>(
        env, designs, rng,
        [&](const accel::HwPoint &h) { return env.ascendSpace().decode(h); },
        [](const auto &model, const auto &prep, const auto &m,
           accel::EvalCache &cache) {
            double seconds = 0.0;
            return model.evaluateCached(prep, m, cache, &seconds);
        });
}

} // namespace

ProbeResults
runProbes(const ProbeInput &in)
{
    ProbeResults res;
    const accel::DesignSpace &space = in.env.hwSpace();
    common::Rng rng(in.cfg.seed);

    // --- core.mobo: a fresh sampler replays the run's archive, then
    // proposes batches at the final archive size. The untimed first
    // batch tunes the kernel, as trial 1 of a search does.
    const std::size_t num_obj = in.cfg.useRobustness ? 4 : 3;
    core::MoboConfig mobo_cfg;
    mobo_cfg.randomFraction = in.cfg.randomFraction;
    mobo_cfg.useArd = in.cfg.ardSurrogate;
    mobo_cfg.gpThreads = in.cfg.realThreads;
    core::MoboHwSampler sampler(space, num_obj, in.cfg.seed, mobo_cfg);
    for (const auto &rec : in.result.records)
        sampler.observe(rec.hw, archivedObjectives(rec, num_obj),
                        rec.highFidelity);
    const common::Json sampler_state = sampler.saveState();
    const auto batch = static_cast<std::size_t>(in.cfg.batchSize);
    sampler.sampleBatch(batch);
    res.sampleBatchMs = medianMs([&] { sampler.sampleBatch(batch); });

    // --- surrogate / linalg at n = 256: the run's distinct designs,
    // topped up with seeded random designs of the same space.
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    std::set<std::string> keys;
    for (const auto &rec : in.result.records) {
        if (x.size() == kGpPoints)
            break;
        if (!keys.insert(space.key(rec.hw)).second)
            continue;
        x.push_back(space.normalize(rec.hw));
        y.push_back(std::log10(1.0 + rec.ppa.latencyMs) +
                    std::log10(1.0 + rec.ppa.powerMw) +
                    std::log10(1.0 + rec.ppa.areaMm2));
    }
    double y_mean = 0.0;
    for (double v : y)
        y_mean += v / static_cast<double>(y.size());
    for (int tries = 0; x.size() < kGpPoints && tries < 100000; ++tries) {
        const auto h = space.randomPoint(rng);
        if (!keys.insert(space.key(h)).second)
            continue;
        x.push_back(space.normalize(h));
        y.push_back(y_mean);
    }
    if (x.size() != kGpPoints)
        throw std::runtime_error("probe: design space has < 256 designs");

    surrogate::GaussianProcess gp;
    res.gpFitMs = medianMs([&] { gp.fit(x, y, kGpPoints); });
    if (!gp.trained())
        throw std::runtime_error("probe: GP fit at n = 256 failed");
    std::vector<std::vector<double>> queries;
    for (std::size_t i = 0; i < kGpPoints; ++i)
        queries.push_back(space.normalize(space.randomPoint(rng)));
    res.gpPredictUs = nsPerCall(
                          [&] {
                              double acc = 0.0;
                              for (const auto &q : queries)
                                  acc += gp.predict(q).mean;
                              g_sink = acc;
                          },
                          queries.size()) /
                      1e3;

    const surrogate::KernelParams &params = gp.params();
    linalg::Matrix k(kGpPoints, kGpPoints);
    for (std::size_t i = 0; i < kGpPoints; ++i)
        for (std::size_t j = 0; j < kGpPoints; ++j)
            k(i, j) = surrogate::kernelValue(params, x[i], x[j]) +
                      (i == j ? params.noise : 0.0);
    std::vector<double> chol_ms;
    for (int r = 0; r < kProbeReps; ++r) {
        linalg::Matrix copy = k;
        const std::int64_t t0 = nowNs();
        const linalg::Cholesky chol(std::move(copy));
        chol_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        if (!chol.ok())
            throw std::runtime_error("probe: Cholesky at n = 256 failed");
    }
    res.choleskyMs = median(chol_ms);
    const linalg::Cholesky chol(k);
    res.solveLowerUs =
        nsPerCall([&] { g_sink = chol.solveLower(y).back(); }, 1) / 1e3;

    // --- PPA engines: cold prepared evaluation vs warm cache hit on
    // the workload's own ops. The searched engine uses the search's
    // front designs; the other engine seeded random designs of its
    // own space over the same ops.
    std::unique_ptr<core::CoSearchEnv> other;
    const auto *spatial = dynamic_cast<const core::SpatialEnv *>(&in.env);
    const auto *ascend = dynamic_cast<const core::AscendEnv *>(&in.env);
    if (spatial == nullptr && ascend == nullptr)
        throw std::runtime_error("probe: unknown backend");
    EngineTimes searched;
    if (spatial != nullptr) {
        searched = probeSpatial(*spatial, frontDesigns(in.result), rng);
        other = core::makeBackendEnv("ascend", in.networks, {});
        const auto &a = dynamic_cast<const core::AscendEnv &>(*other);
        res.camodelColdUs =
            probeAscend(a, randomDesigns(a.hwSpace(), rng), rng).coldNs /
            1e3;
        res.costmodelColdNs = searched.coldNs;
    } else {
        searched = probeAscend(*ascend, frontDesigns(in.result), rng);
        other = core::makeBackendEnv("spatial", in.networks, {});
        const auto &s = dynamic_cast<const core::SpatialEnv &>(*other);
        res.costmodelColdNs =
            probeSpatial(s, randomDesigns(s.hwSpace(), rng), rng).coldNs;
        res.camodelColdUs = searched.coldNs / 1e3;
    }
    res.cacheHitNs = searched.hitNs;

    // --- common.thread_pool: one SH round on the job server's 4-thread
    // round pool. Fresh runs of the last trial's designs, each grown to
    // a quarter of bMax, evaluate through the search's shared cache.
    const std::size_t round = std::min(batch, in.result.records.size());
    const int budget = std::max(in.cfg.sh.bMax / 4, in.env.minSeedBudget());
    common::ThreadPool pool(kPoolThreads);
    std::vector<double> parallelism;
    for (int r = 0; r < kProbeReps; ++r) {
        std::vector<std::unique_ptr<core::MappingRun>> runs;
        for (std::size_t i = in.result.records.size() - round;
             i < in.result.records.size(); ++i)
            runs.push_back(in.env.createRun(in.result.records[i].hw,
                                            in.cfg.seed + 7919 * (r + 1) + i));
        std::vector<std::int64_t> busy(runs.size(), 0);
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < runs.size(); ++i)
            jobs.push_back([&, i] {
                const std::int64_t t0 = nowNs();
                runs[i]->step(budget);
                busy[i] = nowNs() - t0;
            });
        const std::int64_t t0 = nowNs();
        common::runParallel(jobs, pool);
        const std::int64_t wall = nowNs() - t0;
        std::int64_t total = 0;
        for (std::int64_t b : busy)
            total += b;
        parallelism.push_back(static_cast<double>(total) /
                              static_cast<double>(wall));
    }
    res.poolParallelism = median(parallelism);

    // --- core.checkpoint: the document the driver would write after
    // the last trial, assembled from the run's final state.
    core::SearchCheckpoint ck;
    const auto id = core::StackIdentity::of(in.env);
    ck.configKey = core::configFingerprint(in.cfg);
    ck.backend = id.backend;
    ck.scenario = id.scenario;
    ck.workloadDigest = id.workloadDigest;
    ck.completedIterations = in.cfg.maxIter;
    ck.clockSeconds = in.result.totalHours * 3600.0;
    ck.clockEvaluations = in.result.evaluations;
    ck.samplerState = sampler_state;
    ck.selector =
        core::HighFidelitySelector(std::vector<double>(num_obj, 1.0 / num_obj))
            .saveState();
    ck.result = in.result;
    res.checkpointSaveMs = medianMs([&] {
        if (const auto st = core::saveCheckpointFile(in.scratchCheckpoint, ck);
            !st)
            throw std::runtime_error("probe: checkpoint save: " + st.message);
    });
    res.checkpointLoadMs = medianMs([&] {
        if (!core::loadCheckpointFile(in.scratchCheckpoint))
            throw std::runtime_error("probe: cannot load " +
                                     in.scratchCheckpoint);
    });
    res.checkpointBytes =
        static_cast<double>(std::filesystem::file_size(in.scratchCheckpoint));
    return res;
}

} // namespace unico::e2ebench
