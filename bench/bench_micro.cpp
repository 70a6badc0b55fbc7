/**
 * @file
 * Micro-benchmarks (google-benchmark) for the building blocks whose
 * throughput determines co-search cost: the analytical PPA model,
 * the cycle-level simulator, GP fit/predict, hypervolume and the
 * mapping operators. These quantify the paper's premise that the
 * analytical engine is orders of magnitude cheaper than the
 * cycle-level one.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string_view>
#include <vector>

#include "camodel/simulator.hh"
#include "common/rng.hh"
#include "common/shard_cache.hh"
#include "common/thread_pool.hh"
#include "core/backend.hh"
#include "core/driver.hh"
#include "costmodel/analytical.hh"
#include "linalg/lanes.hh"
#include "linalg/matrix.hh"
#include "moo/hypervolume.hh"
#include "moo/scalarize.hh"
#include "surrogate/gp.hh"
#include "surrogate/learned_model.hh"
#include "workload/model_zoo.hh"

using namespace unico;

namespace {

workload::TensorOp
convOp()
{
    return workload::TensorOp::conv("c", 64, 32, 28, 28, 3, 3);
}

accel::SpatialHwConfig
spatialHw()
{
    accel::SpatialHwConfig hw;
    hw.peX = hw.peY = 8;
    hw.l1Bytes = 16 * 1024;
    hw.l2Bytes = 512 * 1024;
    hw.nocBandwidth = 128;
    return hw;
}

void
BM_AnalyticalEvaluate(benchmark::State &state)
{
    const costmodel::AnalyticalCostModel model;
    const auto op = convOp();
    const auto hw = spatialHw();
    const mapping::MappingSpace space(op);
    common::Rng rng(1);
    std::vector<mapping::Mapping> mappings;
    for (int i = 0; i < 64; ++i)
        mappings.push_back(space.random(rng));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.evaluate(op, hw, mappings[i++ % mappings.size()]));
    }
}
BENCHMARK(BM_AnalyticalEvaluate);

void
BM_CycleLevelEvaluate(benchmark::State &state)
{
    const camodel::CycleAccurateModel model;
    const auto op = workload::TensorOp::gemm("g", 512, 512, 512);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(2);
    std::vector<camodel::CubeMapping> mappings;
    for (int i = 0; i < 16; ++i)
        mappings.push_back(space.random(rng));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.evaluate(op, hw, mappings[i++ % mappings.size()]));
    }
}
BENCHMARK(BM_CycleLevelEvaluate);

void
BM_AnalyticalEvaluateCachedWarm(benchmark::State &state)
{
    const costmodel::AnalyticalCostModel model;
    const auto op = convOp();
    const auto hw = spatialHw();
    const mapping::MappingSpace space(op);
    common::Rng rng(1);
    std::vector<mapping::Mapping> mappings;
    for (int i = 0; i < 64; ++i)
        mappings.push_back(space.random(rng));
    accel::EvalCache cache(16 * 1024 * 1024);
    for (const auto &m : mappings)
        model.evaluateCached(op, hw, m, cache); // warm every entry
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.evaluateCached(
            op, hw, mappings[i++ % mappings.size()], cache));
    }
}
BENCHMARK(BM_AnalyticalEvaluateCachedWarm);

void
BM_CycleLevelEvaluateCachedWarm(benchmark::State &state)
{
    const camodel::CycleAccurateModel model;
    const auto op = workload::TensorOp::gemm("g", 512, 512, 512);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(2);
    std::vector<camodel::CubeMapping> mappings;
    for (int i = 0; i < 16; ++i)
        mappings.push_back(space.random(rng));
    accel::EvalCache cache(16 * 1024 * 1024);
    double secs = 0.0;
    for (const auto &m : mappings)
        model.evaluateCached(op, hw, m, cache, &secs);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.evaluateCached(
            op, hw, mappings[i++ % mappings.size()], cache, &secs));
    }
}
BENCHMARK(BM_CycleLevelEvaluateCachedWarm);

/**
 * Successive-halving-shaped workload over the cycle-level engine:
 * the same candidate set is re-evaluated round after round (the
 * co-search hot loop re-runs survivors with larger budgets, and
 * multi-seed sweeps repeat whole trials). Uncached vs cached
 * quantifies the warm-path speedup the evaluation cache buys where
 * it matters — on the expensive simulator queries.
 */
void
mshRounds(benchmark::State &state, accel::EvalCache *cache)
{
    const camodel::CycleAccurateModel model;
    const auto op = workload::TensorOp::gemm("g", 256, 256, 256);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(7);
    std::vector<camodel::CubeMapping> mappings;
    for (int i = 0; i < 16; ++i)
        mappings.push_back(space.random(rng));
    double secs = 0.0;
    for (auto _ : state) {
        double acc = 0.0;
        for (int round = 0; round < 4; ++round) {
            for (const auto &m : mappings) {
                const accel::Ppa ppa =
                    cache != nullptr
                        ? model.evaluateCached(op, hw, m, *cache, &secs)
                        : model.evaluate(op, hw, m);
                acc += ppa.latencyMs;
            }
        }
        benchmark::DoNotOptimize(acc);
    }
}

void
BM_MshRoundsUncached(benchmark::State &state)
{
    mshRounds(state, nullptr);
}
BENCHMARK(BM_MshRoundsUncached);

void
BM_MshRoundsCached(benchmark::State &state)
{
    accel::EvalCache cache(16 * 1024 * 1024);
    mshRounds(state, &cache);
}
BENCHMARK(BM_MshRoundsCached);

/**
 * Cold-evaluation kernels: one cache-miss query = cache-key
 * fingerprint + model evaluation, the exact work a mapping engine
 * pays for every previously unseen candidate. The unprepared
 * variants replicate the pre-overhaul kernel — re-hashing the query
 * context fingerprint and re-deriving operand masks / sqrt energy
 * constants per call, as evaluateCached() historically did, and for
 * the cube running the per-L0-tile inner pipeline (retained verbatim
 * as the traced path; trace cap 1 keeps recording cost negligible).
 * The prepared variants amortize the context through
 * PreparedSpatialQuery/PreparedCubeQuery and (cube) the hoisted
 * loop-invariant fast path — the production stack since the layer
 * policies build one context per layer-run. The ns_per_eval counter
 * carries both into BENCH_micro.json, where CI guards the ratio.
 */
void
BM_ColdEvalSpatial(benchmark::State &state)
{
    const costmodel::AnalyticalCostModel model;
    const auto op = convOp();
    const auto hw = spatialHw();
    const mapping::MappingSpace space(op);
    common::Rng rng(1);
    std::vector<mapping::Mapping> mappings;
    for (int i = 0; i < 64; ++i)
        mappings.push_back(space.random(rng));
    std::size_t i = 0;
    std::uint64_t keys = 0;
    double lat = 0.0;
    for (auto _ : state) {
        const auto &m = mappings[i];
        i = (i + 1) & (mappings.size() - 1); // size is a power of two
        keys += accel::evalCacheKey(model.queryFingerprint(op, hw),
                                    m.fingerprint())
                    .lo;
        lat += model.evaluate(op, hw, m).latencyMs;
    }
    benchmark::DoNotOptimize(keys);
    benchmark::DoNotOptimize(lat);
    // iterations * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per evaluation.
    state.counters["ns_per_eval"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ColdEvalSpatial);

void
BM_ColdEvalSpatialPrepared(benchmark::State &state)
{
    const costmodel::AnalyticalCostModel model;
    const auto op = convOp();
    const auto hw = spatialHw();
    const mapping::MappingSpace space(op);
    common::Rng rng(1);
    std::vector<mapping::Mapping> mappings;
    for (int i = 0; i < 64; ++i)
        mappings.push_back(space.random(rng));
    const costmodel::PreparedSpatialQuery prep = model.prepare(op, hw);
    std::size_t i = 0;
    std::uint64_t keys = 0;
    double lat = 0.0;
    for (auto _ : state) {
        const auto &m = mappings[i];
        i = (i + 1) & (mappings.size() - 1); // size is a power of two
        keys += prep.cacheKey(m).lo;
        lat += model.evaluate(prep, m).latencyMs;
    }
    benchmark::DoNotOptimize(keys);
    benchmark::DoNotOptimize(lat);
    // iterations * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per evaluation.
    state.counters["ns_per_eval"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ColdEvalSpatialPrepared);

void
BM_ColdEvalCube(benchmark::State &state)
{
    // Pre-overhaul reference: traceLimit = 1 selects the historical
    // per-L0-tile inner pipeline (kept verbatim for trace users and
    // bit-identity checks); the event cap makes recording free after
    // the first event, so this times the old kernel's add sequence.
    camodel::CubeTech tech;
    tech.traceLimit = 1;
    const camodel::CycleAccurateModel model(tech);
    const auto op = workload::TensorOp::gemm("g", 512, 512, 512);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(2);
    std::vector<camodel::CubeMapping> mappings;
    for (int i = 0; i < 16; ++i)
        mappings.push_back(space.random(rng));
    std::size_t i = 0;
    std::uint64_t keys = 0;
    double lat = 0.0;
    for (auto _ : state) {
        const auto &m = mappings[i];
        i = (i + 1) & (mappings.size() - 1); // size is a power of two
        keys += accel::evalCacheKey(model.queryFingerprint(op, hw),
                                    m.fingerprint())
                    .lo;
        lat += model.evaluate(op, hw, m).latencyMs;
    }
    benchmark::DoNotOptimize(keys);
    benchmark::DoNotOptimize(lat);
    // iterations * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per evaluation.
    state.counters["ns_per_eval"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ColdEvalCube);

void
BM_ColdEvalCubePrepared(benchmark::State &state)
{
    const camodel::CycleAccurateModel model;
    const auto op = workload::TensorOp::gemm("g", 512, 512, 512);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(2);
    std::vector<camodel::CubeMapping> mappings;
    for (int i = 0; i < 16; ++i)
        mappings.push_back(space.random(rng));
    const camodel::PreparedCubeQuery prep = model.prepare(op, hw);
    std::size_t i = 0;
    std::uint64_t keys = 0;
    double lat = 0.0;
    for (auto _ : state) {
        const auto &m = mappings[i];
        i = (i + 1) & (mappings.size() - 1); // size is a power of two
        keys += prep.cacheKey(m).lo;
        lat += model.evaluate(prep, m).latencyMs;
    }
    benchmark::DoNotOptimize(keys);
    benchmark::DoNotOptimize(lat);
    // iterations * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per evaluation.
    state.counters["ns_per_eval"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ColdEvalCubePrepared);

/**
 * Batched cold evaluation: a 16-candidate block through
 * evaluateBatch() on a persistent pool (arg = threads; 0 = serial),
 * under one prepared context. Reported per block; wall-clock scales
 * with the pool while results stay byte-identical. The cube model is
 * the case that matters: its per-candidate cost (~10 us) dwarfs the
 * pool's dispatch overhead, which is also why the spatial engines
 * only batch when blocks are large and a pool is explicitly given.
 */
void
BM_ColdEvalCubeBatch(benchmark::State &state)
{
    const camodel::CycleAccurateModel model;
    const auto op = workload::TensorOp::gemm("g", 512, 512, 512);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(2);
    std::vector<camodel::CubeMapping> mappings;
    for (int i = 0; i < 16; ++i)
        mappings.push_back(space.random(rng));
    const camodel::PreparedCubeQuery prep = model.prepare(op, hw);
    const auto threads = static_cast<std::size_t>(state.range(0));
    common::ThreadPool pool(threads == 0 ? 1 : threads);
    common::ThreadPool *p = threads == 0 ? nullptr : &pool;
    for (auto _ : state)
        benchmark::DoNotOptimize(model.evaluateBatch(prep, mappings, p));
}
BENCHMARK(BM_ColdEvalCubeBatch)->Arg(0)->Arg(4);

void
BM_MappingMutate(benchmark::State &state)
{
    const mapping::MappingSpace space(convOp());
    common::Rng rng(3);
    mapping::Mapping m = space.random(rng);
    for (auto _ : state) {
        m = space.mutate(m, rng);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_MappingMutate);

void
BM_GpFit(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    common::Rng rng(4);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (std::size_t i = 0; i < n; ++i) {
        x.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        y.push_back(rng.gaussian());
    }
    for (auto _ : state) {
        surrogate::GaussianProcess gp;
        gp.fit(x, y);
        benchmark::DoNotOptimize(gp.trained());
    }
}
BENCHMARK(BM_GpFit)->Arg(32)->Arg(128)->Arg(256);

void
BM_GpPredict(benchmark::State &state)
{
    common::Rng rng(5);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 128; ++i) {
        x.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        y.push_back(rng.gaussian());
    }
    surrogate::GaussianProcess gp;
    gp.fit(x, y);
    const std::vector<double> q = {0.3, 0.5, 0.7};
    for (auto _ : state)
        benchmark::DoNotOptimize(gp.predict(q));
}
BENCHMARK(BM_GpPredict);

/**
 * One MOBO proposal's pool solve at the GP cap: L⁻¹K* for n = 256
 * training points and m = 240 candidates on the same Cholesky factor,
 * as 240 separate forward substitutions (the pre-batching acquisition
 * path) and as one column-blocked multi-RHS solve (the production
 * path). Both give bitwise-equal columns; the ns_per_solve counter
 * carries both into BENCH_micro.json, where CI guards the ratio. The
 * same fixture times building K* itself, per entry and row-wise.
 */
struct PoolSolveFixture
{
    static constexpr std::size_t kTrain = 256;
    static constexpr std::size_t kPool = 240;

    PoolSolveFixture()
    {
        common::Rng rng(7);
        train.resize(kTrain);
        pool.resize(kPool);
        for (auto &p : train)
            p = {rng.uniform(), rng.uniform(), rng.uniform(),
                 rng.uniform()};
        for (auto &p : pool)
            p = {rng.uniform(), rng.uniform(), rng.uniform(),
                 rng.uniform()};
        linalg::Matrix k(kTrain, kTrain, 0.0);
        for (std::size_t i = 0; i < kTrain; ++i) {
            for (std::size_t j = 0; j < kTrain; ++j)
                k(i, j) = surrogate::kernelValue(params, train[i], train[j]);
            k(i, i) += params.noise;
        }
        chol = std::make_unique<linalg::Cholesky>(std::move(k));
        kstar = linalg::Matrix(kTrain, kPool, 0.0);
        for (std::size_t i = 0; i < kTrain; ++i)
            for (std::size_t j = 0; j < kPool; ++j)
                kstar(i, j) =
                    surrogate::kernelValue(params, pool[j], train[i]);
        columns.assign(kPool, linalg::Vector(kTrain));
        for (std::size_t j = 0; j < kPool; ++j)
            for (std::size_t i = 0; i < kTrain; ++i)
                columns[j][i] = kstar(i, j);
    }

    surrogate::KernelParams params; ///< defaults: Matérn-5/2
    std::vector<std::vector<double>> train, pool;
    std::unique_ptr<linalg::Cholesky> chol;
    linalg::Matrix kstar;
    std::vector<linalg::Vector> columns;
};

void
setNsPerSolve(benchmark::State &state)
{
    // iterations * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per pool solve.
    state.counters["ns_per_solve"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_SolveLowerPerColumn(benchmark::State &state)
{
    const PoolSolveFixture f;
    double sink = 0.0;
    for (auto _ : state)
        for (const auto &col : f.columns)
            sink += f.chol->solveLower(col).back();
    benchmark::DoNotOptimize(sink);
    setNsPerSolve(state);
}
BENCHMARK(BM_SolveLowerPerColumn);

void
BM_SolveLowerColumns(benchmark::State &state)
{
    const PoolSolveFixture f;
    double sink = 0.0;
    for (auto _ : state)
        sink += f.chol->solveLowerColumns(f.kstar)(
            PoolSolveFixture::kTrain - 1, PoolSolveFixture::kPool - 1);
    benchmark::DoNotOptimize(sink);
    setNsPerSolve(state);
    // Which lane-width instance the ratio guard measured.
    state.counters["lane_doubles"] = static_cast<double>(
        linalg::detail::activeLanePath().laneDoubles);
}
BENCHMARK(BM_SolveLowerColumns);

void
setNsPerKernelStar(benchmark::State &state)
{
    state.counters["ns_per_kstar"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/** K* for one proposal, one kernelValue() call per entry. */
void
BM_KernelStarPerEntry(benchmark::State &state)
{
    const PoolSolveFixture f;
    linalg::Matrix kstar(PoolSolveFixture::kTrain, PoolSolveFixture::kPool);
    for (auto _ : state) {
        for (std::size_t i = 0; i < PoolSolveFixture::kTrain; ++i) {
            double *row = kstar.row(i);
            for (std::size_t j = 0; j < PoolSolveFixture::kPool; ++j)
                row[j] = surrogate::kernelValue(f.params, f.pool[j],
                                                f.train[i]);
        }
        benchmark::DoNotOptimize(kstar.row(0));
        benchmark::ClobberMemory();
    }
    setNsPerKernelStar(state);
}
BENCHMARK(BM_KernelStarPerEntry);

/** The same K*, row by row over an axis-major pool (production). */
void
BM_KernelStarRows(benchmark::State &state)
{
    const PoolSolveFixture f;
    linalg::Matrix kstar(PoolSolveFixture::kTrain, PoolSolveFixture::kPool);
    for (auto _ : state) {
        const std::vector<double> pool = surrogate::axisMajor(f.pool);
        for (std::size_t i = 0; i < PoolSolveFixture::kTrain; ++i)
            surrogate::kernelRow(f.params, pool.data(),
                                 PoolSolveFixture::kPool, f.train[i],
                                 kstar.row(i));
        benchmark::DoNotOptimize(kstar.row(0));
        benchmark::ClobberMemory();
    }
    setNsPerKernelStar(state);
}
BENCHMARK(BM_KernelStarRows);

/**
 * One MOBO proposal's EI argmax at the GP cap: n = 256 training points
 * and m = 240 candidates on a discrete 5-axis grid (the shape of a
 * normalized hardware design space). The targets are the sampler's
 * kind: a ParEGO scalarization of three smooth objectives scaled to
 * about [0, 1], with the kernel tuned by fitWithHyperopt(). The full path
 * builds and solves every candidate's exact K* column (predictBatch() +
 * the pool-order scan); the pruned path screens the pool with the
 * error-bounded vector kernel and builds and solves exact columns only
 * for the panels whose EI bound can still win. Both pick the same
 * candidate; CI guards the ns_per_acquire ratio, and exact_kstar_frac
 * reports the share of K* columns the pruned path built exactly.
 */
struct AcquireFixture
{
    static constexpr std::size_t kTrain = 256;
    static constexpr std::size_t kPool = 240;

    AcquireFixture()
    {
        common::Rng rng(11);
        const auto gridPoint = [&rng] {
            static const std::uint64_t levels[] = {8, 8, 6, 5, 4};
            std::vector<double> p;
            for (std::uint64_t l : levels)
                p.push_back(static_cast<double>(rng.uniformInt(l)) /
                            static_cast<double>(l - 1));
            return p;
        };
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        for (std::size_t i = 0; i < kTrain; ++i) {
            x.push_back(gridPoint());
            const auto &p = x.back();
            const double latency = 1.0 + 3.0 * (1.0 - p[0]) +
                                   p[1] * p[3] + 0.5 * std::sin(6.0 * p[2]);
            const double power = 1.0 + 2.0 * p[0] + p[2] + 0.3 * p[4];
            const double area =
                0.5 + p[0] + 0.5 * p[1] + 0.2 * p[3] * p[4];
            y.push_back(moo::parego(
                {latency / 5.5, power / 4.3, area / 2.2}, {0.5, 0.3, 0.2},
                0.2));
        }
        for (std::size_t j = 0; j < kPool; ++j)
            pool.push_back(gridPoint());
        gp.fitWithHyperopt(x, y, kTrain, 1);
        incumbent = *std::min_element(y.begin(), y.end());
    }

    surrogate::GaussianProcess gp;
    std::vector<std::vector<double>> pool;
    double incumbent = 0.0;
};

void
setNsPerAcquire(benchmark::State &state)
{
    state.counters["ns_per_acquire"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/** Every candidate's posterior, then the strict '>' pool-order scan. */
void
BM_AcquireAllColumns(benchmark::State &state)
{
    const AcquireFixture f;
    std::size_t sink = 0;
    for (auto _ : state) {
        const auto preds = f.gp.predictBatch(f.pool);
        double best_ei = -1.0;
        std::size_t best = preds.size();
        for (std::size_t j = 0; j < preds.size(); ++j) {
            const double ei =
                surrogate::expectedImprovement(preds[j], f.incumbent);
            if (ei > best_ei) {
                best_ei = ei;
                best = j;
            }
        }
        sink += best;
    }
    benchmark::DoNotOptimize(sink);
    setNsPerAcquire(state);
}
BENCHMARK(BM_AcquireAllColumns);

/** The bound-pruned argmax the sampler runs (same winner). */
void
BM_AcquirePruned(benchmark::State &state)
{
    const AcquireFixture f;
    std::size_t sink = 0;
    double solved = 0.0;
    for (auto _ : state) {
        const auto best =
            f.gp.argmaxExpectedImprovement(f.pool, f.incumbent);
        sink += best.index.value_or(0);
        solved = static_cast<double>(best.solved);
    }
    benchmark::DoNotOptimize(sink);
    setNsPerAcquire(state);
    state.counters["exact_kstar_frac"] =
        solved / static_cast<double>(AcquireFixture::kPool);
}
BENCHMARK(BM_AcquirePruned);

void
BM_Hypervolume3d(benchmark::State &state)
{
    common::Rng rng(6);
    std::vector<moo::Objectives> pts;
    for (int i = 0; i < state.range(0); ++i)
        pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    const moo::Objectives ref = {1.1, 1.1, 1.1};
    for (auto _ : state)
        benchmark::DoNotOptimize(moo::hypervolume(pts, ref));
}
BENCHMARK(BM_Hypervolume3d)->Arg(8)->Arg(32);

void
BM_ModelZooBuild(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(workload::makeResNet().totalMacs());
    }
}
BENCHMARK(BM_ModelZooBuild);

/**
 * End-to-end spatial co-search on the Fig. 9 training workload,
 * exact-only vs surrogate-screened (keep = 0.25). Counters carry the
 * acceptance metrics into BENCH_micro.json: cold exact evaluations
 * (= evaluation-cache insertions — every unique mapping that reached
 * the exact model), screening decision totals, and the final
 * constrained front's hypervolume in fixed log10 coordinates. The
 * fixed log-domain reference makes the hypervolume comparable across
 * the two registrations without shared min-max bounds.
 */
void
surrogateCoSearch(benchmark::State &state, bool screened)
{
    double cold_evals = 0.0;
    double hv = 0.0;
    surrogate::SurrogateStats sstats;
    for (auto _ : state) {
        std::vector<workload::Network> nets;
        for (const char *name :
             {"mobilenet_v2", "resnet", "srgan", "vgg"})
            nets.push_back(workload::makeNetwork(name));
        accel::EvalCache cache(64 * 1024 * 1024);
        common::CorpusTap tap;
        surrogate::SurrogateContext ctx;
        ctx.options.enabled = screened;
        ctx.options.keep = 0.25;
        ctx.tap = &tap;
        core::BackendOptions env_opt;
        env_opt.scenario = accel::Scenario::Edge;
        env_opt.maxShapesPerNetwork = 2;
        env_opt.cache = &cache;
        env_opt.surrogate = &ctx;
        auto env =
            core::makeBackendEnv("spatial", std::move(nets), env_opt);
        core::DriverConfig cfg = core::DriverConfig::unico();
        cfg.batchSize = 6;
        cfg.maxIter = 3;
        cfg.sh.bMax = 240;
        cfg.minBudgetPerRound = 8;
        cfg.workers = 1;
        cfg.seed = 9;
        core::CoOptimizer driver(*env, cfg);
        const core::CoSearchResult result = driver.run();
        cold_evals = static_cast<double>(cache.stats().insertions);
        sstats = result.surrogateStats;
        std::vector<moo::Objectives> pts;
        pts.reserve(result.front.size());
        std::size_t dims = 3;
        for (const auto &entry : result.front.entries()) {
            moo::Objectives z;
            z.reserve(entry.objectives.size());
            for (double v : entry.objectives)
                z.push_back(std::log10(1.0 + std::max(v, 0.0)));
            dims = z.size();
            pts.push_back(std::move(z));
        }
        hv = moo::hypervolume(pts, moo::Objectives(dims, 9.0));
    }
    state.counters["cold_exact_evals"] = cold_evals;
    state.counters["screen_candidates"] =
        static_cast<double>(sstats.candidates);
    state.counters["screened_out"] =
        static_cast<double>(sstats.screenedOut);
    state.counters["admitted"] = static_cast<double>(sstats.admitted);
    state.counters["forced_admits"] =
        static_cast<double>(sstats.forcedAdmits);
    state.counters["surrogate_refits"] =
        static_cast<double>(sstats.refits);
    state.counters["hypervolume_log10"] = hv;
}

void
BM_CoSearchExactOnly(benchmark::State &state)
{
    surrogateCoSearch(state, false);
}
BENCHMARK(BM_CoSearchExactOnly)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void
BM_CoSearchSurrogateScreened(benchmark::State &state)
{
    surrogateCoSearch(state, true);
}
BENCHMARK(BM_CoSearchSurrogateScreened)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

/**
 * Like BENCHMARK_MAIN(), but additionally writes the machine-readable
 * BENCH_micro.json (google-benchmark JSON schema) into the working
 * directory unless the caller passed an explicit --benchmark_out;
 * CI runs the micro subset and uploads that file as an artifact.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0)
            has_out = true;
    static char out_flag[] = "--benchmark_out=BENCH_micro.json";
    static char fmt_flag[] = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag);
        args.push_back(fmt_flag);
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
