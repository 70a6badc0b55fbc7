#include "core/spatial_env.hh"

#include <cassert>

#include "common/thread_pool.hh"
#include "core/layered_run.hh"

namespace unico::core {

namespace {

/**
 * Spatial backend binding for the shared layered run: per-layer
 * searches come from the FlexTensor/GAMMA-style engines over the
 * analytical model, and every evaluation charges the model's fixed
 * nominal seconds (the shared core applies the charge after each
 * layer step, preserving the historical charging order).
 */
class SpatialRunPolicy final : public LayeredRunPolicy
{
  public:
    SpatialRunPolicy(const std::vector<workload::WeightedOp> &layers,
                     const std::vector<mapping::MappingSpace> &spaces,
                     const costmodel::AnalyticalCostModel &model,
                     accel::SpatialHwConfig hw,
                     mapping::EngineKind engine, accel::EvalCache *cache,
                     surrogate::SurrogateContext *surrogate,
                     common::ThreadPool *evalPool)
        : layers_(layers), spaces_(spaces), model_(model), hw_(hw),
          engine_(engine), cache_(cache), surrogate_(surrogate),
          evalPool_(evalPool), screens_(layers.size()),
          preps_(layers.size())
    {
    }

    std::unique_ptr<LayerSearch>
    startLayer(std::size_t layer, std::uint64_t seed) override
    {
        const workload::TensorOp &op = layers_[layer].op;
        // Candidate-invariant query context, built once per layer and
        // amortized over every mapping candidate (and reused when
        // successive halving re-steps this layer).
        if (preps_[layer] == nullptr)
            preps_[layer] =
                std::make_unique<costmodel::PreparedSpatialQuery>(
                    model_.prepare(op, hw_));
        const costmodel::PreparedSpatialQuery &prep = *preps_[layer];
        auto evaluator = [this, &prep](const mapping::Mapping &m) {
            const accel::Ppa ppa = model_.evaluate(prep, m);
            mapping::MappingEval eval;
            eval.ppa = ppa;
            eval.loss = ppa.feasible ? ppa.latencyMs : 1e12;
            return eval;
        };
        // Layering: screening above caching above the model. The
        // cache sits below the fault-injection wrappers (they
        // decorate MappingRun, not the evaluator), so only clean
        // model outputs are ever stored; the screen sits above the
        // cache so screened-out candidates never touch it. One screen
        // per layer, trained only on this run's exact evals (makes
        // threaded runs byte-identical).
        if (screens_[layer] == nullptr)
            screens_[layer] = surrogate::makeSpatialScreen(
                surrogate_, op, hw_, prep.context);
        const double seconds =
            costmodel::AnalyticalCostModel::nominalEvalSeconds();
        mapping::MappingEvaluator cached = mapping::cachingEvaluator(
            cache_, prep.context, evaluator, seconds);
        // Batched twin of the same stack: misses of one block fan
        // across the shared pool, byte-identical to the serial path.
        // With a screen active the batch serializes (the screen
        // trains on each exact result in order).
        mapping::BatchMappingEvaluator batch;
        if (evalPool_ != nullptr)
            batch = mapping::screeningBatchEvaluator(
                screens_[layer].get(), cached,
                mapping::cachingBatchEvaluator(
                    cache_, prep.context,
                    mapping::parallelBatch(evaluator, evalPool_),
                    seconds));
        return std::make_unique<LayerSearchAdapter<mapping::SearchRun>>(
            mapping::startSearch(
                engine_, spaces_[layer],
                mapping::screeningEvaluator(screens_[layer].get(),
                                            std::move(cached)),
                seed, std::move(batch)));
    }

    double
    fixedEvalSeconds() const override
    {
        return costmodel::AnalyticalCostModel::nominalEvalSeconds();
    }

    double areaMm2() const override { return model_.areaMm2(hw_); }

  private:
    const std::vector<workload::WeightedOp> &layers_;
    const std::vector<mapping::MappingSpace> &spaces_;
    const costmodel::AnalyticalCostModel &model_;
    accel::SpatialHwConfig hw_;
    mapping::EngineKind engine_;
    accel::EvalCache *cache_;
    surrogate::SurrogateContext *surrogate_;
    common::ThreadPool *evalPool_;
    std::vector<std::unique_ptr<mapping::CandidateScreen>> screens_;
    std::vector<std::unique_ptr<costmodel::PreparedSpatialQuery>> preps_;
};

} // namespace

SpatialEnv::SpatialEnv(std::vector<workload::Network> networks,
                       SpatialEnvOptions opt)
    : opt_(opt), space_(opt.scenario), model_(opt.tech),
      layers_(collectDominantLayers(networks, opt.maxShapesPerNetwork))
{
    assert(!networks.empty());
    mapSpaces_.reserve(layers_.size());
    for (const auto &wop : layers_)
        mapSpaces_.emplace_back(wop.op);
}

const accel::DesignSpace &
SpatialEnv::hwSpace() const
{
    return space_.space();
}

std::unique_ptr<MappingRun>
SpatialEnv::createRun(const accel::HwPoint &h, std::uint64_t seed) const
{
    return std::make_unique<LayeredMappingRun>(
        layers_,
        std::make_unique<SpatialRunPolicy>(layers_, mapSpaces_, model_,
                                           space_.decode(h), opt_.engine,
                                           opt_.cache, opt_.surrogate,
                                           opt_.evalPool),
        seed, opt_.cancel);
}

double
SpatialEnv::powerBudgetMw() const
{
    return accel::powerBudgetMw(opt_.scenario);
}

std::string
SpatialEnv::describeHw(const accel::HwPoint &h) const
{
    return space_.decode(h).describe();
}

std::string
SpatialEnv::scenarioName() const
{
    return toString(opt_.scenario);
}

std::uint64_t
SpatialEnv::workloadDigest() const
{
    return layersDigest(layers_);
}

} // namespace unico::core
