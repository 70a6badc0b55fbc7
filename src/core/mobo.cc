#include "core/mobo.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>

#include "moo/scalarize.hh"

namespace unico::core {

namespace {

bool
allFinite(const moo::Objectives &y)
{
    return std::all_of(y.begin(), y.end(),
                       [](double v) { return std::isfinite(v); });
}

} // namespace

MoboHwSampler::MoboHwSampler(const accel::DesignSpace &space,
                             std::size_t num_objectives,
                             std::uint64_t seed, MoboConfig cfg)
    : space_(space),
      numObjectives_(num_objectives),
      cfg_(cfg),
      rng_(seed)
{
    assert(num_objectives > 0);
}

void
MoboHwSampler::observe(const accel::HwPoint &h, const moo::Objectives &y,
                       bool high_fidelity)
{
    assert(y.size() == numObjectives_);
    Obs obs;
    obs.h = h;
    obs.x = space_.normalize(h);
    obs.y = y;
    obs.highFidelity = high_fidelity;
    all_.push_back(std::move(obs));
    seenKeys_.insert(h);

    if (!allFinite(y))
        return;
    if (ideal_.empty()) {
        ideal_ = y;
        nadir_ = y;
    } else {
        for (std::size_t i = 0; i < y.size(); ++i) {
            ideal_[i] = std::min(ideal_[i], y[i]);
            nadir_[i] = std::max(nadir_[i], y[i]);
        }
    }
}

void
MoboHwSampler::setHighFidelity(std::size_t index, bool high_fidelity)
{
    assert(index < all_.size());
    all_[index].highFidelity = high_fidelity;
}

std::size_t
MoboHwSampler::highFidelityCount() const
{
    std::size_t count = 0;
    for (const auto &obs : all_)
        if (obs.highFidelity)
            ++count;
    return count;
}

moo::Objectives
MoboHwSampler::normalize(const moo::Objectives &y) const
{
    if (ideal_.empty())
        return moo::Objectives(y.size(), 0.0);
    return moo::normalizeObjectives(y, ideal_, nadir_);
}

/**
 * Surrogate state shared by the proposals of one batch: the
 * high-fidelity training set (rows with finite objectives) and the
 * fitted GP. The training window and the kernel parameters do not
 * depend on the ParEGO weights, so the Cholesky factor is the same
 * for every proposal of the batch;
 * once one proposal has fitted it, the rest only re-solve for their
 * own scalarized targets. Lives on sampleBatch()'s stack, so nothing
 * of it reaches a checkpoint.
 */
struct MoboHwSampler::BatchModel
{
    std::vector<const Obs *> hf;
    std::vector<std::vector<double>> x;
    surrogate::GaussianProcess gp;
};

accel::HwPoint
MoboHwSampler::proposeOne(BatchModel &model,
                          const std::set<accel::HwPoint> &batch_keys)
{
    const std::vector<const Obs *> &hf = model.hf;
    if (hf.size() < 4) {
        // Cold start: explore randomly.
        return space_.randomPoint(rng_);
    }

    // ParEGO: scalarize the high-fidelity targets under a fresh
    // random weight vector, then fit a single-output GP.
    const auto w = moo::randomSimplexWeights(numObjectives_, rng_);
    std::vector<double> s;
    s.reserve(hf.size());
    for (const Obs *obs : hf)
        s.push_back(moo::parego(normalize(obs->y), w, cfg_.rho));

    surrogate::GaussianProcess &gp = model.gp;
    if (gp.trained()) {
        // Same factor as a fresh fit() at kernelParams_ (which the
        // tuning fit below installed or which fit() built): only α
        // and the LML change with the weights.
        gp.refitTargets(s, cfg_.maxGpPoints);
    } else {
        gp = surrogate::GaussianProcess(kernelParams_);
        if (!kernelTuned_) {
            if (cfg_.useArd)
                gp.fitArd(model.x, s, cfg_.maxGpPoints, 2, cfg_.gpThreads);
            else
                gp.fitWithHyperopt(model.x, s, cfg_.maxGpPoints,
                                   cfg_.gpThreads);
            // A search whose every LML is NaN (non-finite targets)
            // leaves the default kernel in place; keep it untuned so
            // a later batch searches again.
            if (gp.trained() &&
                std::isfinite(gp.logMarginalLikelihood())) {
                kernelParams_ = gp.params();
                kernelTuned_ = true;
            }
        } else {
            gp.fit(model.x, s, cfg_.maxGpPoints);
        }
    }
    // Graceful degradation: a failed fit (Cholesky jitter ladder
    // exhausted on an ill-conditioned kernel matrix) or a non-finite
    // posterior (NaN targets) falls back to space-filling proposal
    // for this slot instead of aborting the whole trial. An untrained
    // GP is fitted again by the next slot.
    if (!gp.trained() ||
        !std::isfinite(gp.logMarginalLikelihood())) {
        ++gpFallbacks_;
        return space_.randomPoint(rng_);
    }
    const double incumbent = *std::min_element(s.begin(), s.end());

    // Candidate pool: uniform random plus mutations of the elite.
    std::vector<accel::HwPoint> pool;
    pool.reserve(cfg_.candidatePool + cfg_.eliteMutants);
    for (std::size_t i = 0; i < cfg_.candidatePool; ++i)
        pool.push_back(space_.randomPoint(rng_));
    const auto order = [&] {
        std::vector<std::size_t> idx(hf.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::sort(idx.begin(), idx.end(),
                  [&](std::size_t a, std::size_t b) { return s[a] < s[b]; });
        return idx;
    }();
    const std::size_t elites = std::min<std::size_t>(8, order.size());
    for (std::size_t i = 0; i < cfg_.eliteMutants; ++i) {
        const Obs *elite = hf[order[i % elites]];
        pool.push_back(space_.neighbor(elite->h, rng_, 2));
    }

    // Expected-improvement maximization over the pool, skipping
    // configurations already evaluated or already in this batch.
    // Duplicate pool entries are scored once: the first maximum in
    // pool order wins, so a repeat could never win anyway. The GP
    // returns that first maximum, solving only the candidates whose
    // EI bound can still reach it.
    std::set<accel::HwPoint> scored;
    std::vector<const accel::HwPoint *> cands;
    std::vector<std::vector<double>> xs;
    cands.reserve(pool.size());
    xs.reserve(pool.size());
    for (const auto &cand : pool) {
        if (batch_keys.count(cand) || seenKeys_.count(cand))
            continue;
        if (!scored.insert(cand).second)
            continue;
        cands.push_back(&cand);
        xs.push_back(space_.normalize(cand));
    }
    const surrogate::EiArgmax best =
        gp.argmaxExpectedImprovement(xs, incumbent);
    if (!best.index)
        return space_.randomPoint(rng_);
    return *cands[*best.index];
}

std::vector<accel::HwPoint>
MoboHwSampler::sampleBatch(std::size_t n)
{
    const auto start = std::chrono::steady_clock::now();
    BatchModel model;
    // A non-finite objective would make every ParEGO target of the
    // window NaN, so such rows stay out of the training set.
    for (const auto &obs : all_) {
        if (obs.highFidelity && allFinite(obs.y)) {
            model.hf.push_back(&obs);
            model.x.push_back(obs.x);
        }
    }
    std::vector<accel::HwPoint> batch;
    std::set<accel::HwPoint> batch_keys;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        accel::HwPoint h = rng_.bernoulli(cfg_.randomFraction)
                               ? space_.randomPoint(rng_)
                               : proposeOne(model, batch_keys);
        // Retry a few times to keep the batch diverse; accept
        // duplicates only as a last resort (tiny spaces).
        for (int attempt = 0; attempt < 16 && batch_keys.count(h);
             ++attempt)
            h = space_.randomPoint(rng_);
        batch_keys.insert(h);
        batch.push_back(std::move(h));
    }
    overheadSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return batch;
}

common::Json
MoboHwSampler::saveState() const
{
    common::Json state = common::Json::object();

    common::Json rng = common::Json::array();
    const auto rs = rng_.saveState();
    for (int i = 0; i < 4; ++i)
        rng.push(common::hexU64(rs.s[i]));
    state["rng"] = std::move(rng);
    state["rngHasGaussian"] = rs.hasCachedGaussian;
    state["rngGaussian"] = rs.cachedGaussian;

    state["kernelTuned"] = kernelTuned_;
    common::Json kernel = common::Json::object();
    kernel["kind"] = static_cast<int>(kernelParams_.kind);
    kernel["lengthscale"] = kernelParams_.lengthscale;
    kernel["variance"] = kernelParams_.variance;
    kernel["noise"] = kernelParams_.noise;
    common::Json ard = common::Json::array();
    for (double l : kernelParams_.ardLengthscales)
        ard.push(l);
    kernel["ard"] = std::move(ard);
    state["kernel"] = std::move(kernel);

    common::Json obs = common::Json::array();
    for (const auto &o : all_) {
        common::Json entry = common::Json::object();
        common::Json h = common::Json::array();
        for (std::size_t axis : o.h)
            h.push(axis);
        entry["h"] = std::move(h);
        common::Json y = common::Json::array();
        for (double v : o.y)
            y.push(v);
        entry["y"] = std::move(y);
        entry["hf"] = o.highFidelity;
        obs.push(std::move(entry));
    }
    state["observations"] = std::move(obs);
    return state;
}

void
MoboHwSampler::restoreState(const common::Json &state)
{
    all_.clear();
    seenKeys_.clear();
    ideal_.clear();
    nadir_.clear();

    // Replaying observe() rebuilds every derived field (normalized
    // embeddings, dedup keys, running ideal/nadir) exactly.
    const common::Json &obs = state.at("observations");
    for (std::size_t i = 0; i < obs.size(); ++i) {
        const common::Json &entry = obs.at(i);
        accel::HwPoint h;
        const common::Json &hj = entry.at("h");
        for (std::size_t a = 0; a < hj.size(); ++a)
            h.push_back(static_cast<std::size_t>(hj.at(a).asInt()));
        moo::Objectives y;
        const common::Json &yj = entry.at("y");
        for (std::size_t a = 0; a < yj.size(); ++a)
            y.push_back(yj.at(a).asDouble());
        observe(h, y, entry.at("hf").asBool());
    }

    common::Rng::State rs;
    const common::Json &rng = state.at("rng");
    for (int i = 0; i < 4; ++i)
        rs.s[i] = common::parseHexU64(rng.at(i).asString());
    rs.hasCachedGaussian = state.at("rngHasGaussian").asBool();
    rs.cachedGaussian = state.at("rngGaussian").asDouble();
    rng_.restoreState(rs);

    kernelTuned_ = state.at("kernelTuned").asBool();
    const common::Json &kernel = state.at("kernel");
    kernelParams_.kind = static_cast<surrogate::KernelKind>(
        kernel.at("kind").asInt());
    kernelParams_.lengthscale = kernel.at("lengthscale").asDouble();
    kernelParams_.variance = kernel.at("variance").asDouble();
    kernelParams_.noise = kernel.at("noise").asDouble();
    kernelParams_.ardLengthscales.clear();
    const common::Json &ard = kernel.at("ard");
    for (std::size_t i = 0; i < ard.size(); ++i)
        kernelParams_.ardLengthscales.push_back(ard.at(i).asDouble());
}

} // namespace unico::core
