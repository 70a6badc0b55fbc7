#include "core/run_spec.hh"

#include <stdexcept>
#include <type_traits>
#include <utility>

#include "workload/model_zoo.hh"
#include "workload/parser.hh"

namespace unico::core {

namespace {

/** Read one RunSpec member from its JSON value. Integers must be
 *  integral (2.5 is as malformed as --batch 2.5); int members must
 *  fit; unsigned members take the two's-complement bits, as argv. */
template <typename T>
void
read(const common::Json &v, T &out)
{
    if constexpr (requires { out.has_value(); }) {
        read(v, out.emplace());
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
        if (v.isString())
            out.push_back(v.asString());
        else
            for (std::size_t i = 0; i < v.size(); ++i)
                out.push_back(v.at(i).asString());
    } else if constexpr (std::is_same_v<T, std::string>) {
        out = v.asString();
    } else if constexpr (std::is_same_v<T, bool>) {
        out = v.asBool();
    } else if constexpr (std::is_floating_point_v<T>) {
        out = v.asDouble();
    } else {
        const std::int64_t i = v.asInt();
        if (static_cast<double>(i) != v.asDouble())
            throw std::runtime_error("expected an integer");
        if (std::is_same_v<T, int> && !std::in_range<int>(i))
            throw std::runtime_error("out of range");
        out = static_cast<T>(i);
    }
}

/** The JSON value of one RunSpec member (seeds as int64, the bits
 *  read() restores). */
template <typename T>
common::Json
toJsonValue(const T &v)
{
    if constexpr (std::is_same_v<T, std::vector<std::string>>) {
        common::Json array = common::Json::array();
        for (const auto &s : v)
            array.push(s);
        return array;
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        return static_cast<std::int64_t>(v);
    } else {
        return v;
    }
}

} // namespace

RunSpec
runSpecFromJson(const common::Json &doc)
{
    if (!doc.isObject())
        throw std::runtime_error("job spec must be a JSON object");
    RunSpec spec;
    for (const auto &[key, value] : doc.members()) {
        const std::string field = key == "model"      ? "models"
                                  : key == "workload" ? "workloads"
                                                      : key;
        bool known = false;
        try {
            forEachField(spec, [&](const char *name, const char *,
                                   auto &member) {
                if (field == name) {
                    read(value, member);
                    known = true;
                }
            });
            if (!known)
                throw std::runtime_error("unknown field");
        } catch (const std::exception &e) {
            throw std::runtime_error("job-spec field '" + key +
                                     "': " + e.what());
        }
    }
    return spec;
}

common::Json
toJson(const RunSpec &spec)
{
    common::Json doc = common::Json::object();
    forEachField(spec, [&](const char *name, const char *,
                           const auto &member) {
        if constexpr (requires { member.has_value(); }) {
            if (member)
                doc[name] = toJsonValue(*member);
        } else {
            doc[name] = toJsonValue(member);
        }
    });
    return doc;
}

std::string
validate(const RunSpec &spec)
{
    auto unit = [](double v) { return v >= 0.0 && v <= 1.0; }; // NaN: no
    if (spec.models.empty() && spec.workloads.empty())
        return "spec needs at least one model or workload";
    if (spec.batch < 1 || spec.iters < 1 || spec.bmax < 1)
        return "batch, iters and bmax must be >= 1";
    if (spec.threads < 1 || spec.threads > 256)
        return "threads must be 1..256";
    if (spec.resume && spec.checkpoint.empty())
        return "resume requires a checkpoint path";
    if (spec.checkpointEvery < 1 || spec.checkpointKeep < 1)
        return "checkpoint_every and checkpoint_keep must be >= 1";
    if (!unit(spec.surrogateKeep))
        return "surrogate_keep must be in [0, 1]";
    if (!unit(spec.faultRate) || !unit(spec.hangRate) ||
        !unit(spec.corruptRate))
        return "fault rates must be in [0, 1]";
    try {
        if (spec.algo != "nsga2")
            driverConfigForAlgo(spec.algo);
        backendOptions(spec);
    } catch (const std::exception &e) {
        return e.what();
    }
    return {};
}

std::vector<workload::Network>
buildNetworks(const RunSpec &spec)
{
    std::vector<workload::Network> nets;
    for (const auto &model : spec.models)
        nets.push_back(workload::makeNetwork(model));
    for (const auto &file : spec.workloads)
        nets.push_back(workload::parseNetworkFile(file));
    return nets;
}

BackendOptions
backendOptions(const RunSpec &spec)
{
    backendInfo(spec.backend); // unknown backend: BackendError
    auto foreign = [&](bool given, const char *flag) {
        if (given)
            throw BackendError("backend '" + spec.backend +
                               "' does not support --" + flag);
    };
    BackendOptions opt;
    if (spec.maxShapes) {
        if (*spec.maxShapes <= 0)
            throw BackendError("--max-shapes must be positive");
        opt.maxShapesPerNetwork = static_cast<std::size_t>(*spec.maxShapes);
    }
    if (spec.backend == "spatial") {
        foreign(spec.areaBudgetMm2.has_value(), "area-budget");
        if (spec.scenario == "cloud")
            opt.scenario = accel::Scenario::Cloud;
        else if (!spec.scenario.empty() && spec.scenario != "edge")
            throw BackendError("unknown scenario '" + spec.scenario +
                               "' (expected edge|cloud)");
        if (spec.engine == "random")
            opt.engine = mapping::EngineKind::Random;
        else if (spec.engine == "genetic")
            opt.engine = mapping::EngineKind::Genetic;
        else if (!spec.engine.empty() && spec.engine != "annealing")
            throw BackendError("unknown engine '" + spec.engine +
                               "' (expected random|annealing|genetic)");
    } else {
        foreign(!spec.scenario.empty(), "scenario");
        foreign(!spec.engine.empty(), "engine");
        if (spec.areaBudgetMm2) {
            if (!(*spec.areaBudgetMm2 > 0.0))
                throw BackendError("--area-budget must be positive");
            opt.areaBudgetMm2 = *spec.areaBudgetMm2;
        }
    }
    return opt;
}

DriverConfig
driverConfig(const RunSpec &spec)
{
    DriverConfig cfg = driverConfigForAlgo(spec.algo);
    cfg.batchSize = spec.batch;
    cfg.maxIter = spec.iters;
    cfg.sh.bMax = spec.bmax;
    cfg.realThreads = spec.threads;
    cfg.seed = spec.seed;
    cfg.checkpointPath = spec.checkpoint;
    cfg.resumeFromCheckpoint = spec.resume;
    cfg.checkpointEvery = spec.checkpointEvery;
    cfg.checkpointKeep = spec.checkpointKeep;
    return cfg;
}

common::FaultSpec
faultSpec(const RunSpec &spec)
{
    common::FaultSpec fault;
    fault.transientRate = spec.faultRate;
    fault.hangRate = spec.hangRate;
    fault.corruptRate = spec.corruptRate;
    fault.seed = spec.faultSeed;
    return fault;
}

surrogate::SurrogateOptions
surrogateOptions(const RunSpec &spec)
{
    surrogate::SurrogateOptions opt;
    opt.enabled = spec.surrogateKeep > 0.0;
    if (opt.enabled)
        opt.keep = spec.surrogateKeep;
    return opt;
}

} // namespace unico::core
