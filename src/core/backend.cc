#include "core/backend.hh"

#include <sstream>

#include "core/ascend_env.hh"
#include "core/spatial_env.hh"

namespace unico::core {

namespace {

std::unique_ptr<CoSearchEnv>
makeSpatial(std::vector<workload::Network> networks,
            const BackendOptions &opt)
{
    SpatialEnvOptions env_opt;
    env_opt.scenario = opt.scenario;
    env_opt.engine = opt.engine;
    env_opt.maxShapesPerNetwork = opt.maxShapesPerNetwork;
    env_opt.cache = opt.cache;
    env_opt.surrogate = opt.surrogate;
    env_opt.evalPool = opt.evalPool;
    env_opt.cancel = opt.cancel;
    return std::make_unique<SpatialEnv>(std::move(networks), env_opt);
}

std::unique_ptr<CoSearchEnv>
makeAscend(std::vector<workload::Network> networks,
           const BackendOptions &opt)
{
    AscendEnvOptions env_opt;
    env_opt.areaBudgetMm2 = opt.areaBudgetMm2;
    env_opt.maxShapesPerNetwork = opt.maxShapesPerNetwork;
    env_opt.cache = opt.cache;
    env_opt.surrogate = opt.surrogate;
    env_opt.cancel = opt.cancel;
    return std::make_unique<AscendEnv>(std::move(networks), env_opt);
}

/** The built-in backends, sorted by name. */
constexpr BackendInfo kBackends[] = {
    {"ascend", "Ascend-like cube core + cycle-level simulator", makeAscend},
    {"spatial", "spatial template + analytical (MAESTRO-style) cost model",
     makeSpatial},
};

} // namespace

std::vector<std::string>
backendNames()
{
    std::vector<std::string> names;
    for (const BackendInfo &info : kBackends)
        names.emplace_back(info.name);
    return names;
}

const BackendInfo &
backendInfo(const std::string &name)
{
    for (const BackendInfo &info : kBackends)
        if (info.name == name)
            return info;
    std::ostringstream oss;
    oss << "unknown backend '" << name << "' (known:";
    for (const BackendInfo &info : kBackends)
        oss << " " << info.name;
    oss << ")";
    throw BackendError(oss.str());
}

std::unique_ptr<CoSearchEnv>
makeBackendEnv(const std::string &name,
               std::vector<workload::Network> networks,
               const BackendOptions &opt)
{
    return backendInfo(name).factory(std::move(networks), opt);
}

} // namespace unico::core
