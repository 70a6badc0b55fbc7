/**
 * @file
 * RunSpec: one run of Algorithm 1 as a value. co_search_cli reads it
 * from argv (cli::runSpecFromArgs), the job server from JSON
 * (runSpecFromJson), and both accept it through one validate(): the
 * member initializers are the only place its defaults are written and
 * validate() the only place its range checks live, so a job document
 * is accepted iff the equivalent command line is. The helpers at the
 * end turn a valid spec into a run for the CLI, the job manager and
 * the benches alike.
 */

#ifndef UNICO_CORE_RUN_SPEC_HH
#define UNICO_CORE_RUN_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/json.hh"
#include "core/backend.hh"
#include "core/driver.hh"
#include "surrogate/learned_model.hh"
#include "workload/network.hh"

namespace unico::core {

/**
 * Declarative description of one co-search. forEachField() below
 * names each field on the command line and in JSON.
 */
struct RunSpec
{
    std::string name;                   ///< display label (JSON only)
    std::vector<std::string> models;    ///< zoo model names
    std::vector<std::string> workloads; ///< workload file paths
    std::string backend = "spatial";
    std::string scenario; ///< empty = backend default
    std::string engine;   ///< empty = backend default
    std::optional<double> areaBudgetMm2;   ///< unset = backend default
    std::optional<std::int64_t> maxShapes; ///< unset = backend default
    std::string algo = "unico"; ///< unico|hasco|mobohb|nsga2|sh|msh
    int batch = 20;             ///< N
    int iters = 8;              ///< MaxIter
    int bmax = 200;             ///< b_max
    std::uint64_t seed = DriverConfig{}.seed;
    std::size_t threads = DriverConfig{}.realThreads;
    std::string checkpoint; ///< empty = checkpointing disabled
    bool resume = false;
    int checkpointEvery = DriverConfig{}.checkpointEvery;
    int checkpointKeep = DriverConfig{}.checkpointKeep;
    std::string csvPrefix; ///< empty = no CSVs
    double faultRate = 0.0;
    double hangRate = 0.0;
    double corruptRate = 0.0;
    std::uint64_t faultSeed = 7;
    /** > 0 enables learned surrogate screening with this keep
     *  fraction (byte-neutral by contract). */
    double surrogateKeep = 0.0;

    bool operator==(const RunSpec &) const = default;
};

/**
 * Calls @p visit(json_name, flag, member) for every RunSpec field:
 * the one list runSpecFromJson(), toJson() and cli::runSpecFromArgs()
 * read, so the two faces cannot drift apart. @p flag (without "--")
 * is nullptr for the fields the command line sets otherwise: name
 * (JSON only) and surrogate_keep (--surrogate / --surrogate-keep /
 * --no-surrogate).
 */
template <typename Spec, typename Visit>
void
forEachField(Spec &spec, Visit &&visit)
{
    visit("name", nullptr, spec.name);
    visit("models", "model", spec.models);
    visit("workloads", "workload", spec.workloads);
    visit("backend", "backend", spec.backend);
    visit("scenario", "scenario", spec.scenario);
    visit("engine", "engine", spec.engine);
    visit("area_budget", "area-budget", spec.areaBudgetMm2);
    visit("max_shapes", "max-shapes", spec.maxShapes);
    visit("algo", "algo", spec.algo);
    visit("batch", "batch", spec.batch);
    visit("iters", "iters", spec.iters);
    visit("bmax", "bmax", spec.bmax);
    visit("seed", "seed", spec.seed);
    visit("threads", "threads", spec.threads);
    visit("checkpoint", "checkpoint", spec.checkpoint);
    visit("resume", "resume", spec.resume);
    visit("checkpoint_every", "checkpoint-every", spec.checkpointEvery);
    visit("checkpoint_keep", "checkpoint-keep", spec.checkpointKeep);
    visit("csv_prefix", "csv-prefix", spec.csvPrefix);
    visit("fault_rate", "fault-rate", spec.faultRate);
    visit("hang_rate", "hang-rate", spec.hangRate);
    visit("corrupt_rate", "corrupt-rate", spec.corruptRate);
    visit("fault_seed", "fault-seed", spec.faultSeed);
    visit("surrogate_keep", nullptr, spec.surrogateKeep);
}

/** Parse a spec from a JSON job document; throws std::runtime_error
 *  with a field-naming message on malformed input or an unknown
 *  field. "models"/"workloads" (also "model"/"workload") take a
 *  string or an array of strings and add up. Does not validate(). */
RunSpec runSpecFromJson(const common::Json &doc);

/** Every field of @p spec (unset optionals omitted); round-trips
 *  through runSpecFromJson(). */
common::Json toJson(const RunSpec &spec);

/** First reason @p spec cannot run, or empty when it can. */
std::string validate(const RunSpec &spec);

/** The spec's networks: every model, then every workload file.
 *  Throws on an unknown model or an unreadable workload file. */
std::vector<workload::Network> buildNetworks(const RunSpec &spec);

/** The spec's per-backend options (scenario / engine / area budget /
 *  max shapes). Throws BackendError for an unknown backend, a
 *  malformed value, or a field the chosen backend does not support. */
BackendOptions backendOptions(const RunSpec &spec);

/** The algorithm preset with the spec's N / MaxIter / b_max, seed,
 *  threads and checkpoint settings. Throws for nsga2, which is not a
 *  DriverConfig preset. */
DriverConfig driverConfig(const RunSpec &spec);

/** The spec's fault-injection rates and seed. */
common::FaultSpec faultSpec(const RunSpec &spec);

/** Surrogate screening on iff surrogateKeep > 0, at that keep. */
surrogate::SurrogateOptions surrogateOptions(const RunSpec &spec);

} // namespace unico::core

#endif // UNICO_CORE_RUN_SPEC_HH
