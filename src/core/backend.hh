/**
 * @file
 * Backend table: the evaluation stacks (platform binding = HW design
 * space + mapping search + PPA engine) every tool constructs by name.
 *
 * The CLI, the job server, every bench binary and the tests select
 * their platform here ("spatial", "ascend"). Which per-backend
 * options a backend accepts is decided from a RunSpec by
 * core::backendOptions() (core/run_spec.hh).
 */

#ifndef UNICO_CORE_BACKEND_HH
#define UNICO_CORE_BACKEND_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "accel/ppa.hh"
#include "accel/spatial.hh"
#include "common/cancel.hh"
#include "core/env.hh"
#include "mapping/engine.hh"
#include "workload/network.hh"

namespace unico::common {
class ThreadPool;
} // namespace unico::common

namespace unico::core {

/** Typed failure of backend lookup or of a backend option. */
class BackendError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Backend-agnostic construction options. Each backend consumes the
 * fields it understands; core::backendOptions() rejects a spec field
 * a backend would silently ignore.
 */
struct BackendOptions
{
    /** Power scenario (spatial backend). */
    accel::Scenario scenario = accel::Scenario::Edge;
    /** Mapping-search engine family (spatial backend). */
    mapping::EngineKind engine = mapping::EngineKind::Annealing;
    /** Chip area envelope in mm^2 (ascend backend). */
    double areaBudgetMm2 = 200.0;
    /** Dominant unique layer shapes kept per network. */
    std::size_t maxShapesPerNetwork = 5;
    /** Shared evaluation cache; nullptr disables memoization. */
    accel::EvalCache *cache = nullptr;
    /** Learned surrogate screening context; nullptr (or a disabled
     *  context) keeps the exact-only byte-identical path. */
    surrogate::SurrogateContext *surrogate = nullptr;
    /** Shared cold-evaluation pool; non-null asks backends that
     *  support it (spatial) to batch evaluation-independent candidate
     *  blocks across it. Trajectories stay byte-identical to serial.
     *  Must differ from any pool whose jobs construct or step runs
     *  of the resulting env (nested-wait deadlock). */
    common::ThreadPool *evalPool = nullptr;
    /** Per-job cancellation token; forwarded into the env so every
     *  MappingRun it creates can return early once the owning job is
     *  cancelled. nullptr = non-cancellable runs (historical
     *  behavior, and bit-identical trajectories either way). */
    const common::CancelToken *cancel = nullptr;
};

/** One built-in backend. */
struct BackendInfo
{
    std::string_view name;
    std::string_view description; ///< one-line summary for --help
    std::unique_ptr<CoSearchEnv> (*factory)(
        std::vector<workload::Network> networks, const BackendOptions &opt);
};

/** All backend names, sorted. */
std::vector<std::string> backendNames();

/** Lookup; throws BackendError (listing known names) when absent. */
const BackendInfo &backendInfo(const std::string &name);

/** Construct backend @p name over @p networks. */
std::unique_ptr<CoSearchEnv>
makeBackendEnv(const std::string &name,
               std::vector<workload::Network> networks,
               const BackendOptions &opt);

} // namespace unico::core

#endif // UNICO_CORE_BACKEND_HH
