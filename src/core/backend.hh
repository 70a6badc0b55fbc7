/**
 * @file
 * Named backend registry: one place where evaluation stacks
 * (platform binding = HW design space + mapping search + PPA engine)
 * are registered, looked up and constructed.
 *
 * The CLI, every bench binary and the tests select their platform
 * through this registry ("spatial", "ascend"), so adding a backend
 * is one registerBackend() call — no per-tool plumbing. Each backend
 * owns its option vocabulary: parseBackendOptions() maps the shared
 * CLI flags onto BackendOptions and rejects flags that do not apply
 * to the chosen backend with a typed BackendError.
 */

#ifndef UNICO_CORE_BACKEND_HH
#define UNICO_CORE_BACKEND_HH

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/ppa.hh"
#include "accel/spatial.hh"
#include "common/cancel.hh"
#include "common/cli.hh"
#include "core/env.hh"
#include "mapping/engine.hh"
#include "workload/network.hh"

namespace unico::common {
class ThreadPool;
} // namespace unico::common

namespace unico::core {

/** Typed failure of backend lookup or option parsing. */
class BackendError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Backend-agnostic construction options. Each backend consumes the
 * fields it understands and its option parser rejects CLI flags
 * that would silently be ignored.
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

/** Constructs a ready-to-search environment for a workload list. */
using BackendFactory = std::function<std::unique_ptr<CoSearchEnv>(
    std::vector<workload::Network> networks, const BackendOptions &opt)>;

/** Maps shared CLI flags onto BackendOptions; throws BackendError on
 *  a malformed value or a flag foreign to the backend. */
using BackendOptionParser =
    std::function<BackendOptions(const common::CliArgs &args)>;

/** One registered backend. */
struct BackendInfo
{
    std::string description; ///< one-line summary for --help output
    BackendFactory factory;
    BackendOptionParser parseOptions;
};

/**
 * Register (or replace) a backend under @p name. The built-in
 * backends ("spatial", "ascend") are registered on first use of any
 * registry call; user backends may be added at any time.
 */
void registerBackend(const std::string &name, BackendInfo info);

/** Whether @p name is a registered backend. */
bool isBackendRegistered(const std::string &name);

/** All registered backend names, sorted. */
std::vector<std::string> backendNames();

/** Lookup; throws BackendError (listing known names) when absent. */
const BackendInfo &backendInfo(const std::string &name);

/** Construct backend @p name over @p networks. */
std::unique_ptr<CoSearchEnv>
makeBackendEnv(const std::string &name,
               std::vector<workload::Network> networks,
               const BackendOptions &opt);

/**
 * Parse the per-backend options of @p name from CLI flags
 * (--scenario / --engine / --area-budget / --max-shapes). Throws
 * BackendError for an unknown backend, a malformed value, or a flag
 * the chosen backend does not support.
 */
BackendOptions parseBackendOptions(const std::string &name,
                                   const common::CliArgs &args);

} // namespace unico::core

#endif // UNICO_CORE_BACKEND_HH
