/**
 * @file
 * Structured error taxonomy for PPA evaluations.
 *
 * Sec. 3.5 deploys each successive-halving round as standalone
 * parallel jobs on a master/worker cluster, where individual
 * evaluations (cycle-level simulations in particular) can hang,
 * crash or return garbage. The supervisor classifies every failed
 * evaluation into one of these categories and picks a recovery
 * policy per category (retry, degrade, penalize) instead of
 * aborting the whole multi-hour co-search.
 */

#ifndef UNICO_COMMON_STATUS_HH
#define UNICO_COMMON_STATUS_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace unico::common {

/** Outcome category of one PPA evaluation (or evaluation batch). */
enum class EvalStatus {
    Ok,         ///< evaluation completed and the result is usable
    Transient,  ///< spurious failure (crash, garbage result); retryable
    Timeout,    ///< exceeded its virtual-time deadline; retryable
    Infeasible, ///< completed, but no feasible mapping exists
    Fatal,      ///< non-retryable failure (bad input, broken engine)
};

/** Human-readable category name. */
inline const char *
toString(EvalStatus status)
{
    switch (status) {
      case EvalStatus::Ok: return "ok";
      case EvalStatus::Transient: return "transient";
      case EvalStatus::Timeout: return "timeout";
      case EvalStatus::Infeasible: return "infeasible";
      case EvalStatus::Fatal: return "fatal";
    }
    return "?";
}

/** True for categories a supervisor may retry (with backoff). */
inline bool
retryable(EvalStatus status)
{
    return status == EvalStatus::Transient ||
           status == EvalStatus::Timeout;
}

/** Empty placeholder: kept only because the frozen e2ebench harness
 *  overrides CoSearchEnv::transportStats(). */
struct TransportStats
{};

/**
 * Value-or-status result of a fallible evaluation. The value is
 * meaningful only when ok(); failed results carry the category and a
 * diagnostic message instead.
 */
template <typename T>
struct EvalResult
{
    EvalStatus status = EvalStatus::Ok;
    T value{};
    std::string message;

    bool ok() const { return status == EvalStatus::Ok; }

    static EvalResult
    success(T v)
    {
        EvalResult r;
        r.value = std::move(v);
        return r;
    }

    static EvalResult
    failure(EvalStatus s, std::string msg = {})
    {
        EvalResult r;
        r.status = s;
        r.message = std::move(msg);
        return r;
    }
};

/** Status + message of one completed job (see runParallelCaptured). */
using JobOutcome = EvalResult<bool>;

/**
 * Exception form of a failed evaluation, thrown by fault injectors
 * and failure-aware engines; supervisors catch it and map the status
 * onto their recovery policy.
 */
class EvalFault : public std::runtime_error
{
  public:
    EvalFault(EvalStatus status, const std::string &what)
        : std::runtime_error(what), status_(status)
    {}

    EvalStatus status() const { return status_; }

  private:
    EvalStatus status_;
};

} // namespace unico::common

#endif // UNICO_COMMON_STATUS_HH
