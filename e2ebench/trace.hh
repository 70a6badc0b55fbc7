/**
 * @file
 * Outside-in tracing for the end-to-end co-search benchmark.
 *
 * The benchmark times the program's layers from the outside: a
 * forwarding CoSearchEnv / MappingRun decorator records a span around
 * every environment call the driver makes (run creation, mapping
 * steps, the robustness metric), and the harness records spans around
 * the driver's own public calls (start / step / result). Nothing in
 * the library is instrumented, so the untraced and traced runs execute
 * identical program code.
 *
 * Spans are kept in memory in per-thread buffers (the round pool's
 * workers record mapping steps concurrently) and merged in start-time
 * order when a search ends.
 */

#ifndef UNICO_E2EBENCH_TRACE_HH
#define UNICO_E2EBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "core/env.hh"

namespace unico::e2ebench {

/** Monotonic nanoseconds since an arbitrary fixed epoch. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The layer boundaries the benchmark records. */
enum class SpanKind : std::uint8_t {
    WorkloadBuild, ///< zoo network construction
    MakeEnv,       ///< core::makeBackendEnv
    DriverStart,   ///< CoSearch::start
    DriverStep,    ///< CoSearch::step (one MOBO trial)
    DriverResult,  ///< CoSearch::result
    CreateRun,     ///< CoSearchEnv::createRun
    MappingStep,   ///< MappingRun::step
    Sensitivity,   ///< MappingRun::sensitivity
};

/** Stable dotted span name ("core.driver.step", ...). */
const char *spanName(SpanKind kind);

/** One closed span. @c parent is the index of the driver step that
 *  caused it (-1 outside any step). */
struct Span
{
    SpanKind kind;
    std::uint32_t thread;
    std::int32_t parent;
    std::int64_t startNs;
    std::int64_t endNs;
};

/**
 * Thread-safe in-memory span sink for one search. Each recording
 * thread appends to its own buffer; spans() merges them.
 */
class SpanRecorder
{
  public:
    SpanRecorder();
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    void record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns);

    /** Mark the driver step every later span belongs to (-1 = none). */
    void setStep(std::int32_t step) { step_.store(step); }

    /** All spans, sorted by start time (then thread). */
    std::vector<Span> spans() const;

  private:
    struct Buffer
    {
        std::uint32_t thread = 0;
        std::vector<Span> spans;
    };

    Buffer &localBuffer();

    const std::uint64_t generation_;
    std::atomic<std::int32_t> step_{-1};
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_; ///< guarded by mutex_
};

/**
 * Forwarding environment decorator: every virtual of CoSearchEnv is
 * forwarded to the wrapped environment (so checkpoint stack identity,
 * cache statistics and diagnostics are those of the inner stack), and
 * each MappingRun it creates is wrapped in a forwarding run that
 * records spans around step() and sensitivity().
 */
class TracingEnv final : public core::CoSearchEnv
{
  public:
    TracingEnv(core::CoSearchEnv &inner, SpanRecorder &rec)
        : inner_(inner), rec_(rec)
    {}

    const accel::DesignSpace &hwSpace() const override;
    std::unique_ptr<core::MappingRun>
    createRun(const accel::HwPoint &h, std::uint64_t seed) const override;
    double powerBudgetMw() const override;
    double areaBudgetMm2() const override;
    std::string describeHw(const accel::HwPoint &h) const override;
    const accel::EvalCache *evalCache() const override;
    common::TransportStats transportStats() const override;
    surrogate::SurrogateStats surrogateStats() const override;
    int minSeedBudget() const override;
    std::string backendName() const override;
    std::string scenarioName() const override;
    std::uint64_t workloadDigest() const override;
    std::optional<accel::HwPoint> expertDefault() const override;

  private:
    core::CoSearchEnv &inner_;
    SpanRecorder &rec_;
};

/** Length of the union of [start, end) intervals. */
std::int64_t unionNs(std::vector<std::pair<std::int64_t, std::int64_t>> iv);

/** Write spans as CSV (search,span,thread,parent,start_ns,end_ns),
 *  times relative to @p origin_ns. */
void writeSpansCsv(std::ostream &os, int search,
                   const std::vector<Span> &spans, std::int64_t origin_ns);

} // namespace unico::e2ebench

#endif // UNICO_E2EBENCH_TRACE_HH
