#include "trace.hh"

#include <algorithm>

namespace unico::e2ebench {

namespace {

/** Distinguishes recorders so a thread's cached buffer pointer is
 *  never reused by a later recorder allocated at the same address. */
std::atomic<std::uint64_t> g_generation{1};

struct ThreadSlot
{
    std::uint64_t generation = 0;
    void *buffer = nullptr;
};

thread_local ThreadSlot t_slot;

/** Records [construction, destruction) as one span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, SpanKind kind)
        : rec_(rec), kind_(kind), start_(nowNs())
    {}
    ~ScopedSpan() { rec_.record(kind_, start_, nowNs()); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    SpanKind kind_;
    std::int64_t start_;
};

/** Forwarding MappingRun that times step() and sensitivity(). */
class TracingRun final : public core::MappingRun
{
  public:
    TracingRun(std::unique_ptr<core::MappingRun> inner, SpanRecorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {}

    void
    step(int evals) override
    {
        ScopedSpan span(rec_, SpanKind::MappingStep);
        inner_->step(evals);
    }

    int spent() const override { return inner_->spent(); }
    accel::Ppa bestPpa() const override { return inner_->bestPpa(); }

    const std::vector<double> &
    bestLossHistory() const override
    {
        return inner_->bestLossHistory();
    }

    double
    sensitivity(double alpha) const override
    {
        ScopedSpan span(rec_, SpanKind::Sensitivity);
        return inner_->sensitivity(alpha);
    }

    double chargedSeconds() const override { return inner_->chargedSeconds(); }
    bool degradeToAnalytical() override { return inner_->degradeToAnalytical(); }

  private:
    std::unique_ptr<core::MappingRun> inner_;
    SpanRecorder &rec_;
};

} // namespace

const char *
spanName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::WorkloadBuild: return "workload.build";
      case SpanKind::MakeEnv: return "core.backend.make_env";
      case SpanKind::DriverStart: return "core.driver.start";
      case SpanKind::DriverStep: return "core.driver.step";
      case SpanKind::DriverResult: return "core.driver.result";
      case SpanKind::CreateRun: return "core.env.create_run";
      case SpanKind::MappingStep: return "mapping.step";
      case SpanKind::Sensitivity: return "core.robustness.sensitivity";
    }
    return "?";
}

SpanRecorder::SpanRecorder() : generation_(g_generation.fetch_add(1)) {}

SpanRecorder::Buffer &
SpanRecorder::localBuffer()
{
    if (t_slot.generation != generation_) {
        auto buf = std::make_unique<Buffer>();
        buf->spans.reserve(4096);
        std::lock_guard<std::mutex> lock(mutex_);
        buf->thread = static_cast<std::uint32_t>(buffers_.size());
        t_slot.buffer = buf.get();
        t_slot.generation = generation_;
        buffers_.push_back(std::move(buf));
    }
    return *static_cast<Buffer *>(t_slot.buffer);
}

void
SpanRecorder::record(SpanKind kind, std::int64_t start_ns,
                     std::int64_t end_ns)
{
    Buffer &buf = localBuffer();
    buf.spans.push_back(
        Span{kind, buf.thread, step_.load(std::memory_order_relaxed),
             start_ns, end_ns});
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::vector<Span> all;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buf : buffers_)
        all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    std::sort(all.begin(), all.end(), [](const Span &a, const Span &b) {
        return a.startNs != b.startNs ? a.startNs < b.startNs
                                      : a.thread < b.thread;
    });
    return all;
}

const accel::DesignSpace &
TracingEnv::hwSpace() const
{
    return inner_.hwSpace();
}

std::unique_ptr<core::MappingRun>
TracingEnv::createRun(const accel::HwPoint &h, std::uint64_t seed) const
{
    ScopedSpan span(rec_, SpanKind::CreateRun);
    return std::make_unique<TracingRun>(inner_.createRun(h, seed), rec_);
}

double TracingEnv::powerBudgetMw() const { return inner_.powerBudgetMw(); }
double TracingEnv::areaBudgetMm2() const { return inner_.areaBudgetMm2(); }

std::string
TracingEnv::describeHw(const accel::HwPoint &h) const
{
    return inner_.describeHw(h);
}

const accel::EvalCache *
TracingEnv::evalCache() const
{
    return inner_.evalCache();
}

common::TransportStats
TracingEnv::transportStats() const
{
    return inner_.transportStats();
}

surrogate::SurrogateStats
TracingEnv::surrogateStats() const
{
    return inner_.surrogateStats();
}

int TracingEnv::minSeedBudget() const { return inner_.minSeedBudget(); }
std::string TracingEnv::backendName() const { return inner_.backendName(); }
std::string TracingEnv::scenarioName() const { return inner_.scenarioName(); }

std::uint64_t
TracingEnv::workloadDigest() const
{
    return inner_.workloadDigest();
}

std::optional<accel::HwPoint>
TracingEnv::expertDefault() const
{
    return inner_.expertDefault();
}

std::int64_t
unionNs(std::vector<std::pair<std::int64_t, std::int64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0;
    std::int64_t cur_start = 0;
    std::int64_t cur_end = 0;
    bool open = false;
    for (const auto &[s, e] : iv) {
        if (!open || s > cur_end) {
            if (open)
                total += cur_end - cur_start;
            cur_start = s;
            cur_end = e;
            open = true;
        } else {
            cur_end = std::max(cur_end, e);
        }
    }
    if (open)
        total += cur_end - cur_start;
    return total;
}

void
writeSpansCsv(std::ostream &os, int search, const std::vector<Span> &spans,
              std::int64_t origin_ns)
{
    for (const Span &s : spans)
        os << search << ',' << spanName(s.kind) << ',' << s.thread << ','
           << s.parent << ',' << (s.startNs - origin_ns) << ','
           << (s.endNs - origin_ns) << '\n';
}

} // namespace unico::e2ebench
