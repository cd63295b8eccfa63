/**
 * @file
 * Measurement plumbing shared by the workloads: the clock, the
 * percentile rule, benchmark-side trace spans and the metric set a run
 * prints. Nothing here calls into the library under test.
 */
#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * The percentile rule: the highest percentile of {50, 90, 99, 99.9}
 * that leaves at least ten samples beyond it, and the median alone
 * under forty samples (a tail read from fewer is no tail).
 */
double supportedPercentile(std::size_t samples);

/** Linear-interpolated percentile @p p (0..100) of @p xs. */
double percentileOf(std::vector<double> xs, double p);

/**
 * percentileOf, refusing a percentile the sample cannot support under
 * the percentile rule: throws std::runtime_error naming @p what.
 */
double tailOf(const std::vector<double> &xs, double p, const char *what);

double meanOf(const std::vector<double> &xs);

/** Peak resident set of this process so far, MiB. */
double peakRssMib();

/** One metric of the result line. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** The metric set of one run, in the order it is printed. */
class MetricSet
{
  public:
    void set(const std::string &name, const std::string &unit, double v);
    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/** The last line of a run: {"correct","attempted","failed","metrics"}. */
void printResultLine(std::ostream &out, bool correct,
                     std::uint64_t attempted, std::uint64_t failed,
                     const MetricSet &metrics);

/**
 * Benchmark-side trace spans: name, start, end, parent span and the
 * request id, recorded around calls into the library and written as
 * JSON when the run ends. A disabled log records nothing, so untraced
 * runs pay one branch per call site.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 = root of the run
        std::string name;
        double startUs = 0.0; ///< microseconds since the log's epoch
        double endUs = 0.0;
        std::uint64_t requestId = 0;
    };

    explicit SpanLog(bool enabled);

    bool enabled() const { return enabled_; }
    double usAt(Clock::time_point t) const { return microsBetween(epoch_, t); }

    /** Record a finished span; returns its id (0 when disabled). */
    std::uint64_t add(std::string name, std::uint64_t parent,
                      Clock::time_point start, Clock::time_point end,
                      std::uint64_t requestId = 0);

    /** Open a span now; close() stamps its end. */
    std::uint64_t open(std::string name, std::uint64_t parent,
                       std::uint64_t requestId = 0);
    void close(std::uint64_t id);

    std::vector<Span> spans() const;

    /** True when every span's parent is 0 or a span of this log. */
    bool parentsResolve() const;

    void writeJson(std::ostream &out) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_
};

/** RAII span around one call (no-op on a disabled log). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, std::uint64_t parent,
               std::uint64_t requestId = 0)
        : log_(log),
          id_(log.enabled() ? log.open(std::move(name), parent, requestId)
                            : 0)
    {
    }
    ~ScopedSpan()
    {
        if (id_ != 0)
            log_.close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
