#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include <sys/resource.h>

#include "common/json_writer.hpp"

namespace perfbench {

double
supportedPercentile(std::size_t samples)
{
    if (samples < 40)
        return 50.0;
    double best = 50.0;
    for (double p : {90.0, 99.0, 99.9}) {
        double beyond = static_cast<double>(samples) * (1.0 - p / 100.0);
        if (beyond + 1e-9 >= 10.0)
            best = p;
    }
    return best;
}

double
percentileOf(std::vector<double> xs, double p)
{
    if (xs.empty())
        throw std::runtime_error("percentile of an empty sample");
    std::sort(xs.begin(), xs.end());
    double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
tailOf(const std::vector<double> &xs, double p, const char *what)
{
    if (supportedPercentile(xs.size()) < p)
        throw std::runtime_error(
            std::string(what) + ": " + std::to_string(xs.size()) +
            " samples cannot support percentile " + std::to_string(p));
    return percentileOf(xs, p);
}

double
meanOf(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    return std::accumulate(xs.begin(), xs.end(), 0.0) /
           static_cast<double>(xs.size());
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void
MetricSet::set(const std::string &name, const std::string &unit, double v)
{
    for (Metric &m : metrics_)
        if (m.name == name) {
            m.unit = unit;
            m.value = v;
            return;
        }
    metrics_.push_back({name, unit, v});
}

void
printResultLine(std::ostream &out, bool correct, std::uint64_t attempted,
                std::uint64_t failed, const MetricSet &metrics)
{
    bbs::JsonWriter w(out);
    w.beginObject();
    w.member("correct", correct);
    w.member("attempted", attempted);
    w.member("failed", failed);
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : metrics.all()) {
        w.key(m.name);
        w.beginObject();
        w.member("value", m.value);
        w.member("unit", std::string_view(m.unit));
        w.endObject();
    }
    w.endObject();
    w.endObject();
    out << '\n';
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::uint64_t
SpanLog::add(std::string name, std::uint64_t parent, Clock::time_point start,
             Clock::time_point end, std::uint64_t requestId)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = std::move(name);
    s.startUs = usAt(start);
    s.endUs = usAt(end);
    s.requestId = requestId;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::uint64_t
SpanLog::open(std::string name, std::uint64_t parent, std::uint64_t requestId)
{
    auto now = Clock::now();
    return add(std::move(name), parent, now, now, requestId);
}

void
SpanLog::close(std::uint64_t id)
{
    if (!enabled_ || id == 0)
        return;
    double end = usAt(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].endUs = end;
}

std::vector<SpanLog::Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
SpanLog::parentsResolve() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_)
        if (s.parent != 0 && (s.parent >= s.id || s.parent > spans_.size()))
            return false;
    return true;
}

void
SpanLog::writeJson(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    bbs::JsonWriter w(out);
    w.beginObject();
    w.key("spans");
    w.beginArray();
    for (const Span &s : spans_) {
        w.beginObject();
        w.member("id", s.id);
        w.member("parent", s.parent);
        w.member("name", std::string_view(s.name));
        w.member("start_us", s.startUs);
        w.member("end_us", s.endUs);
        w.member("request_id", s.requestId);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << '\n';
}

} // namespace perfbench
