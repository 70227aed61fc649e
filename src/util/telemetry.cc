/**
 * @file
 * Metrics-registry implementation and the shared bench reporting
 * helpers (--telemetry-out flag, combined metrics+trace JSON).
 */

#include "util/telemetry.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/build_info.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace heteromap {
namespace telemetry {

namespace {

/** Format a double compactly but losslessly enough for reports. */
std::string
formatDouble(double value)
{
    std::ostringstream oss;
    oss << std::setprecision(9) << value;
    return oss.str();
}

} // namespace

const std::array<double, Histogram::kBuckets - 1> &
Histogram::bucketBoundsMs()
{
    // 0.5us .. 1s in roughly 1-2.5-5 decades; values above the last
    // bound land in the +inf overflow bucket.
    static const std::array<double, kBuckets - 1> bounds = {
        0.0005, 0.001, 0.0025, 0.005, 0.01,  0.025, 0.05,
        0.1,    0.25,  0.5,    1.0,   2.5,   5.0,   10.0,
        25.0,   50.0,  100.0,  250.0, 1000.0,
    };
    return bounds;
}

std::size_t
Histogram::bucketIndexMs(double ms)
{
    const auto &bounds = bucketBoundsMs();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (ms <= bounds[i])
            return i;
    }
    return kBuckets - 1;
}

void
Histogram::record(double ms)
{
    buckets_[bucketIndexMs(ms)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ms, std::memory_order_relaxed);
    // min/max via CAS loops; contention is bounded because the value
    // only moves monotonically in each direction.
    double seen = min_.load(std::memory_order_relaxed);
    while (ms < seen &&
           !min_.compare_exchange_weak(seen, ms,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (ms > seen &&
           !max_.compare_exchange_weak(seen, ms,
                                       std::memory_order_relaxed)) {
    }
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum = sum_.load(std::memory_order_relaxed);
    if (snap.count > 0) {
        snap.min = min_.load(std::memory_order_relaxed);
        snap.max = max_.load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kBuckets; ++i)
        snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    return snap;
}

void
Histogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

namespace {

/**
 * Lower/upper value edges of bucket @p index, tightened to the
 * snapshot's observed min/max so interpolation never extrapolates
 * outside the recorded range (the overflow bucket has no upper bound
 * of its own, so the observed max is its edge).
 */
void
bucketEdges(const HistogramSnapshot &snap, std::size_t index,
            double *lo, double *hi)
{
    const auto &bounds = Histogram::bucketBoundsMs();
    *lo = index == 0 ? 0.0 : bounds[index - 1];
    *hi = index < bounds.size() ? bounds[index] : snap.max;
    *lo = std::max(*lo, snap.min);
    *hi = std::min(*hi, snap.max);
    if (*hi < *lo)
        *hi = *lo;
}

} // namespace

double
HistogramSnapshot::percentile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const double rank = q * static_cast<double>(count);
    uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const uint64_t in_bucket = buckets[i];
        if (in_bucket == 0)
            continue;
        if (static_cast<double>(cumulative) +
                static_cast<double>(in_bucket) >=
            rank) {
            double lo = 0.0;
            double hi = 0.0;
            bucketEdges(*this, i, &lo, &hi);
            const double frac =
                std::min(1.0, std::max(0.0, (rank - double(cumulative)) /
                                                double(in_bucket)));
            return lo + frac * (hi - lo);
        }
        cumulative += in_bucket;
    }
    return max;
}

double
HistogramSnapshot::fractionBelow(double ms) const
{
    if (count == 0)
        return 1.0;
    double below = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const uint64_t in_bucket = buckets[i];
        if (in_bucket == 0)
            continue;
        double lo = 0.0;
        double hi = 0.0;
        bucketEdges(*this, i, &lo, &hi);
        if (ms >= hi) {
            below += static_cast<double>(in_bucket);
            continue;
        }
        if (ms > lo && hi > lo)
            below += static_cast<double>(in_bucket) * (ms - lo) / (hi - lo);
        break;
    }
    return std::min(1.0, below / static_cast<double>(count));
}

std::string
MetricsSnapshot::toText() const
{
    std::ostringstream oss;
    std::size_t width = 0;
    for (const auto &[name, value] : counters)
        width = std::max(width, name.size());
    for (const auto &[name, value] : gauges)
        width = std::max(width, name.size());
    for (const auto &[name, value] : histograms)
        width = std::max(width, name.size());

    for (const auto &[name, value] : counters) {
        oss << "counter    " << std::left << std::setw(int(width) + 2)
            << name << value << "\n";
    }
    for (const auto &[name, value] : gauges) {
        oss << "gauge      " << std::left << std::setw(int(width) + 2)
            << name << formatDouble(value) << "\n";
    }
    for (const auto &[name, hist] : histograms) {
        oss << "histogram  " << std::left << std::setw(int(width) + 2)
            << name << "count=" << hist.count
            << " sum=" << formatDouble(hist.sum) << "ms"
            << " mean=" << formatDouble(hist.mean()) << "ms"
            << " min=" << formatDouble(hist.min) << "ms"
            << " p50=" << formatDouble(hist.percentile(0.50)) << "ms"
            << " p95=" << formatDouble(hist.percentile(0.95)) << "ms"
            << " p99=" << formatDouble(hist.percentile(0.99)) << "ms"
            << " max=" << formatDouble(hist.max) << "ms\n";
    }
    return oss.str();
}

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream oss;
    oss << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters) {
        oss << (first ? "" : ",") << '"' << jsonEscape(name)
            << "\":" << value;
        first = false;
    }
    oss << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gauges) {
        oss << (first ? "" : ",") << '"' << jsonEscape(name)
            << "\":" << formatDouble(value);
        first = false;
    }
    oss << "},\"histograms\":{";
    first = true;
    for (const auto &[name, hist] : histograms) {
        oss << (first ? "" : ",") << '"' << jsonEscape(name)
            << "\":{\"count\":" << hist.count
            << ",\"sum_ms\":" << formatDouble(hist.sum)
            << ",\"mean_ms\":" << formatDouble(hist.mean())
            << ",\"min_ms\":" << formatDouble(hist.min)
            << ",\"max_ms\":" << formatDouble(hist.max)
            << ",\"p50_ms\":" << formatDouble(hist.percentile(0.50))
            << ",\"p95_ms\":" << formatDouble(hist.percentile(0.95))
            << ",\"p99_ms\":" << formatDouble(hist.percentile(0.99))
            << ",\"buckets\":[";
        for (std::size_t i = 0; i < hist.buckets.size(); ++i)
            oss << (i == 0 ? "" : ",") << hist.buckets[i];
        oss << "]}";
        first = false;
    }
    oss << "}}";
    return oss.str();
}

std::string
MetricsSnapshot::toCsv() const
{
    std::ostringstream oss;
    oss << "kind,name,field,value\n";
    for (const auto &[name, value] : counters)
        oss << "counter," << name << ",value," << value << "\n";
    for (const auto &[name, value] : gauges)
        oss << "gauge," << name << ",value," << formatDouble(value)
            << "\n";
    for (const auto &[name, hist] : histograms) {
        oss << "histogram," << name << ",count," << hist.count << "\n"
            << "histogram," << name << ",sum_ms,"
            << formatDouble(hist.sum) << "\n"
            << "histogram," << name << ",mean_ms,"
            << formatDouble(hist.mean()) << "\n"
            << "histogram," << name << ",min_ms,"
            << formatDouble(hist.min) << "\n"
            << "histogram," << name << ",p50_ms,"
            << formatDouble(hist.percentile(0.50)) << "\n"
            << "histogram," << name << ",p95_ms,"
            << formatDouble(hist.percentile(0.95)) << "\n"
            << "histogram," << name << ",p99_ms,"
            << formatDouble(hist.percentile(0.99)) << "\n"
            << "histogram," << name << ",max_ms,"
            << formatDouble(hist.max) << "\n";
    }
    return oss.str();
}

MetricsRegistry &
MetricsRegistry::instance()
{
    // Leaked on purpose: worker threads and static destructors (the
    // shared thread pool, the global stats cache) may update metrics
    // after main() returns, so the registry must outlive everything.
    static MetricsRegistry *the = new MetricsRegistry;
    return *the;
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counterLocked(name);
}

Counter &
MetricsRegistry::counterLocked(std::string_view name)
{
    auto found = counters_.find(name);
    if (found == counters_.end()) {
        found = counters_
                    .emplace(std::string(name),
                             std::make_unique<Counter>())
                    .first;
    }
    return *found->second;
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto found = gauges_.find(name);
    if (found == gauges_.end()) {
        found = gauges_
                    .emplace(std::string(name), std::make_unique<Gauge>())
                    .first;
    }
    return *found->second;
}

Histogram &
MetricsRegistry::histogram(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto found = histograms_.find(name);
    if (found == histograms_.end()) {
        found = histograms_
                    .emplace(std::string(name),
                             std::make_unique<Histogram>())
                    .first;
    }
    return *found->second;
}

uint64_t
MetricsRegistry::addCounterSource(CounterSource source)
{
    if (!enabled())
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t id = next_source_id_++;
    sources_.emplace(id, std::move(source));
    return id;
}

void
MetricsRegistry::removeCounterSource(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto found = sources_.find(id);
    if (found == sources_.end())
        return;
    for (const auto &[name, value] : found->second())
        counterLocked(name).add(value);
    sources_.erase(found);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    if (!enabled())
        return snap;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_)
        snap.counters.emplace(name, counter->value());
    for (const auto &[id, source] : sources_) {
        for (const auto &[name, value] : source())
            snap.counters[std::string(name)] += value;
    }
    for (const auto &[name, gauge] : gauges_)
        snap.gauges.emplace(name, gauge->value());
    for (const auto &[name, histogram] : histograms_)
        snap.histograms.emplace(name, histogram->snapshot());
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_)
        counter->reset();
    for (const auto &[name, gauge] : gauges_)
        gauge->reset();
    for (const auto &[name, histogram] : histograms_)
        histogram->reset();
}

std::string
consumeTelemetryOutFlag(int &argc, char **argv)
{
    std::string path;
    int out = 1;
    for (int in = 1; in < argc; ++in) {
        const char *arg = argv[in];
        if (std::strcmp(arg, "--telemetry-out") == 0 && in + 1 < argc) {
            path = argv[++in];
            continue;
        }
        if (std::strncmp(arg, "--telemetry-out=", 16) == 0) {
            path = arg + 16;
            continue;
        }
        argv[out++] = argv[in];
    }
    argc = out;
    argv[argc] = nullptr;
    return path;
}

std::string
combinedTelemetryJson()
{
    const std::vector<TraceEvent> events = drainTrace();
    std::string out = "{\"traceEvents\":";
    out += traceEventsToJsonArray(events);
    out += ",\"buildInfo\":";
    out += buildInfoJson();
    out += ",\"metrics\":";
    out += registry().snapshot().toJson();
    out += "}";
    return out;
}

bool
writeTelemetryFile(const std::string &path)
{
    std::ofstream file(path);
    if (!file) {
        warn("telemetry: cannot open ", path, " for writing");
        return false;
    }
    file << combinedTelemetryJson() << "\n";
    if (!file.good()) {
        warn("telemetry: short write to ", path);
        return false;
    }
    inform("telemetry: wrote ", path);
    return true;
}

} // namespace telemetry
} // namespace heteromap
