/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket latency histograms with lock-free hot-path updates.
 *
 * The registry answers the question every perf/robustness PR needs
 * answered before its claims are trustworthy: where does the time go,
 * and what are the pools and caches doing under load? Instrumented
 * code records through the HM_COUNTER_* / HM_GAUGE_SET /
 * HM_HISTOGRAM_RECORD_MS macros below; a reporting path (the
 * --telemetry-out flag on every bench binary, or a snapshot() call)
 * turns the accumulated state into a text table, JSON, or CSV.
 *
 * Concurrency model: registration (first lookup of a name) takes a
 * mutex; every subsequent update is a relaxed std::atomic operation
 * on a stable object, so the hot path never locks. The macros cache
 * the looked-up metric in a function-local static, making the
 * steady-state cost a single atomic RMW.
 *
 * A counter an object already keeps for its own accessors is not
 * counted twice: the owner registers a counter source instead.
 *
 * Build-time gate: configuring with -DHETEROMAP_TELEMETRY=OFF defines
 * HETEROMAP_TELEMETRY=0, which compiles every macro below and every
 * source registration to a no-op and makes snapshot() return an
 * empty snapshot. The metric *types* stay fully functional in both
 * builds so subsystems (e.g. the stats cache) can keep exposing
 * their accessors through them.
 */

#ifndef HETEROMAP_UTIL_TELEMETRY_HH
#define HETEROMAP_UTIL_TELEMETRY_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef HETEROMAP_TELEMETRY
#define HETEROMAP_TELEMETRY 1
#endif

namespace heteromap {
namespace telemetry {

/** True when the build records telemetry (HETEROMAP_TELEMETRY=ON). */
constexpr bool
enabled()
{
    return HETEROMAP_TELEMETRY != 0;
}

/** Monotonic event counter. All operations are lock-free. */
class Counter
{
  public:
    void
    add(uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (e.g. a queue depth). */
class Gauge
{
  public:
    void
    set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Point-in-time copy of a Histogram's state. */
struct HistogramSnapshot {
    static constexpr std::size_t kBuckets = 20;

    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0; //!< 0 when count == 0
    double max = 0.0; //!< 0 when count == 0
    std::array<uint64_t, kBuckets> buckets{};

    double mean() const { return count == 0 ? 0.0 : sum / count; }

    /**
     * Interpolated quantile estimate in milliseconds for @p q in
     * [0, 1]. Walks the cumulative bucket counts to the bucket holding
     * rank q*count and interpolates linearly inside it, with the
     * bucket edges tightened to the observed min/max so single-bucket
     * distributions report exact values. Returns 0 when empty.
     */
    double percentile(double q) const;

    /**
     * Fraction of recorded values <= @p ms, interpolating within the
     * straddling bucket. Returns 1 when empty (vacuously compliant);
     * the SLO tracker leans on that convention for idle windows.
     */
    double fractionBelow(double ms) const;
};

/**
 * Fixed-bucket latency histogram over milliseconds. Buckets are
 * log-ish spaced from 0.5us to 1s (plus an overflow bucket), chosen
 * to resolve both sub-microsecond inference latencies and
 * whole-training-sweep durations. record() is lock-free: one bucket
 * fetch_add plus count/sum/min/max atomics.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

    /** Upper bounds (ms) of buckets 0..kBuckets-2; the last is +inf. */
    static const std::array<double, kBuckets - 1> &bucketBoundsMs();

    /** Bucket a value of @p ms milliseconds falls into. */
    static std::size_t bucketIndexMs(double ms);

    void record(double ms);

    HistogramSnapshot snapshot() const;

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }

    void reset();

  private:
    std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/** Point-in-time copy of every registered metric, name-sorted. */
struct MetricsSnapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() && histograms.empty();
    }

    /** Aligned human-readable table. */
    std::string toText() const;

    /** {"counters":{...},"gauges":{...},"histograms":{...}}. */
    std::string toJson() const;

    /** kind,name,field,value rows (histograms expand per field). */
    std::string toCsv() const;
};

/** Counter values a source reports: (registry name, value) pairs. */
using CounterReadings = std::vector<std::pair<std::string_view, uint64_t>>;

/**
 * Reads an owner's counters at snapshot time. It runs under the
 * registry lock, so it must not call back into the registry; its
 * names must outlive the registration (string literals do).
 */
using CounterSource = std::function<CounterReadings()>;

/**
 * The process-wide name -> metric map. Metric objects live for the
 * process lifetime (the registry is never destroyed), so references
 * returned by counter()/gauge()/histogram() stay valid in static
 * destructors and exiting worker threads.
 *
 * A counter's snapshot value is the registry's own value plus the
 * readings of every live counter source under that name. When a
 * source is removed its final readings fold into the registry's
 * value, so a snapshot never falls when an owner goes away.
 */
class MetricsRegistry
{
  public:
    /** The singleton (leaked deliberately; see class comment). */
    static MetricsRegistry &instance();

    /** Find-or-create; the reference is stable forever. */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name);

    /**
     * Register @p source (a no-op returning 0 in OFF builds).
     * @return the id removeCounterSource() takes.
     */
    uint64_t addCounterSource(CounterSource source);

    /** Fold source @p id's final readings in, then forget it. */
    void removeCounterSource(uint64_t id);

    /**
     * Copy out every registered metric, counters summed with their
     * sources' readings. Returns an empty snapshot in a
     * HETEROMAP_TELEMETRY=OFF build (metrics still function for
     * their owners, but the registry reports nothing).
     */
    MetricsSnapshot snapshot() const;

    /**
     * Zero every value the registry owns, folded source readings
     * included (registrations survive; live sources are untouched).
     * Values
     * concurrently updated during reset land in the post-reset
     * epoch; intended for tests and report tooling, not hot paths.
     */
    void reset();

  private:
    MetricsRegistry() = default;

    /** counter() with mutex_ held. */
    Counter &counterLocked(std::string_view name);

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms_;
    std::map<uint64_t, CounterSource> sources_; //!< by id
    uint64_t next_source_id_ = 1;
};

/** Shorthand for MetricsRegistry::instance(). */
inline MetricsRegistry &
registry()
{
    return MetricsRegistry::instance();
}

/**
 * Keeps a counter source registered for its own lifetime. Declare it
 * after every member its source reads, so it unregisters first.
 * Compiles to nothing in HETEROMAP_TELEMETRY=OFF builds.
 */
class ScopedCounterSource
{
  public:
    template <typename Source>
    explicit ScopedCounterSource(Source &&source)
    {
        if constexpr (enabled())
            id_ = registry().addCounterSource(std::forward<Source>(source));
    }

    ~ScopedCounterSource()
    {
        if constexpr (enabled())
            registry().removeCounterSource(id_);
    }

    ScopedCounterSource(const ScopedCounterSource &) = delete;
    ScopedCounterSource &operator=(const ScopedCounterSource &) = delete;

  private:
    uint64_t id_ = 0;
};

/**
 * Scan argv for "--telemetry-out <path>" (or --telemetry-out=<path>),
 * strip it from the argument list, and return the path ("" when the
 * flag is absent). Shared by every bench binary so they all speak the
 * same reporting dialect without each growing a flag parser.
 */
std::string consumeTelemetryOutFlag(int &argc, char **argv);

/**
 * One JSON document holding both views: a Chrome trace_event object
 * ("traceEvents", loadable in about:tracing / Perfetto, which ignore
 * the extra key) and the current metrics snapshot ("metrics").
 * Drains the trace buffers.
 */
std::string combinedTelemetryJson();

/** Write combinedTelemetryJson() to @p path; warn+false on IO error. */
bool writeTelemetryFile(const std::string &path);

/**
 * RAII companion to consumeTelemetryOutFlag(): writes the combined
 * telemetry file at scope exit when the flag was present. Benches put
 * one at the top of main() and forget about it.
 */
class TelemetryFileWriter
{
  public:
    explicit TelemetryFileWriter(std::string path) : path_(std::move(path))
    {
    }

    ~TelemetryFileWriter()
    {
        if (!path_.empty())
            writeTelemetryFile(path_);
    }

    TelemetryFileWriter(const TelemetryFileWriter &) = delete;
    TelemetryFileWriter &operator=(const TelemetryFileWriter &) = delete;

  private:
    std::string path_;
};

} // namespace telemetry
} // namespace heteromap

#if HETEROMAP_TELEMETRY

/** Add @p delta to the process counter @p name (hot-path safe). */
#define HM_COUNTER_ADD(name, delta)                                       \
    do {                                                                  \
        static ::heteromap::telemetry::Counter &hmTelemetryCounter =      \
            ::heteromap::telemetry::registry().counter(name);             \
        hmTelemetryCounter.add(delta);                                    \
    } while (0)

/** Set the process gauge @p name to @p value (hot-path safe). */
#define HM_GAUGE_SET(name, value)                                         \
    do {                                                                  \
        static ::heteromap::telemetry::Gauge &hmTelemetryGauge =          \
            ::heteromap::telemetry::registry().gauge(name);               \
        hmTelemetryGauge.set(value);                                      \
    } while (0)

/** Record @p ms milliseconds into the histogram @p name. */
#define HM_HISTOGRAM_RECORD_MS(name, ms)                                  \
    do {                                                                  \
        static ::heteromap::telemetry::Histogram &hmTelemetryHistogram =  \
            ::heteromap::telemetry::registry().histogram(name);           \
        hmTelemetryHistogram.record(ms);                                  \
    } while (0)

#else // HETEROMAP_TELEMETRY=OFF: every macro compiles away.

#define HM_COUNTER_ADD(name, delta)                                       \
    do {                                                                  \
        (void)sizeof(delta);                                              \
    } while (0)

#define HM_GAUGE_SET(name, value)                                         \
    do {                                                                  \
        (void)sizeof(value);                                              \
    } while (0)

#define HM_HISTOGRAM_RECORD_MS(name, ms)                                  \
    do {                                                                  \
        (void)sizeof(ms);                                                 \
    } while (0)

#endif // HETEROMAP_TELEMETRY

/** Increment the process counter @p name by one. */
#define HM_COUNTER_INC(name) HM_COUNTER_ADD(name, 1)

#endif // HETEROMAP_UTIL_TELEMETRY_HH
