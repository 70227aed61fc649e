/**
 * @file
 * Scoped trace spans: RAII timing regions recorded into thread-local
 * ring buffers and drained into Chrome trace_event JSON, loadable in
 * about:tracing or Perfetto.
 *
 * Usage: drop `HM_SPAN("predict.infer");` at the top of a scope. The
 * span records a complete ("ph":"X") event — monotonic start
 * timestamp, duration, and the recording thread's id — when the scope
 * exits. Nesting works naturally (inner spans sit inside outer spans
 * on the same thread's track), and spans recorded by pool workers
 * land on their own tracks.
 *
 * Hot-path cost: two steady_clock reads plus one short critical
 * section on a per-thread ring mutex that only the draining thread
 * ever contends (util/thread_ring.hh). Each thread's ring holds
 * kTraceRingCapacity events; overflow overwrites the oldest events
 * and counts the drops in the "trace.dropped" counter rather than
 * allocating without bound.
 *
 * In a HETEROMAP_TELEMETRY=OFF build the HM_SPAN macro compiles to
 * nothing and the drain functions report no events.
 */

#ifndef HETEROMAP_UTIL_TRACE_HH
#define HETEROMAP_UTIL_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/telemetry.hh"

namespace heteromap {
namespace telemetry {

/** Events a thread buffers before the ring starts dropping. */
inline constexpr std::size_t kTraceRingCapacity = 8192;

/** One completed span. Timestamps are ns since the trace epoch. */
struct TraceEvent {
    const char *name = "";  //!< static string (macro call sites)
    uint64_t startNs = 0;
    uint64_t durNs = 0;
    uint32_t tid = 0;       //!< small sequential thread id
};

/** Runtime kill switch (spans become two relaxed loads when off). */
void setTracingEnabled(bool enabled);
bool tracingEnabled();

/** Monotonic ns since the process trace epoch (first call). */
uint64_t traceNowNs();

/** Append one completed span to the calling thread's ring. */
void recordSpan(const char *name, uint64_t start_ns, uint64_t end_ns);

/**
 * Collect every buffered event — live thread rings and the retired
 * events of exited threads — clear the buffers, and return the
 * events sorted by start time.
 */
std::vector<TraceEvent> drainTrace();

/** Drop all buffered events without returning them. */
void clearTrace();

/** JSON array of Chrome trace_event "X" objects. */
std::string traceEventsToJsonArray(const std::vector<TraceEvent> &events);

/** Full Chrome trace object: {"traceEvents":[...]}. */
std::string traceToChromeJson(const std::vector<TraceEvent> &events);

/** Escape @p text for embedding in a JSON string literal. */
std::string jsonEscape(std::string_view text);

/** One event parsed back out of a Chrome trace JSON document. */
struct ParsedTraceEvent {
    std::string name;
    std::string ph;
    double ts = 0.0;  //!< microseconds
    double dur = 0.0; //!< microseconds (X events)
    bool hasDur = false;
    double pid = 0.0;
    double tid = 0.0;
};

/**
 * Parse a Chrome trace JSON document (bare event array, or an object
 * with a "traceEvents" array; other keys are ignored, as the viewers
 * do). Returns the events; on malformed input returns an empty
 * vector and sets @p error.
 */
std::vector<ParsedTraceEvent> parseChromeTrace(const std::string &json,
                                               std::string *error);

/**
 * Validate @p json against the trace_event format contract the
 * acceptance criteria name: every event carries name/ph/ts/pid/tid,
 * "X" events carry a non-negative dur, and "B"/"E" events balance
 * per (pid, tid) track with matching names. @p num_events receives
 * the event count on success.
 */
bool validateChromeTrace(const std::string &json,
                         std::string *error = nullptr,
                         std::size_t *num_events = nullptr);

/**
 * True when @p json parses as one complete JSON document. Shared by
 * the forensics tests/benches to assert flight-recorder JSONL lines
 * and statusz snapshots are well-formed without growing a second
 * parser. On failure sets @p error when non-null.
 */
bool validateJson(const std::string &json, std::string *error = nullptr);

/** RAII span; prefer the HM_SPAN macro. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : name_(name), active_(tracingEnabled()),
          start_(active_ ? traceNowNs() : 0)
    {
    }

    ~ScopedSpan()
    {
        if (active_)
            recordSpan(name_, start_, traceNowNs());
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    bool active_;
    uint64_t start_;
};

} // namespace telemetry
} // namespace heteromap

#define HM_SPAN_CONCAT2(a, b) a##b
#define HM_SPAN_CONCAT(a, b) HM_SPAN_CONCAT2(a, b)

#if HETEROMAP_TELEMETRY

/** Time the enclosing scope as the trace span @p name. */
#define HM_SPAN(name)                                                     \
    ::heteromap::telemetry::ScopedSpan HM_SPAN_CONCAT(hmSpan_,            \
                                                      __LINE__)(name)

#else

#define HM_SPAN(name)                                                     \
    do {                                                                  \
    } while (0)

#endif // HETEROMAP_TELEMETRY

#endif // HETEROMAP_UTIL_TRACE_HH
