/**
 * @file
 * Trace-span rings, Chrome trace_event export, and the minimal
 * JSON parser/validator backing the exported-trace acceptance check.
 */

#include "util/trace.hh"

#include "util/build_info.hh"
#include "util/thread_ring.hh"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

namespace heteromap {
namespace telemetry {

namespace {

std::atomic<bool> tracingFlag{true};

using SpanCollector =
    ThreadRingCollector<TraceEvent, &TraceEvent::startNs>;

SpanCollector &
spans()
{
    // Leaked: threads (and their ring retirement) may outlive
    // main()'s statics.
    static SpanCollector *the =
        new SpanCollector(kTraceRingCapacity, "trace.dropped");
    return *the;
}

} // namespace

void
setTracingEnabled(bool enabled)
{
    tracingFlag.store(enabled, std::memory_order_relaxed);
}

bool
tracingEnabled()
{
    return enabled() && tracingFlag.load(std::memory_order_relaxed);
}

uint64_t
traceNowNs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch)
                        .count());
}

void
recordSpan(const char *name, uint64_t start_ns, uint64_t end_ns)
{
    if (!tracingEnabled())
        return;
    SpanCollector &collector = spans();
    TraceEvent event;
    event.name = name;
    event.startNs = start_ns;
    event.durNs = end_ns >= start_ns ? end_ns - start_ns : 0;
    event.tid = collector.threadId();
    collector.push(event);
}

std::vector<TraceEvent>
drainTrace()
{
    if (!enabled())
        return {};
    return spans().drain();
}

void
clearTrace()
{
    if (enabled())
        spans().drain();
}

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
traceEventsToJsonArray(const std::vector<TraceEvent> &events)
{
    // Complete ("X") events: ts/dur in fractional microseconds, the
    // unit the trace_event format specifies.
    std::ostringstream oss;
    oss << "[";
    bool first = true;
    for (const TraceEvent &event : events) {
        char buf[64];
        oss << (first ? "" : ",") << "{\"name\":\""
            << jsonEscape(event.name)
            << "\",\"cat\":\"heteromap\",\"ph\":\"X\",\"ts\":";
        std::snprintf(buf, sizeof(buf), "%.3f",
                      double(event.startNs) / 1e3);
        oss << buf << ",\"dur\":";
        std::snprintf(buf, sizeof(buf), "%.3f",
                      double(event.durNs) / 1e3);
        oss << buf << ",\"pid\":1,\"tid\":" << event.tid << "}";
        first = false;
    }
    oss << "]";
    return oss.str();
}

std::string
traceToChromeJson(const std::vector<TraceEvent> &events)
{
    // The buildInfo key makes the artifact attributable to a git
    // state and build configuration; trace viewers ignore unknown
    // top-level keys.
    return "{\"traceEvents\":" + traceEventsToJsonArray(events) +
           ",\"buildInfo\":" + buildInfoJson() + "}";
}

namespace {

/** Minimal JSON value tree — just enough to audit a trace document. */
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;
};

/** Recursive-descent JSON parser (throws std::runtime_error). */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue value = parseValue();
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return value;
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;

    [[noreturn]] void
    fail(const std::string &why)
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(std::string_view literal)
    {
        if (text_.compare(pos_, literal.size(), literal) != 0)
            return false;
        pos_ += literal.size();
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWhitespace();
        JsonValue value;
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"':
            value.kind = JsonValue::Kind::String;
            value.string = parseString();
            return value;
          case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            value.kind = JsonValue::Kind::Bool;
            value.boolean = true;
            return value;
          case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            value.kind = JsonValue::Kind::Bool;
            return value;
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return value;
          default: return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue value;
        value.kind = JsonValue::Kind::Object;
        expect('{');
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return value;
        }
        for (;;) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            value.object.emplace(std::move(key), parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return value;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue value;
        value.kind = JsonValue::Kind::Array;
        expect('[');
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return value;
        }
        for (;;) {
            value.array.push_back(parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return value;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char escape = text_[pos_++];
            switch (escape) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += unsigned(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // Validation only cares about ASCII names; encode
                // non-ASCII code points as '?' rather than UTF-8.
                out += code < 0x80 ? char(code) : '?';
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a number");
        JsonValue value;
        value.kind = JsonValue::Kind::Number;
        try {
            value.number = std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception &) {
            fail("unparseable number");
        }
        return value;
    }
};

/** The "traceEvents" array of @p doc, or @p doc itself when an array. */
const JsonValue *
traceEventsOf(const JsonValue &doc, std::string *error)
{
    if (doc.kind == JsonValue::Kind::Array)
        return &doc;
    if (doc.kind == JsonValue::Kind::Object) {
        auto found = doc.object.find("traceEvents");
        if (found == doc.object.end()) {
            if (error != nullptr)
                *error = "object document lacks a traceEvents key";
            return nullptr;
        }
        if (found->second.kind != JsonValue::Kind::Array) {
            if (error != nullptr)
                *error = "traceEvents is not an array";
            return nullptr;
        }
        return &found->second;
    }
    if (error != nullptr)
        *error = "document is neither an array nor an object";
    return nullptr;
}

} // namespace

bool
validateJson(const std::string &json, std::string *error)
{
    try {
        JsonParser(json).parse();
        return true;
    } catch (const std::exception &e) {
        if (error != nullptr)
            *error = e.what();
        return false;
    }
}

std::vector<ParsedTraceEvent>
parseChromeTrace(const std::string &json, std::string *error)
{
    JsonValue doc;
    try {
        doc = JsonParser(json).parse();
    } catch (const std::exception &e) {
        if (error != nullptr)
            *error = e.what();
        return {};
    }
    const JsonValue *events = traceEventsOf(doc, error);
    if (events == nullptr)
        return {};

    std::vector<ParsedTraceEvent> out;
    out.reserve(events->array.size());
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &entry = events->array[i];
        if (entry.kind != JsonValue::Kind::Object) {
            if (error != nullptr)
                *error = "event " + std::to_string(i) +
                         " is not an object";
            return {};
        }
        ParsedTraceEvent event;
        auto string_field = [&](const char *key, std::string *dst) {
            auto found = entry.object.find(key);
            if (found == entry.object.end() ||
                found->second.kind != JsonValue::Kind::String)
                return false;
            *dst = found->second.string;
            return true;
        };
        auto number_field = [&](const char *key, double *dst) {
            auto found = entry.object.find(key);
            if (found == entry.object.end() ||
                found->second.kind != JsonValue::Kind::Number)
                return false;
            *dst = found->second.number;
            return true;
        };
        if (!string_field("name", &event.name) ||
            !string_field("ph", &event.ph) ||
            !number_field("ts", &event.ts) ||
            !number_field("pid", &event.pid) ||
            !number_field("tid", &event.tid)) {
            if (error != nullptr)
                *error = "event " + std::to_string(i) +
                         " lacks a required name/ph/ts/pid/tid field";
            return {};
        }
        event.hasDur = number_field("dur", &event.dur);
        out.push_back(std::move(event));
    }
    return out;
}

bool
validateChromeTrace(const std::string &json, std::string *error,
                    std::size_t *num_events)
{
    std::string parse_error;
    std::vector<ParsedTraceEvent> events =
        parseChromeTrace(json, &parse_error);
    if (events.empty() && !parse_error.empty()) {
        if (error != nullptr)
            *error = parse_error;
        return false;
    }

    // B/E events must balance, LIFO, per (pid, tid) track.
    std::map<std::pair<double, double>, std::vector<std::string>> stacks;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const ParsedTraceEvent &event = events[i];
        if (event.ph == "X") {
            if (!event.hasDur || event.dur < 0.0) {
                if (error != nullptr)
                    *error = "X event " + std::to_string(i) +
                             " lacks a non-negative dur";
                return false;
            }
        } else if (event.ph == "B") {
            stacks[{event.pid, event.tid}].push_back(event.name);
        } else if (event.ph == "E") {
            auto &stack = stacks[{event.pid, event.tid}];
            if (stack.empty() || stack.back() != event.name) {
                if (error != nullptr)
                    *error = "E event " + std::to_string(i) + " (" +
                             event.name + ") does not close the open span";
                return false;
            }
            stack.pop_back();
        } else if (event.ph != "M" && event.ph != "i" &&
                   event.ph != "C") {
            if (error != nullptr)
                *error = "event " + std::to_string(i) +
                         " has unsupported ph '" + event.ph + "'";
            return false;
        }
    }
    for (const auto &[track, stack] : stacks) {
        if (!stack.empty()) {
            if (error != nullptr)
                *error = "unbalanced B event: " + stack.back();
            return false;
        }
    }
    if (num_events != nullptr)
        *num_events = events.size();
    return true;
}

} // namespace telemetry
} // namespace heteromap
