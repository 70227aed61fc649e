/**
 * @file
 * Flight-recorder JSONL export, over the same per-thread rings as
 * the trace spans (util/thread_ring.hh).
 */

#include "util/flight_recorder.hh"

#include <atomic>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/build_info.hh"
#include "util/logging.hh"
#include "util/thread_ring.hh"
#include "util/trace.hh"

namespace heteromap {
namespace forensics {

namespace {

/** Format a double for audit JSON (compact, round-trippable). */
std::string
formatAuditDouble(double value)
{
    std::ostringstream oss;
    oss << std::setprecision(12) << value;
    return oss.str();
}

} // namespace

std::string
auditRecordToJson(const AuditRecord &record)
{
    std::ostringstream oss;
    oss << "{\"type\":\"audit\",\"request_id\":" << record.requestId
        << ",\"ts_ns\":" << record.timestampNs
        << ",\"model_epoch\":" << record.modelEpoch
        << ",\"graph_fp\":\"" << std::hex << record.graphFingerprint
        << std::dec << "\",\"model_kind\":\""
        << telemetry::jsonEscape(record.modelKind)
        << "\",\"workload\":\""
        << telemetry::jsonEscape(record.workload)
        << "\",\"tree_leaf\":" << record.treeLeaf
        << ",\"tree_mask\":" << record.treePredicateMask
        << ",\"accelerator\":\""
        << telemetry::jsonEscape(record.accelerator) << "\",\"features\":[";
    for (std::size_t i = 0; i < record.features.size(); ++i)
        oss << (i == 0 ? "" : ",")
            << formatAuditDouble(record.features[i]);
    oss << "],\"scores\":[";
    for (std::size_t i = 0; i < record.scores.size(); ++i)
        oss << (i == 0 ? "" : ",") << formatAuditDouble(record.scores[i]);
    oss << "],\"queue_ms\":" << formatAuditDouble(record.queueMs)
        << ",\"measure_ms\":" << formatAuditDouble(record.measureMs)
        << ",\"featurize_ms\":" << formatAuditDouble(record.featurizeMs)
        << ",\"infer_ms\":" << formatAuditDouble(record.inferMs)
        << ",\"service_ms\":" << formatAuditDouble(record.serviceMs)
        << ",\"status\":" << record.status
        << ",\"degradation\":" << record.degradationLevel
        << ",\"supervised\":" << (record.supervised ? "true" : "false")
        << ",\"stats_hit\":" << (record.statsHit ? "true" : "false")
        << ",\"fallback\":"
        << (record.servedByFallback ? "true" : "false")
        << ",\"has_outcome\":" << (record.hasOutcome ? "true" : "false")
        << ",\"within_tolerance\":"
        << (record.withinTolerance ? "true" : "false") << "}";
    return oss.str();
}

#if HETEROMAP_TELEMETRY

namespace {

using AuditCollector =
    telemetry::ThreadRingCollector<AuditRecord, &AuditRecord::timestampNs>;

std::atomic<bool> armedFlag{false};

/** Collector totals at the last arm: the zero of the post-arm counts. */
std::atomic<uint64_t> pushedAtArm{0};
std::atomic<uint64_t> droppedAtArm{0};

AuditCollector &
audits()
{
    // Leaked: appending threads may outlive main()'s statics.
    static AuditCollector *the =
        new AuditCollector(kFlightRingCapacity, "flight.dropped");
    return *the;
}

} // namespace

void
armFlightRecorder(std::size_t ring_capacity)
{
    AuditCollector &collector = audits();
    collector.clear(ring_capacity);
    pushedAtArm.store(collector.pushed(), std::memory_order_relaxed);
    droppedAtArm.store(collector.dropped(), std::memory_order_relaxed);
    armedFlag.store(true, std::memory_order_release);
}

void
disarmFlightRecorder()
{
    armedFlag.store(false, std::memory_order_release);
}

bool
flightRecorderArmed()
{
    return armedFlag.load(std::memory_order_relaxed);
}

void
appendAuditRecord(const AuditRecord &record)
{
    if (!flightRecorderArmed())
        return;
    audits().push(record);
}

std::vector<AuditRecord>
drainAuditRecords()
{
    return audits().drain();
}

uint64_t
auditRecordsAppended()
{
    return audits().pushed() - pushedAtArm.load(std::memory_order_relaxed);
}

uint64_t
auditRecordsDropped()
{
    return audits().dropped() -
           droppedAtArm.load(std::memory_order_relaxed);
}

#endif // HETEROMAP_TELEMETRY

void
dumpFlightRecorder(std::ostream &os, std::string_view reason)
{
    const std::vector<AuditRecord> records = drainAuditRecords();
    os << "{\"type\":\"flight-recorder\",\"reason\":\""
       << telemetry::jsonEscape(reason)
       << "\",\"build\":" << telemetry::buildInfoJson()
       << ",\"records\":" << records.size()
       << ",\"appended\":" << auditRecordsAppended()
       << ",\"dropped\":" << auditRecordsDropped() << "}\n";
    for (const AuditRecord &record : records)
        os << auditRecordToJson(record) << "\n";
}

bool
dumpFlightRecorderToFile(const std::string &path, std::string_view reason)
{
    std::ofstream file(path);
    if (!file) {
        warn("flight-recorder: cannot open ", path, " for writing");
        return false;
    }
    dumpFlightRecorder(file, reason);
    if (!file.good()) {
        warn("flight-recorder: short write to ", path);
        return false;
    }
    inform("flight-recorder: wrote ", path, " (", reason, ")");
    return true;
}

} // namespace forensics
} // namespace heteromap
