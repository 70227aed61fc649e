/**
 * @file
 * Tests for the network serving tier (src/net/): wire-codec
 * round-trips and the malformed-frame fuzz tables, consistent-hash
 * router determinism and bounded key movement, token-bucket
 * admission with injected clocks, the shard-aware statusz roll-up,
 * and loopback end-to-end serving — echo under load, transport
 * errors feeding the RetryingClient breaker ladder, per-shard cache
 * affinity, and quota fairness, including a multi-tenant mix over
 * shared connections. Every suite name contains "Net" so
 * `tools/check_tsan.sh -R Net` runs exactly this file under
 * ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/presets.hh"
#include "core/experiment.hh"
#include "graph/generators.hh"
#include "graph/stats_cache.hh"
#include "net/admission.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "net/shard_router.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "serve/model_registry.hh"
#include "serve/retrying_client.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"
#include "workloads/registry.hh"

namespace heteromap {
namespace net {
namespace {

// --- Wire codec ------------------------------------------------------

WireRequest
sampleRequest()
{
    WireRequest request;
    request.clientId = 0xc11e47;
    request.supervised = true;
    request.priority = true;
    request.deadlineMs = 12.5;
    request.sweeps = 4;
    request.seed = 99;
    request.workload = "PR";
    request.graph = "mesh";
    return request;
}

WireResponse
sampleResponse()
{
    WireResponse response;
    response.status = 2; // Error
    response.shedReason = 1;
    response.degradationLevel = 3;
    response.servedByFallback = true;
    response.modelEpoch = 7;
    response.accelerator = 1;
    response.threads = 16;
    response.predictedSeconds = 0.125;
    response.overheadMs = 1.5;
    response.queueMs = 0.25;
    response.serviceMs = 2.0;
    response.batchSize = 3;
    response.hasError = true;
    response.errorCode = 4;
    response.errorMessage = "batch crashed";
    return response;
}

TEST(NetWire, RequestRoundTripsByteIdentically)
{
    std::string frame;
    encodeRequest(42, sampleRequest(), frame);
    ASSERT_GE(frame.size(), kHeaderBytes);

    auto header = decodeHeader(frame);
    ASSERT_TRUE(header.ok()) << header.error().toString();
    EXPECT_EQ(header.value().type, FrameType::PredictRequest);
    EXPECT_EQ(header.value().requestId, 42u);
    EXPECT_EQ(header.value().flags & kFlagSupervised,
              kFlagSupervised);
    EXPECT_EQ(header.value().flags & kFlagPriority, kFlagPriority);
    EXPECT_EQ(header.value().payloadLen,
              frame.size() - kHeaderBytes);

    auto decoded = decodeRequest(
        std::string_view(frame).substr(kHeaderBytes));
    ASSERT_TRUE(decoded.ok()) << decoded.error().toString();
    EXPECT_EQ(decoded.value().clientId, 0xc11e47u);
    EXPECT_DOUBLE_EQ(decoded.value().deadlineMs, 12.5);
    EXPECT_EQ(decoded.value().sweeps, 4u);
    EXPECT_EQ(decoded.value().seed, 99u);
    EXPECT_EQ(decoded.value().workload, "PR");
    EXPECT_EQ(decoded.value().graph, "mesh");

    // Re-encoding the decoded request (with the flag mirrors
    // restored from the header) reproduces the identical bytes.
    WireRequest again = decoded.value();
    again.supervised =
        (header.value().flags & kFlagSupervised) != 0;
    again.priority = (header.value().flags & kFlagPriority) != 0;
    std::string frame2;
    encodeRequest(42, again, frame2);
    EXPECT_EQ(frame, frame2);
}

TEST(NetWire, ResponseRoundTripsByteIdentically)
{
    std::string frame;
    encodeResponse(7, sampleResponse(), frame);
    auto header = decodeHeader(frame);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header.value().type, FrameType::PredictResponse);

    auto decoded = decodeResponse(
        std::string_view(frame).substr(kHeaderBytes));
    ASSERT_TRUE(decoded.ok()) << decoded.error().toString();
    EXPECT_EQ(decoded.value().modelEpoch, 7u);
    EXPECT_EQ(decoded.value().threads, 16u);
    EXPECT_TRUE(decoded.value().servedByFallback);
    EXPECT_TRUE(decoded.value().hasError);
    EXPECT_EQ(decoded.value().errorMessage, "batch crashed");
    EXPECT_DOUBLE_EQ(decoded.value().predictedSeconds, 0.125);

    std::string frame2;
    encodeResponse(7, decoded.value(), frame2);
    EXPECT_EQ(frame, frame2);
}

TEST(NetWire, ControlFramesRoundTrip)
{
    // Every remaining frame kind: encode, decode, byte-identical
    // re-encode.
    struct ControlCase {
        const char *name;
        void (*encode)(uint64_t, std::string &);
        FrameType type;
    };
    const ControlCase cases[] = {
        {"ping", encodePing, FrameType::Ping},
        {"pong", encodePong, FrameType::Pong},
        {"statusz", encodeStatusz, FrameType::Statusz},
    };
    for (const auto &control : cases) {
        std::string frame;
        control.encode(11, frame);
        EXPECT_EQ(frame.size(), kHeaderBytes) << control.name;
        auto header = decodeHeader(frame);
        ASSERT_TRUE(header.ok()) << control.name;
        EXPECT_EQ(header.value().type, control.type) << control.name;
        EXPECT_EQ(header.value().payloadLen, 0u) << control.name;
        std::string frame2;
        control.encode(11, frame2);
        EXPECT_EQ(frame, frame2) << control.name;
    }

    std::string frame;
    encodeStatuszResponse(3, "{\"ok\":true}", frame);
    auto header = decodeHeader(frame);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header.value().type, FrameType::StatuszResponse);
    auto json = decodeStatuszResponse(
        std::string_view(frame).substr(kHeaderBytes));
    ASSERT_TRUE(json.ok());
    EXPECT_EQ(json.value(), "{\"ok\":true}");
}

TEST(NetWire, MalformedHeaderTable)
{
    // Fuzz table over every malformed-header class; each must come
    // back as a recoverable error — never a crash, never success.
    std::string good;
    encodeRequest(1, sampleRequest(), good);

    struct HeaderCase {
        const char *name;
        std::size_t offset;
        char value;
        ErrorCode expect;
    };
    const HeaderCase cases[] = {
        {"bad magic", 0, 'X', ErrorCode::Parse},
        {"version skew", 4, 9, ErrorCode::Parse},
        {"unknown frame type", 5, 99, ErrorCode::Parse},
        {"zero frame type", 5, 0, ErrorCode::Parse},
    };
    for (const auto &fuzz : cases) {
        std::string frame = good;
        frame[fuzz.offset] = fuzz.value;
        auto header = decodeHeader(frame);
        ASSERT_FALSE(header.ok()) << fuzz.name;
        EXPECT_EQ(header.error().code, fuzz.expect) << fuzz.name;
    }

    // Oversized declared length: stamp payloadLen > the cap.
    std::string frame = good;
    const uint32_t huge = kMaxPayloadBytes + 1;
    std::memcpy(frame.data() + 16, &huge, sizeof(huge));
    auto header = decodeHeader(frame);
    ASSERT_FALSE(header.ok());
    EXPECT_EQ(header.error().code, ErrorCode::OutOfRange);
}

TEST(NetWire, TruncatedAndOversizedPayloadTable)
{
    // Truncating the request payload at every byte boundary must be
    // a recoverable Parse error; so must trailing garbage (the
    // payload/declared-length mismatch class).
    std::string frame;
    encodeRequest(1, sampleRequest(), frame);
    const std::string_view payload =
        std::string_view(frame).substr(kHeaderBytes);

    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        auto decoded = decodeRequest(payload.substr(0, cut));
        ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
        EXPECT_EQ(decoded.error().code, ErrorCode::Parse)
            << "cut at " << cut;
    }
    std::string padded(payload);
    padded.push_back('\0');
    EXPECT_FALSE(decodeRequest(padded).ok());

    std::string response_frame;
    encodeResponse(2, sampleResponse(), response_frame);
    const std::string_view response_payload =
        std::string_view(response_frame).substr(kHeaderBytes);
    for (std::size_t cut = 0; cut < response_payload.size();
         cut += 3) {
        auto decoded = decodeResponse(response_payload.substr(0, cut));
        ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    }
    std::string response_padded(response_payload);
    response_padded.append("xy");
    EXPECT_FALSE(decodeResponse(response_padded).ok());

    // A string whose declared length runs past the payload end.
    std::string lying(payload);
    lying[28] = static_cast<char>(0xff); // workload length low byte
    lying[29] = static_cast<char>(0xff); // and high byte
    EXPECT_FALSE(decodeRequest(lying).ok());

    EXPECT_FALSE(decodeStatuszResponse("").ok());
}

TEST(NetWire, OversizedStatuszDocumentIsCappedToAStub)
{
    // A fleet document over the frame cap must not encode a frame
    // whose declared length the peer's own decodeHeader rejects —
    // statusz would self-break exactly when the fleet is widest.
    // Oversized documents ship as a small valid-JSON stub instead.
    const std::string huge(kMaxPayloadBytes + 1, 'x');
    std::string frame;
    encodeStatuszResponse(9, huge, frame);

    auto header = decodeHeader(frame);
    ASSERT_TRUE(header.ok()) << header.error().toString();
    EXPECT_EQ(header.value().type, FrameType::StatuszResponse);
    EXPECT_LE(header.value().payloadLen, kMaxPayloadBytes);

    auto payload = decodeStatuszResponse(
        std::string_view(frame).substr(kHeaderBytes));
    ASSERT_TRUE(payload.ok());
    EXPECT_NE(payload.value().find("\"statusz_truncated\":true"),
              std::string_view::npos);
    EXPECT_NE(payload.value().find(std::to_string(huge.size())),
              std::string_view::npos);

    // At the cap exactly, the document still ships verbatim.
    const std::string at_cap(kMaxPayloadBytes, 'y');
    std::string cap_frame;
    encodeStatuszResponse(10, at_cap, cap_frame);
    auto cap_header = decodeHeader(cap_frame);
    ASSERT_TRUE(cap_header.ok());
    EXPECT_EQ(cap_header.value().payloadLen, kMaxPayloadBytes);
}

// --- Consistent-hash router -----------------------------------------

TEST(NetRouter, DeterministicAcrossInstances)
{
    ShardRouter a(4), b(4);
    for (uint64_t key = 0; key < 4096; ++key)
        ASSERT_EQ(a.route(mix64(key)), b.route(mix64(key)));
}

TEST(NetRouter, SameFingerprintSameShard)
{
    // Two Graph objects with identical structure fingerprint alike
    // and therefore route alike — the warm-cache guarantee.
    const Graph g1 = generateMesh(512, 4, 1);
    const Graph g2 = generateMesh(512, 4, 1);
    ASSERT_EQ(mixFingerprint(g1.fingerprint()),
              mixFingerprint(g2.fingerprint()));
    ShardRouter router(8);
    EXPECT_EQ(router.route(mixFingerprint(g1.fingerprint())),
              router.route(mixFingerprint(g2.fingerprint())));
}

TEST(NetRouter, KeysSpreadAcrossShards)
{
    ShardRouter router(4);
    std::vector<std::size_t> hits(4, 0);
    const std::size_t keys = 20000;
    for (uint64_t key = 0; key < keys; ++key)
        ++hits[router.route(mix64(key))];
    for (std::size_t shard = 0; shard < hits.size(); ++shard) {
        // Each shard owns 25% in expectation; 64 vnodes keep the
        // spread well within [10%, 45%].
        EXPECT_GT(hits[shard], keys / 10) << "shard " << shard;
        EXPECT_LT(hits[shard], keys * 45 / 100) << "shard " << shard;
    }
}

TEST(NetRouter, ShardCountChangeMovesBoundedFraction)
{
    // Growing N -> N+1 must move about 1/(N+1) of the keys; modulo
    // routing would move ~N/(N+1). Assert we stay far below that.
    const std::size_t keys = 20000;
    for (std::size_t shards = 2; shards <= 6; ++shards) {
        ShardRouter before(shards), after(shards + 1);
        std::size_t moved = 0;
        for (uint64_t key = 0; key < keys; ++key)
            if (before.route(mix64(key)) != after.route(mix64(key)))
                ++moved;
        const double fraction =
            static_cast<double>(moved) / static_cast<double>(keys);
        const double theoretical =
            1.0 / static_cast<double>(shards + 1);
        EXPECT_GT(fraction, 0.0) << shards;
        // Allow 2x the theoretical fraction for vnode variance —
        // still a factor >= 2.6 below modulo's N/(N+1) reshuffle.
        EXPECT_LT(fraction, 2.0 * theoretical)
            << shards << " -> " << shards + 1;
    }
}

// --- Admission -------------------------------------------------------

constexpr int64_t kSecondNs = 1'000'000'000;

TEST(NetAdmissionTest, BurstThenQuotaRejected)
{
    AdmissionOptions options;
    options.clientRatePerSec = 10.0;
    options.clientBurst = 5.0;
    NetAdmission admission(options);

    int64_t now = kSecondNs;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(admission.admit(1, Lane::Normal, now),
                  AdmissionDecision::Admitted);
    EXPECT_EQ(admission.admit(1, Lane::Normal, now),
              AdmissionDecision::QuotaRejected);

    // 100 ms refills exactly one token at 10 rps.
    now += kSecondNs / 10;
    EXPECT_EQ(admission.admit(1, Lane::Normal, now),
              AdmissionDecision::Admitted);
    EXPECT_EQ(admission.admit(1, Lane::Normal, now),
              AdmissionDecision::QuotaRejected);

    EXPECT_EQ(admission.accepted(Lane::Normal), 6u);
    EXPECT_EQ(admission.quotaRejected(Lane::Normal), 2u);
}

TEST(NetAdmissionTest, ClientsAreIsolated)
{
    AdmissionOptions options;
    options.clientRatePerSec = 1.0;
    options.clientBurst = 2.0;
    NetAdmission admission(options);

    int64_t now = kSecondNs;
    EXPECT_EQ(admission.admit(1, Lane::Normal, now),
              AdmissionDecision::Admitted);
    EXPECT_EQ(admission.admit(1, Lane::Normal, now),
              AdmissionDecision::Admitted);
    EXPECT_EQ(admission.admit(1, Lane::Normal, now),
              AdmissionDecision::QuotaRejected);
    // Client 2's bucket is untouched by client 1's exhaustion.
    EXPECT_EQ(admission.admit(2, Lane::Normal, now),
              AdmissionDecision::Admitted);
}

TEST(NetAdmissionTest, ExplicitQuotaOverridesDefault)
{
    AdmissionOptions options;
    options.clientBurst = 1.0;
    NetAdmission admission(options);
    admission.setClientQuota(7, 100.0, 10.0);

    int64_t now = kSecondNs;
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(admission.admit(7, Lane::Normal, now),
                  AdmissionDecision::Admitted)
            << i;
    EXPECT_EQ(admission.admit(7, Lane::Normal, now),
              AdmissionDecision::QuotaRejected);
    // Default clients still get the 1-token burst.
    EXPECT_EQ(admission.admit(8, Lane::Normal, now),
              AdmissionDecision::Admitted);
    EXPECT_EQ(admission.admit(8, Lane::Normal, now),
              AdmissionDecision::QuotaRejected);
}

TEST(NetAdmissionTest, PriorityLaneBypassesNormalThrottle)
{
    AdmissionOptions options;
    options.clientRatePerSec = 1e6; // client quotas out of the way
    options.clientBurst = 1e6;
    options.normalLaneRatePerSec = 1.0;
    options.normalLaneBurst = 2.0;
    NetAdmission admission(options);

    int64_t now = kSecondNs;
    EXPECT_EQ(admission.admit(1, Lane::Normal, now),
              AdmissionDecision::Admitted);
    EXPECT_EQ(admission.admit(1, Lane::Normal, now),
              AdmissionDecision::Admitted);
    EXPECT_EQ(admission.admit(1, Lane::Normal, now),
              AdmissionDecision::LaneShed);
    // Priority traffic never draws from the normal-lane bucket.
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(admission.admit(1, Lane::Priority, now),
                  AdmissionDecision::Admitted);
    EXPECT_EQ(admission.laneShed(Lane::Normal), 1u);
    EXPECT_EQ(admission.accepted(Lane::Priority), 50u);
}

TEST(NetAdmissionTest, ClientTableIsBoundedWithPinnedSurvivors)
{
    AdmissionOptions options;
    options.maxTrackedClients = 8;
    NetAdmission admission(options);
    admission.setClientQuota(1000, 5.0, 1.0);

    int64_t now = kSecondNs;
    // Exhaust the pinned client's 1-token burst.
    EXPECT_EQ(admission.admit(1000, Lane::Normal, now),
              AdmissionDecision::Admitted);
    EXPECT_EQ(admission.admit(1000, Lane::Normal, now),
              AdmissionDecision::QuotaRejected);

    // Churn far more default clients than the table holds.
    for (uint64_t client = 0; client < 100; ++client)
        admission.admit(client, Lane::Normal, now);
    EXPECT_LE(admission.trackedClients(), 8u);

    // The pinned quota survived the LRU churn: still exhausted (an
    // evicted-and-recreated bucket would have a fresh burst).
    EXPECT_EQ(admission.admit(1000, Lane::Normal, now),
              AdmissionDecision::QuotaRejected);
}

TEST(NetAdmissionTest, ConcurrentInstancesAdmitIndependently)
{
    // Regression: the lane telemetry-counter caches were file-scope
    // and lazily filled under each instance's own mutex_, so two
    // admissions admitting concurrently in one process raced on the
    // shared pointer slots. They are per-instance now; running two
    // instances from two threads lets TSan vouch for it.
    AdmissionOptions options;
    options.clientRatePerSec = 0.0;
    options.clientBurst = 1000.0;
    NetAdmission first(options);
    NetAdmission second(options);

    auto hammer = [](NetAdmission &admission, uint64_t client) {
        for (int64_t i = 0; i < 500; ++i)
            admission.admit(client,
                            i % 2 ? Lane::Priority : Lane::Normal,
                            i);
    };
    std::thread one([&] { hammer(first, 1); });
    std::thread two([&] { hammer(second, 2); });
    one.join();
    two.join();

    EXPECT_EQ(first.accepted(Lane::Normal), 250u);
    EXPECT_EQ(first.accepted(Lane::Priority), 250u);
    EXPECT_EQ(second.accepted(Lane::Normal), 250u);
    EXPECT_EQ(second.accepted(Lane::Priority), 250u);
}

// --- Endpoints -------------------------------------------------------

TEST(NetSocket, EndpointParsing)
{
    auto tcp = parseEndpoint("tcp:127.0.0.1:7070");
    ASSERT_TRUE(tcp.ok());
    EXPECT_EQ(tcp.value().family, Endpoint::Family::Tcp);
    EXPECT_EQ(tcp.value().host, "127.0.0.1");
    EXPECT_EQ(tcp.value().port, 7070);

    auto implied = parseEndpoint("127.0.0.1:0");
    ASSERT_TRUE(implied.ok());
    EXPECT_EQ(implied.value().family, Endpoint::Family::Tcp);

    auto unix_ep = parseEndpoint("unix:/tmp/hm-test.sock");
    ASSERT_TRUE(unix_ep.ok());
    EXPECT_EQ(unix_ep.value().family, Endpoint::Family::Unix);
    EXPECT_EQ(unix_ep.value().path, "/tmp/hm-test.sock");

    EXPECT_FALSE(parseEndpoint("unix:").ok());
    EXPECT_FALSE(parseEndpoint("tcp:127.0.0.1:notaport").ok());
    EXPECT_FALSE(parseEndpoint("tcp:127.0.0.1:99999").ok());
    EXPECT_FALSE(parseEndpoint("justahost").ok());
}

// --- Statusz aggregation ---------------------------------------------

serve::ServiceStatus
shardStatus(uint64_t completed, uint64_t hits, uint64_t misses)
{
    serve::ServiceStatus status;
    status.completed = completed;
    status.statsHits = hits;
    status.statsMisses = misses;
    status.workers = 2;
    status.queueDepth = 1;
    status.queueCapacity = 10;
    return status;
}

TEST(NetStatusz, SharedPrefixCountsOnce)
{
    // All shards report under the shared "serve.stats_cache" names,
    // but each shard's status carries only its own counts: the fleet
    // roll-up counts each shard once, so equal per-shard readings add
    // up rather than collapsing into one.
    std::vector<serve::ServiceStatus> shards = {
        shardStatus(10, 100, 20),
        shardStatus(20, 100, 20),
        shardStatus(30, 100, 20),
    };
    const auto fleet = serve::aggregateStatusz(shards);
    EXPECT_EQ(fleet.completed, 60u);
    EXPECT_EQ(fleet.statsHits, 300u);
    EXPECT_EQ(fleet.statsMisses, 60u);
    EXPECT_EQ(fleet.workers, 6u);
    EXPECT_EQ(fleet.queueCapacity, 30u);
}

TEST(NetStatusz, DistinctPrefixesSum)
{
    // Every shard owns its request and stats-cache counters, so the
    // fleet roll-up is a plain sum.
    std::vector<serve::ServiceStatus> shards = {
        shardStatus(1, 40, 4),
        shardStatus(2, 50, 5),
        shardStatus(3, 60, 6),
        shardStatus(4, 70, 7),
    };
    const auto fleet = serve::aggregateStatusz(shards);
    EXPECT_EQ(fleet.completed, 1u + 2u + 3u + 4u);
    EXPECT_EQ(fleet.statsHits, 40u + 50u + 60u + 70u);
    EXPECT_EQ(fleet.statsMisses, 4u + 5u + 6u + 7u);
}

TEST(NetStatusz, FleetJsonCarriesShardBreakdown)
{
    std::vector<serve::ServiceStatus> shards = {
        shardStatus(5, 1, 1),
        shardStatus(6, 2, 2),
    };
    const std::string json = serve::fleetStatuszJson(shards);
    EXPECT_NE(json.find("\"type\":\"statusz\""), std::string::npos);
    EXPECT_NE(json.find("\"shard_count\":2"), std::string::npos);
    EXPECT_NE(json.find("\"fleet\":"), std::string::npos);
    EXPECT_NE(json.find("\"shards\":["), std::string::npos);
}

// --- Loopback end-to-end ---------------------------------------------

class NetLoopback : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setLogVerbose(false);
        oracle_ = std::make_unique<Oracle>();
        pair_ = pinnedPair(primaryPair());
        registry_ = std::make_unique<serve::ModelRegistry>(pair_,
                                                           *oracle_);
        registry_->publish(
            PredictorKind::DecisionTree,
            makePredictor(PredictorKind::DecisionTree));
    }

    /** Start a server on an ephemeral loopback port. */
    Endpoint
    startServer(ServerOptions options)
    {
        auto endpoint = parseEndpoint("tcp:127.0.0.1:0");
        options.endpoint = endpoint.value();
        server_ =
            std::make_unique<NetServer>(*registry_, options);
        server_->registerGraph("mesh",
                               std::make_shared<const Graph>(
                                   generateMesh(256, 4, 1)));
        server_->registerGraph(
            "social", std::make_shared<const Graph>(
                          generatePreferentialAttachment(256, 4, 7)));
        server_->registerGraph("road",
                               std::make_shared<const Graph>(
                                   generateRoadGrid(16, 16, 3)));
        auto bound = server_->start();
        EXPECT_TRUE(bound.ok()) << bound.error().toString();
        return bound.value();
    }

    serve::ServeRequest
    request(const char *workload, const char *graph_name)
    {
        serve::ServeRequest request;
        request.workload =
            std::shared_ptr<const Workload>(makeWorkload(workload));
        request.inputName = graph_name;
        return request;
    }

    Oracle *oraclePtr() { return oracle_.get(); }

    std::unique_ptr<Oracle> oracle_;
    AcceleratorPair pair_;
    std::unique_ptr<serve::ModelRegistry> registry_;
    std::unique_ptr<NetServer> server_;
};

TEST_F(NetLoopback, PingAndStatusz)
{
    const Endpoint endpoint = startServer(ServerOptions{});
    NetClient client(endpoint);
    EXPECT_TRUE(client.ping());
    auto statusz = client.statusz();
    ASSERT_TRUE(statusz.ok()) << statusz.error().toString();
    EXPECT_NE(statusz.value().find("\"shard_count\":2"),
              std::string::npos);
    server_->stop();
}

TEST_F(NetLoopback, ServesPredictionsOverTheWire)
{
    const Endpoint endpoint = startServer(ServerOptions{});
    NetClient client(endpoint);
    for (int i = 0; i < 8; ++i) {
        auto response =
            client.call(request(i % 2 ? "BFS" : "PR",
                                i % 2 ? "social" : "mesh"));
        ASSERT_EQ(response.status, serve::ServeStatus::Ok)
            << (response.error ? response.error->message : "");
        EXPECT_GT(response.modelEpoch, 0u);
        EXPECT_GT(response.deployment.config.activeThreads(), 0u);
    }
    EXPECT_EQ(client.transportErrors(), 0u);
    const ServerStats stats = server_->stats();
    EXPECT_EQ(stats.requestsSubmitted, 8u);
    EXPECT_EQ(stats.badFrames, 0u);
    server_->stop();
}

TEST_F(NetLoopback, ManyConcurrentClients)
{
    ServerOptions options;
    options.shards = 2;
    const Endpoint endpoint = startServer(options);

    constexpr int kClients = 8;
    constexpr int kPerClient = 6;
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            NetClientOptions client_options;
            client_options.clientId = 100 + t;
            NetClient client(endpoint, client_options);
            const char *graphs[] = {"mesh", "social", "road"};
            for (int i = 0; i < kPerClient; ++i) {
                auto response = client.call(
                    request("PR", graphs[(t + i) % 3]));
                if (response.status == serve::ServeStatus::Ok)
                    ok.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(ok.load(), kClients * kPerClient);
    server_->stop();
}

TEST_F(NetLoopback, UnknownGraphIsTerminalError)
{
    const Endpoint endpoint = startServer(ServerOptions{});
    NetClient client(endpoint);
    auto response = client.call(request("PR", "no-such-graph"));
    EXPECT_EQ(response.status, serve::ServeStatus::Error);
    ASSERT_TRUE(response.error.has_value());
    EXPECT_EQ(response.error->code, ErrorCode::OutOfRange);
    // The connection survives a catalogue miss.
    EXPECT_TRUE(client.ping());
    server_->stop();
}

TEST_F(NetLoopback, MalformedPayloadGetsParseErrorFrameBack)
{
    const Endpoint endpoint = startServer(ServerOptions{});
    auto connected = connectTo(endpoint);
    ASSERT_TRUE(connected.ok());
    OwnedFd fd = std::move(connected).value();

    // A well-formed header whose payload is garbage: the server must
    // answer with a Parse error response and keep the connection.
    std::string good;
    encodeRequest(5, sampleRequest(), good);
    std::string frame = good.substr(0, kHeaderBytes);
    frame.append(good.size() - kHeaderBytes, '\xff');
    ASSERT_TRUE(sendAll(fd.get(), frame.data(), frame.size()).ok());

    char header_bytes[kHeaderBytes];
    ASSERT_TRUE(recvAll(fd.get(), header_bytes, kHeaderBytes).ok());
    auto header = decodeHeader(
        std::string_view(header_bytes, kHeaderBytes));
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header.value().type, FrameType::PredictResponse);
    EXPECT_EQ(header.value().requestId, 5u);
    std::string payload(header.value().payloadLen, '\0');
    ASSERT_TRUE(
        recvAll(fd.get(), payload.data(), payload.size()).ok());
    auto decoded = decodeResponse(payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value().hasError);
    EXPECT_EQ(static_cast<ErrorCode>(decoded.value().errorCode),
              ErrorCode::Parse);
    server_->stop();
}

TEST_F(NetLoopback, BadMagicClosesConnection)
{
    const Endpoint endpoint = startServer(ServerOptions{});
    auto connected = connectTo(endpoint);
    ASSERT_TRUE(connected.ok());
    OwnedFd fd = std::move(connected).value();

    std::string junk(kHeaderBytes, 'Z');
    ASSERT_TRUE(sendAll(fd.get(), junk.data(), junk.size()).ok());
    // The server closes: the next read returns EOF (recoverable).
    char byte;
    EXPECT_FALSE(recvAll(fd.get(), &byte, 1).ok());
    EXPECT_GE(server_->stats().badFrames, 1u);
    server_->stop();
}

/** TCP_NODELAY as set on @p fd, or -1 if it cannot be read. */
int
noDelayOf(int fd)
{
    int value = 0;
    socklen_t len = sizeof(value);
    if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0)
        return -1;
    return value != 0 ? 1 : 0;
}

TEST_F(NetLoopback, AcceptedTcpSocketsDisableNagle)
{
    // Without TCP_NODELAY on the server's end, a response frame can
    // sit behind the client's delayed ACK (the client end already
    // set it). The server runs in this process, so its accepted
    // socket is one of our fds: find it by its peer address.
    const Endpoint endpoint = startServer(ServerOptions{});
    auto connected = connectTo(endpoint);
    ASSERT_TRUE(connected.ok());
    OwnedFd client = std::move(connected).value();
    EXPECT_EQ(noDelayOf(client.get()), 1);

    // A ping round trip proves the server has accepted us.
    std::string frame;
    encodePing(1, frame);
    ASSERT_TRUE(sendAll(client.get(), frame.data(), frame.size()).ok());
    char header[kHeaderBytes];
    ASSERT_TRUE(recvAll(client.get(), header, sizeof(header)).ok());

    sockaddr_in local{};
    socklen_t local_len = sizeof(local);
    ASSERT_EQ(::getsockname(client.get(),
                            reinterpret_cast<sockaddr *>(&local),
                            &local_len),
              0);
    int accepted = -1;
    for (int fd = 0; fd < 4096 && accepted < 0; ++fd) {
        sockaddr_in peer{};
        socklen_t peer_len = sizeof(peer);
        if (fd != client.get() &&
            ::getpeername(fd, reinterpret_cast<sockaddr *>(&peer),
                          &peer_len) == 0 &&
            peer.sin_family == AF_INET &&
            peer.sin_port == local.sin_port &&
            peer.sin_addr.s_addr == local.sin_addr.s_addr) {
            accepted = fd;
        }
    }
    ASSERT_GE(accepted, 0) << "server end of the connection not found";
    EXPECT_EQ(noDelayOf(accepted), 1);
    server_->stop();
}

TEST_F(NetLoopback, SlowReaderDisconnectMidPipelineIsSafe)
{
    // Regression: a send failure or backlog overflow inside
    // dispatchFrame used to closeConnection() while parseFrames was
    // still holding the Connection& — a use-after-free (caught by
    // ASan) when a client pipelined requests and then stopped
    // reading. The close is deferred to the top of the loop now.
    ServerOptions options;
    options.maxWriteBacklogBytes = 4096;
    const Endpoint endpoint = startServer(options);
    auto connected = connectTo(endpoint);
    ASSERT_TRUE(connected.ok());
    OwnedFd fd = std::move(connected).value();
    // Shrink the receive window so the server's responses overrun
    // kernel buffering (and then the backlog bound) quickly.
    const int rcvbuf = 4096;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                 sizeof rcvbuf);

    // Pipeline statusz requests in big batches and never read a
    // byte back: each response is a sizeable JSON document, so once
    // the kernel's buffers fill (sndbuf autotunes up to ~4 MiB),
    // the write backlog overflows while later frames from the same
    // read buffer are still being dispatched. Keep feeding until
    // the server cuts the connection (our send then fails) so the
    // test is independent of the machine's buffer limits.
    std::string batch;
    for (uint64_t i = 0; i < 256; ++i)
        encodeStatusz(i, batch);
    for (int round = 0; round < 256; ++round) {
        if (!sendAll(fd.get(), batch.data(), batch.size()).ok())
            break;
        if (server_->stats().slowReaderDisconnects > 0)
            break;
    }

    for (int spin = 0;
         spin < 400 && server_->stats().slowReaderDisconnects == 0;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const ServerStats stats = server_->stats();
    EXPECT_GE(stats.slowReaderDisconnects, 1u);
    // framesSent counts only frames fully flushed to the socket:
    // the discarded backlog of a disconnected slow reader was never
    // sent (it used to be counted at queue time).
    EXPECT_LT(stats.framesSent, stats.framesReceived);
    server_->stop();
}

TEST_F(NetLoopback, RoutingKeepsPerShardCachesHot)
{
    ServerOptions options;
    options.shards = 3;
    options.shard.maxBatchDelayMs = 0.0;
    const Endpoint endpoint = startServer(options);

    const char *graphs[] = {"mesh", "social", "road"};
    NetClient client(endpoint);
    for (int round = 0; round < 6; ++round)
        for (const char *graph_name : graphs)
            ASSERT_EQ(client.call(request("PR", graph_name)).status,
                      serve::ServeStatus::Ok);

    // Every graph hits one shard deterministically, so each shard's
    // cache sees at most one miss per distinct graph it owns and
    // the fleet-wide miss count stays at the distinct-graph count.
    uint64_t hits = 0, misses = 0;
    for (std::size_t shard = 0; shard < server_->shards(); ++shard) {
        const auto status = server_->shard(shard).statusz();
        hits += status.statsHits;
        misses += status.statsMisses;
    }
    EXPECT_LE(misses, 3u);
    EXPECT_GE(hits, 18u - 3u);
    server_->stop();
}

TEST_F(NetLoopback, QuotaLimitedClientShedsWhileOthersServe)
{
    ServerOptions options;
    options.admission.clientRatePerSec = 0.001; // effectively none
    options.admission.clientBurst = 3.0;
    const Endpoint endpoint = startServer(options);

    NetClientOptions limited;
    limited.clientId = 1;
    NetClient limited_client(endpoint, limited);
    int ok = 0, quota_shed = 0;
    for (int i = 0; i < 10; ++i) {
        auto response = limited_client.call(request("PR", "mesh"));
        if (response.status == serve::ServeStatus::Ok)
            ++ok;
        else if (response.status == serve::ServeStatus::Shed &&
                 response.shedReason ==
                     serve::ShedReason::QuotaExceeded)
            ++quota_shed;
    }
    EXPECT_EQ(ok, 3);
    EXPECT_EQ(quota_shed, 7);

    // A different client id has its own untouched bucket.
    NetClientOptions fresh;
    fresh.clientId = 2;
    NetClient fresh_client(endpoint, fresh);
    EXPECT_EQ(fresh_client.call(request("PR", "mesh")).status,
              serve::ServeStatus::Ok);

    EXPECT_EQ(server_->admission().quotaRejected(Lane::Normal), 7u);
    server_->stop();
}

TEST_F(NetLoopback, MultiTenantQuotaShedsOnlyPinnedTenants)
{
    // A fixed-seed, Zipf-like tenant mix over four shared
    // connections: every call sets its own tenant and lane, so each
    // connection carries many tenants. The three hottest tenants are
    // pinned to a quota that runs dry after five requests; everyone
    // else keeps a generous default and must never shed.
    constexpr std::size_t kConns = 4;
    constexpr std::size_t kPerConn = 50;
    constexpr std::size_t kTenants = 200;
    constexpr uint64_t kPinned = 3;
    constexpr uint64_t kPinnedBurst = 5;
    ServerOptions options;
    options.admission.clientRatePerSec = 1e6;
    options.admission.clientBurst = 1e6;
    const Endpoint endpoint = startServer(options);
    for (uint64_t tenant = 0; tenant < kPinned; ++tenant)
        server_->admission().setClientQuota(tenant, 0.001,
                                            kPinnedBurst);

    std::vector<double> zipf; // s = 1.1: tenant 0 is the hottest
    for (std::size_t rank = 1; rank <= kTenants; ++rank)
        zipf.push_back(std::pow(static_cast<double>(rank), -1.1));

    std::atomic<uint64_t> transport_errors{0}, errors{0}, sheds{0};
    std::atomic<uint64_t> pinned_quota_sheds{0}, unpinned_sheds{0};
    std::atomic<uint64_t> priority_sent{0}, stray_priority_sheds{0};
    std::atomic<uint64_t> pinned_sent[kPinned] = {};
    std::vector<std::thread> connections;
    for (std::size_t conn = 0; conn < kConns; ++conn) {
        connections.emplace_back([&, conn] {
            Rng rng(7 * 7919 + conn);
            NetClient client(endpoint);
            const char *graphs[] = {"mesh", "social", "road"};
            for (std::size_t i = 0; i < kPerConn; ++i) {
                const std::size_t tenant = rng.nextDiscrete(zipf);
                const bool priority = rng.nextBool(0.1);
                const bool pinned = tenant < kPinned;
                client.setClientId(tenant);
                client.setPriority(priority);
                if (pinned)
                    pinned_sent[tenant].fetch_add(1);
                if (priority)
                    priority_sent.fetch_add(1);
                auto response = client.call(request(
                    i % 2 ? "BFS" : "PR", graphs[tenant % 3]));
                if (response.status == serve::ServeStatus::Ok)
                    continue;
                if (response.status != serve::ServeStatus::Shed) {
                    errors.fetch_add(1);
                    continue;
                }
                sheds.fetch_add(1);
                const bool quota = response.shedReason ==
                                   serve::ShedReason::QuotaExceeded;
                if (pinned && quota)
                    pinned_quota_sheds.fetch_add(1);
                if (!pinned)
                    unpinned_sheds.fetch_add(1);
                // The per-tenant quota covers both lanes, so a shed
                // priority request must be a pinned tenant's quota
                // shed; nothing else may shed the priority lane.
                if (priority && !(pinned && quota))
                    stray_priority_sheds.fetch_add(1);
            }
            transport_errors.fetch_add(client.transportErrors());
        });
    }
    for (auto &connection : connections)
        connection.join();

    // Each pinned bucket starts at its burst and refills at a
    // thousandth of a token per second, so every request past the
    // burst is shed.
    uint64_t expected_quota_sheds = 0;
    for (const auto &sent : pinned_sent)
        expected_quota_sheds +=
            sent.load() > kPinnedBurst ? sent.load() - kPinnedBurst : 0;
    ASSERT_GT(expected_quota_sheds, 0u);
    ASSERT_GT(priority_sent.load(), 0u);

    EXPECT_EQ(transport_errors.load(), 0u);
    EXPECT_EQ(errors.load(), 0u);
    EXPECT_EQ(pinned_quota_sheds.load(), expected_quota_sheds);
    EXPECT_EQ(unpinned_sheds.load(), 0u);
    EXPECT_EQ(stray_priority_sheds.load(), 0u);
    EXPECT_EQ(server_->admission().quotaRejected(Lane::Normal) +
                  server_->admission().quotaRejected(Lane::Priority),
              sheds.load());
    server_->stop();
}

TEST_F(NetLoopback, TransportErrorsWalkTheBreakerLadder)
{
    // Satellite: a reset connection must come back as a ServeError
    // (Unavailable) through NetClient, and consecutive transport
    // failures must trip the RetryingClient breaker — never throw.
    ServerOptions options;
    const Endpoint endpoint = startServer(options);
    auto registry_transport_errors = [] {
        const telemetry::MetricsSnapshot snap =
            telemetry::registry().snapshot();
        auto found = snap.counters.find("client.transport_errors");
        return found == snap.counters.end() ? 0 : found->second;
    };
    const uint64_t registry_before = registry_transport_errors();

    NetClientOptions client_options;
    client_options.autoReconnect = true;
    NetClient backend(endpoint, client_options);
    serve::RetryOptions retry;
    retry.maxAttempts = 2;
    retry.initialBackoffMs = 0.0;
    retry.maxBackoffMs = 0.0;
    retry.breakerThreshold = 2;
    serve::RetryingClient client(backend, retry);
    client.setSleeper([](double) {});

    // Healthy path first.
    auto healthy = client.call(request("PR", "mesh"));
    ASSERT_EQ(healthy.response.status, serve::ServeStatus::Ok);

    // Kill the server: every subsequent attempt is a transport
    // error. ECONNREFUSED on reconnect keeps the error supply going.
    server_->stop();
    for (int i = 0; i < 2; ++i) {
        auto result = client.call(request("PR", "mesh"));
        EXPECT_EQ(result.response.status, serve::ServeStatus::Error);
        ASSERT_TRUE(result.response.error.has_value());
        EXPECT_EQ(result.response.error->code,
                  ErrorCode::Unavailable);
        EXPECT_EQ(result.attempts, 2u); // retried, then gave up
    }
    EXPECT_GT(backend.transportErrors(), 0u);
    // The registry reports each transport error once (OFF builds
    // report nothing).
    if (telemetry::enabled()) {
        EXPECT_EQ(registry_transport_errors() - registry_before,
                  backend.transportErrors());
    }
    EXPECT_EQ(client.laneState(serve::ClientLane::Fast),
              serve::CircuitState::Open);

    // With the breaker open the client fast-fails without touching
    // the dead endpoint.
    auto shed = client.call(request("PR", "mesh"));
    EXPECT_TRUE(shed.breakerFastFail);
    EXPECT_EQ(shed.response.shedReason,
              serve::ShedReason::CircuitOpen);
}

TEST_F(NetLoopback, UnixSocketServes)
{
    const std::string path = "/tmp/hm-test-net-" +
                             std::to_string(::getpid()) + ".sock";
    ServerOptions options;
    options.endpoint = parseEndpoint("unix:" + path).value();
    server_ = std::make_unique<NetServer>(*registry_, options);
    server_->registerGraph("mesh", std::make_shared<const Graph>(
                                       generateMesh(256, 4, 1)));
    auto bound = server_->start();
    ASSERT_TRUE(bound.ok()) << bound.error().toString();

    NetClient client(bound.value());
    EXPECT_TRUE(client.ping());
    EXPECT_EQ(client.call(request("PR", "mesh")).status,
              serve::ServeStatus::Ok);
    server_->stop();
    ::unlink(path.c_str());
}

TEST_F(NetLoopback, ShardForGraphMatchesRouter)
{
    ServerOptions options;
    options.shards = 4;
    startServer(options);
    const Graph mesh = generateMesh(256, 4, 1);
    const std::size_t shard = server_->shardForGraph(mesh);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard,
              server_->router().route(
                  mixFingerprint(mesh.fingerprint())));
    server_->stop();
}

} // namespace
} // namespace net
} // namespace heteromap
