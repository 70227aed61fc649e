/**
 * @file
 * Tests of the benchmark's own machinery: schedules are a pure
 * function of (mix, seed), responses are matched by id however they
 * come back, and sheds and transport failures count as failed
 * requests that miss every latency limit.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "arch/presets.hh"
#include "core/experiment.hh"
#include "core/oracle.hh"
#include "driver.hh"
#include "net/server.hh"
#include "replay.hh"
#include "schedule.hh"
#include "serve/model_registry.hh"
#include "stats.hh"
#include "util/logging.hh"

using namespace servebench;
namespace hm = heteromap;
namespace net = heteromap::net;

namespace {

constexpr Mix kMixes[] = {Mix::Hot, Mix::Churn, Mix::Mixed, Mix::Trickle};

/** A running two-shard server over a catalogue, plus its model. */
struct Fixture {
    hm::Oracle oracle;
    hm::serve::ModelRegistry registry{hm::pinnedPair(hm::primaryPair()),
                                      oracle};
    Catalogue catalogue;
    std::unique_ptr<net::NetServer> server;
    net::Endpoint endpoint;

    explicit Fixture(const std::vector<GraphSpec> &specs)
    {
        hm::setLogVerbose(false);
        registry.publish(hm::PredictorKind::DecisionTree,
                         hm::makePredictor(hm::PredictorKind::DecisionTree));
        net::ServerOptions options;
        options.endpoint = net::parseEndpoint("tcp:127.0.0.1:0").value();
        options.admission.clientRatePerSec = 1e9;
        options.admission.clientBurst = 1e9;
        server = std::make_unique<net::NetServer>(registry, options);
        for (const GraphSpec &spec : specs) {
            catalogue.names.push_back(spec.name);
            catalogue.graphs.push_back(
                std::make_shared<const hm::Graph>(buildGraph(spec)));
            server->registerGraph(spec.name, catalogue.graphs.back());
        }
        endpoint = server->start().value();
    }

    ~Fixture() { server->stop(); }
};

} // namespace

TEST(Schedule, SameSeedSameScheduleOtherSeedOther)
{
    for (Mix mix : kMixes) {
        const Schedule a = makeSchedule(mix, 7, 2.0);
        const Schedule b = makeSchedule(mix, 7, 2.0);
        const Schedule c = makeSchedule(mix, 8, 2.0);
        EXPECT_EQ(a.warmup, b.warmup) << mixName(mix);
        EXPECT_EQ(a.timed, b.timed) << mixName(mix);
        EXPECT_EQ(a.dueNs, b.dueNs) << mixName(mix);
        EXPECT_NE(a.timed, c.timed) << mixName(mix);
        EXPECT_FALSE(a.warmup.empty());
        EXPECT_FALSE(a.timed.empty());
    }
}

TEST(Schedule, OpenLoopArrivalsFillTheWindowAtTheRate)
{
    const Schedule schedule = makeSchedule(Mix::Trickle, 3, 4.0);
    ASSERT_TRUE(schedule.openLoop);
    ASSERT_EQ(schedule.dueNs.size(), schedule.timed.size());
    EXPECT_EQ(schedule.dueNs.size(), 2000u); // 500 req/s x 4 s
    EXPECT_GE(schedule.dueNs.front(), 0);
    EXPECT_LT(schedule.dueNs.back(), 4'000'000'000);
    EXPECT_TRUE(std::is_sorted(schedule.dueNs.begin(), schedule.dueNs.end()));
    for (const Request &request : schedule.timed)
        EXPECT_FALSE(request.heavy);
}

TEST(Schedule, ChurnRevisitsAGraphOnlyAfterAllOthers)
{
    const Schedule schedule = makeSchedule(Mix::Churn, 5, 1.0);
    const std::size_t graphs = catalogueFor(Mix::Churn).size();
    ASSERT_GE(schedule.timed.size(), 2 * graphs);
    for (std::size_t start : {std::size_t{0}, std::size_t{100}}) {
        std::set<uint32_t> seen;
        for (std::size_t i = start; i < start + graphs; ++i)
            seen.insert(schedule.timed[i].graph);
        EXPECT_EQ(seen.size(), graphs);
    }
}

TEST(Schedule, MixedHeavyRequestsAreRareAndNeverShareAMeasureSeed)
{
    const Schedule schedule = makeSchedule(Mix::Mixed, 11, 1.0);
    std::set<uint64_t> seeds;
    std::size_t heavy = 0;
    for (const Request &request : schedule.timed) {
        if (!request.heavy)
            continue;
        ++heavy;
        EXPECT_TRUE(seeds.insert(request.measureSeed).second);
        EXPECT_EQ(request.graph, catalogueFor(Mix::Mixed).size() - 1);
    }
    const double share =
        static_cast<double>(heavy) / static_cast<double>(schedule.timed.size());
    EXPECT_GT(share, 0.005);
    EXPECT_LT(share, 0.02);
}

TEST(Driver, MatchesOutOfOrderResponsesAcrossShards)
{
    // One heavy request on one shard, then light requests that route
    // to the other shard, all on one connection: the light answers
    // overtake the heavy one.
    using F = GraphSpec::Family;
    std::vector<GraphSpec> specs = {{"heavy", F::Mesh, 16384, 11}};
    for (uint64_t seed = 1; seed <= 8; ++seed)
        specs.push_back({"light-" + std::to_string(seed), F::Mesh, 1024,
                         seed});
    Fixture fixture(specs);
    const std::size_t heavy_shard =
        fixture.server->shardForGraph(*fixture.catalogue.graphs[0]);

    std::vector<Request> sequence = {{0, 2, false, true, 4242}};
    for (uint32_t g = 1; g < specs.size(); ++g) {
        if (fixture.server->shardForGraph(*fixture.catalogue.graphs[g]) !=
            heavy_shard) {
            sequence.push_back({g, 3, false, false, 0});
        }
    }
    ASSERT_GE(sequence.size(), 2u) << "no graph routes to the other shard";

    Driver driver(fixture.endpoint, 1, fixture.catalogue.names);
    ASSERT_TRUE(driver.connected());
    LoopSpec spec;
    spec.outstanding = sequence.size();
    // Warm the light graphs' stats first: a cold light measurement
    // would queue behind the heavy one's sweeps on the shared pool.
    const std::vector<Request> light(sequence.begin() + 1, sequence.end());
    ASSERT_EQ(tally(driver.run(light, spec).outcomes).ok, light.size());
    const RunResult run = driver.run(sequence, spec);

    ASSERT_EQ(run.outcomes.size(), sequence.size());
    EXPECT_EQ(run.protocolErrors, 0u);
    const auto framework = fixture.registry.current()->framework;
    bool overtaken = false;
    for (const Outcome &outcome : run.outcomes) {
        ASSERT_TRUE(outcome.ok());
        EXPECT_TRUE(matches(outcome, expectedFor(sequence[outcome.index],
                                                 fixture.catalogue,
                                                 *framework)));
        overtaken = overtaken || (outcome.index > 0 &&
                                  outcome.recvNs < run.outcomes[0].recvNs);
    }
    EXPECT_TRUE(overtaken);
}

TEST(Driver, ShedRequestsCountAsFailedAndMissEveryLimit)
{
    Fixture fixture({{"g", GraphSpec::Family::Mesh, 1024, 1}});
    // One token, never refilled in time: the rest are quota-shed.
    fixture.server->admission().setClientQuota(1, 1e-6, 1.0);
    Driver driver(fixture.endpoint, 1, fixture.catalogue.names);
    ASSERT_TRUE(driver.connected());
    const std::vector<Request> sequence(5, Request{0, 2, false, false, 0});
    LoopSpec spec;
    spec.outstanding = 1;
    const RunResult run = driver.run(sequence, spec);

    const Tally counts = tally(run.outcomes);
    EXPECT_EQ(counts.attempted, 5u);
    EXPECT_EQ(counts.ok, 1u);
    EXPECT_EQ(counts.shed, 4u);
    EXPECT_EQ(counts.failed(), 4u);
    std::vector<double> latencies;
    for (const Outcome &outcome : run.outcomes)
        latencies.push_back(outcome.latencyMs());
    EXPECT_TRUE(std::isfinite(quantile(latencies, 0.2)));
    EXPECT_TRUE(std::isinf(quantile(latencies, 0.5)));
}

TEST(Driver, TransportFailuresCountAsFailedAndMissEveryLimit)
{
    // A peer that accepts, then resets without answering.
    auto listener =
        net::listenOn(net::parseEndpoint("tcp:127.0.0.1:0").value());
    ASSERT_TRUE(listener.ok());
    const int listen_fd = listener.value().get();
    const net::Endpoint endpoint =
        net::localEndpoint(listen_fd,
                           net::parseEndpoint("tcp:127.0.0.1:0").value())
            .value();
    const std::vector<std::string> names = {"g"};
    Driver driver(endpoint, 1, names);
    ASSERT_TRUE(driver.connected());
    std::thread peer([&] {
        int fd = -1;
        while ((fd = ::accept(listen_fd, nullptr, nullptr)) < 0)
            std::this_thread::yield();
        char buf[64];
        while (::recv(fd, buf, sizeof(buf), 0) <= 0)
            std::this_thread::yield();
        ::close(fd);
    });

    const std::vector<Request> sequence(3, Request{});
    LoopSpec spec;
    spec.outstanding = 3;
    const RunResult run = driver.run(sequence, spec);
    peer.join();

    const Tally counts = tally(run.outcomes);
    EXPECT_EQ(counts.attempted, 3u);
    EXPECT_EQ(counts.transport, 3u);
    EXPECT_EQ(counts.failed(), 3u);
    for (const Outcome &outcome : run.outcomes)
        EXPECT_TRUE(std::isinf(outcome.latencyMs()));
}
