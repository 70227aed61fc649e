/**
 * @file
 * Serving benchmark: starts an in-process NetServer on loopback TCP
 * with the shipped shape (2 shards x 2 workers, default
 * ServiceOptions, the decision-tree model), drives it from one
 * epoll thread over 4 connections with one traffic mix, checks every
 * answer against HeteroMap::deploy, and prints one JSON result line.
 *
 *   servebench --workload hot|churn|mixed|trickle --seed N
 *              --seconds S --trace 0|1 [--trace-out FILE]
 *
 * --trace 0 reports the end-to-end metrics of one untraced window.
 * --trace 1 runs an untraced window, then a traced one, replays a
 * request sample through each layer, writes the span file, and
 * reports the per-layer split. Exit status 1 on an output mismatch
 * or a failed premise check, 2 on bad arguments or a failed set-up.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

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
#include "util/trace.hh"

using namespace servebench;
namespace hm = heteromap;
namespace net = heteromap::net;

namespace {

/** Client connections (one per core of the target machine). */
constexpr std::size_t kConnections = 4;

/** Set-ups per run (see setupSeconds). */
constexpr int kSetups = 7;

/** Requests the layer replay passes through each stage. */
constexpr std::size_t kReplaySample = 256;

/** Samples the reported p99 must leave beyond it. */
constexpr std::size_t kTailSamples = 50;

/** Length of the slices a window is ranked in (see endToEnd). */
constexpr double kSliceSeconds = 0.1;

/** Foreground samples kept even when the slices free of stolen time
 *  hold fewer: 100 beyond p99. */
constexpr std::size_t kMinKeptSamples = 10000;

/** Largest quantile ratio across a reported percentile's tail x2
 *  band that still counts as one mode. */
constexpr double kModeJump = 2.5;

/** Threads computing the output check's reference deployments. */
constexpr std::size_t kCheckThreads = 4;

struct Args {
    Mix mix = Mix::Hot;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "servebench: " << why
              << "\nusage: servebench --workload hot|churn|mixed|trickle"
                 " --seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload") {
            const auto mix = mixFromName(value);
            if (!mix)
                usage("unknown workload " + value);
            args.mix = *mix;
            have_workload = true;
        } else if (arg == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (arg == "--trace") {
            args.trace = value == "1";
        } else if (arg == "--trace-out") {
            args.traceOut = value;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

double
secondsSince(int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** One "Key:   value kB" line of /proc/self/status. */
long
procStatus(const char *key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(key);
    while (std::getline(status, line)) {
        if (line.compare(0, len, key) == 0 && line.size() > len &&
            line[len] == ':')
            return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
    return -1;
}

/** This process's CPU time and the machine's CPU ticks. */
struct Clocks {
    double cpuMs = 0.0; //!< user + sys, every thread
    double ctxSwitches = 0.0;
    /** Machine-wide ticks, all and stolen by the hypervisor. */
    double machineTicks = 0.0, stealTicks = 0.0;

    static Clocks
    read()
    {
        Clocks clocks;
        rusage usage{};
        ::getrusage(RUSAGE_SELF, &usage);
        auto ms = [](const timeval &tv) {
            return static_cast<double>(tv.tv_sec) * 1e3 +
                   static_cast<double>(tv.tv_usec) * 1e-3;
        };
        clocks.cpuMs = ms(usage.ru_utime) + ms(usage.ru_stime);
        clocks.ctxSwitches =
            static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw);
        std::ifstream stat("/proc/stat");
        std::string cpu;
        stat >> cpu;
        for (int field = 0; field < 10 && stat; ++field) {
            double ticks = 0.0;
            stat >> ticks;
            clocks.machineTicks += ticks;
            if (field == 7)
                clocks.stealTicks = ticks;
        }
        return clocks;
    }
};

/** Share of the machine's CPU ticks stolen between two reads. */
double
stolenShare(const Clocks &from, const Clocks &to)
{
    const double ticks = to.machineTicks - from.machineTicks;
    return ticks > 0 ? (to.stealTicks - from.stealTicks) / ticks : 0.0;
}

/**
 * setup_s from (stolen share, seconds) per set-up: the median over
 * the set-ups during which the hypervisor stole no CPU, or over the
 * least-stolen half when fewer than half were free of it. The same
 * host filter as endToEnd's: stolen time says nothing about the
 * program.
 */
double
setupSeconds(std::vector<std::pair<double, double>> setups)
{
    std::stable_sort(setups.begin(), setups.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::size_t kept = (setups.size() + 1) / 2;
    while (kept < setups.size() && setups[kept].first == 0.0)
        ++kept;
    std::vector<double> seconds;
    for (std::size_t i = 0; i < kept; ++i)
        seconds.push_back(setups[i].second);
    return median(seconds);
}

/** Server counters and clocks read around a window. */
struct Sample {
    Clocks clocks;
    uint64_t submitted = 0, shed = 0, statsHits = 0, statsMisses = 0;
    uint64_t quotaRejected = 0, laneShed = 0;

    static Sample
    take(net::NetServer &server)
    {
        Sample sample;
        sample.clocks = Clocks::read();
        for (std::size_t k = 0; k < server.shards(); ++k) {
            const auto status = server.shard(k).statusz();
            sample.submitted += status.submitted;
            sample.shed += status.shed;
            sample.statsHits += status.statsHits;
            sample.statsMisses += status.statsMisses;
        }
        for (net::Lane lane : {net::Lane::Normal, net::Lane::Priority}) {
            sample.quotaRejected += server.admission().quotaRejected(lane);
            sample.laneShed += server.admission().laneShed(lane);
        }
        return sample;
    }
};

/**
 * Reads Clocks at a window's start and every kSliceSeconds after it,
 * on a thread of its own so the driver loop stays untouched.
 */
class SliceSampler
{
  public:
    explicit SliceSampler(int64_t origin_ns)
        : thread_([this, origin_ns] { loop(origin_ns); })
    {
    }

    ~SliceSampler() { stop(); }

    SliceSampler(const SliceSampler &) = delete;
    SliceSampler &operator=(const SliceSampler &) = delete;

    /** Stop sampling; @return the reads, one per slice boundary. */
    std::vector<Clocks>
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
        return samples_;
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;           //!< guarded by mutex_
    std::vector<Clocks> samples_; //!< sampler thread only until joined
    std::thread thread_;

    void
    loop(int64_t origin_ns)
    {
        const auto origin = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(origin_ns));
        for (int k = 0;; ++k) {
            std::unique_lock<std::mutex> lock(mutex_);
            if (cv_.wait_until(lock,
                               origin + std::chrono::duration<double>(
                                            k * kSliceSeconds),
                               [this] { return stop_; }))
                return;
            lock.unlock();
            samples_.push_back(Clocks::read());
        }
    }
};

/** One timed window: the driver's view plus counter deltas. */
struct Window {
    RunResult run;
    Sample before, after;
    int64_t originNs = 0;       //!< slice 0 starts here
    std::vector<Clocks> slices; //!< reads at each slice boundary
    long threads = 0;

    double
    cpuMsPerOk() const
    {
        const auto ok = static_cast<double>(tally(run.outcomes).ok);
        return ok > 0 ? (after.clocks.cpuMs - before.clocks.cpuMs) / ok
                      : 0.0;
    }

    double
    hitRatio() const
    {
        const double hits =
            static_cast<double>(after.statsHits - before.statsHits);
        const double misses =
            static_cast<double>(after.statsMisses - before.statsMisses);
        return hits + misses > 0 ? hits / (hits + misses) : 0.0;
    }
};

/** One set-up: catalogue, model, server, connections, warm-up. */
struct Setup {
    Catalogue catalogue;
    std::unique_ptr<hm::serve::ModelRegistry> registry;
    std::unique_ptr<net::NetServer> server;
    std::unique_ptr<Driver> driver;
    bool ok = false;
    std::string error;

    ~Setup()
    {
        driver.reset(); // close client sockets before the server stops
        if (server)
            server->stop();
    }
};

std::unique_ptr<Setup>
setUp(const Schedule &schedule, const hm::Oracle &oracle)
{
    auto setup = std::make_unique<Setup>();
    for (const GraphSpec &spec : catalogueFor(schedule.mix)) {
        setup->catalogue.names.push_back(spec.name);
        setup->catalogue.graphs.push_back(
            std::make_shared<const hm::Graph>(buildGraph(spec)));
    }

    setup->registry = std::make_unique<hm::serve::ModelRegistry>(
        hm::pinnedPair(hm::primaryPair()), oracle);
    setup->registry->publish(hm::PredictorKind::DecisionTree,
                             hm::makePredictor(
                                 hm::PredictorKind::DecisionTree));

    net::ServerOptions options;
    options.endpoint = net::parseEndpoint("tcp:127.0.0.1:0").value();
    // Quotas far above any reachable rate: nothing is quota-shed.
    options.admission.clientRatePerSec = 1e9;
    options.admission.clientBurst = 1e9;
    setup->server =
        std::make_unique<net::NetServer>(*setup->registry, options);
    for (std::size_t i = 0; i < setup->catalogue.names.size(); ++i) {
        setup->server->registerGraph(setup->catalogue.names[i],
                                     setup->catalogue.graphs[i]);
    }
    auto bound = setup->server->start();
    if (!bound.ok()) {
        setup->error = "server start: " + bound.error().toString();
        return setup;
    }
    setup->driver = std::make_unique<Driver>(
        bound.value(), kConnections, setup->catalogue.names);
    if (!setup->driver->connected()) {
        setup->error = "connect failed";
        return setup;
    }

    LoopSpec warmup;
    warmup.outstanding = kOutstanding;
    const RunResult run = setup->driver->run(schedule.warmup, warmup);
    const Tally counts = tally(run.outcomes);
    if (counts.ok != schedule.warmup.size()) {
        setup->error = "warm-up: " + std::to_string(counts.ok) + " of " +
                       std::to_string(schedule.warmup.size()) + " ok";
        return setup;
    }
    setup->ok = true;
    return setup;
}

Window
timedWindow(Setup &setup, const Schedule &schedule, double seconds,
            SpanLog *trace)
{
    LoopSpec spec;
    spec.openLoop = schedule.openLoop;
    spec.outstanding = kOutstanding;
    spec.seconds = schedule.openLoop ? 0.0 : seconds;
    spec.dueNs = &schedule.dueNs;

    Window window;
    window.before = Sample::take(*setup.server);
    window.originNs = nowNs();
    SliceSampler sampler(window.originNs);
    window.run = setup.driver->run(schedule.timed, spec, trace);
    window.slices = sampler.stop();
    window.after = Sample::take(*setup.server);
    window.threads = procStatus("Threads");
    return window;
}

const Request &
requestOf(const Schedule &schedule, const Outcome &outcome)
{
    return schedule.timed[outcome.index % schedule.timed.size()];
}

/** Foreground outcomes: all but mixed's heavy class. */
std::vector<const Outcome *>
foreground(const Schedule &schedule, const Window &window)
{
    std::vector<const Outcome *> out;
    for (const Outcome &outcome : window.run.outcomes) {
        if (!requestOf(schedule, outcome).heavy)
            out.push_back(&outcome);
    }
    return out;
}

template <typename F>
std::vector<double>
collect(const std::vector<const Outcome *> &outcomes, F &&field,
        bool ok_only = true)
{
    std::vector<double> values;
    values.reserve(outcomes.size());
    for (const Outcome *outcome : outcomes) {
        if (!ok_only || outcome->ok())
            values.push_back(field(*outcome));
    }
    return values;
}

/** End-to-end figures, from the slices of a window with the least
 *  stolen time. */
struct EndToEnd {
    double rps = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double cpuMsPerOk = 0.0;
    std::size_t beyondP99 = 0; //!< samples above the reported p99
    std::size_t kept = 0, slices = 0;
    double stealKept = 0.0, stealAll = 0.0; //!< machine shares
};

/**
 * End-to-end figures over the 100 ms slices of @p window in which
 * the hypervisor stole no CPU from the machine (its steal counter did
 * not move), topped up with the least-stolen other slices while the
 * kept ones hold fewer than kMinKeptSamples foreground requests.
 *
 * On a shared virtual machine, stolen time comes in bursts that
 * average 0 to 20% over a run, and tail latency follows them: on a
 * 4-vCPU VM, one hot run's p99 read 16.5 ms over all slices and
 * 6.9 ms over its steal-free ones, against 6.7 ms for a run with
 * almost no stolen time. Stolen time is outside the program, so the
 * ranking selects on the host, not on the program's behaviour: a
 * change that slows the program slows every slice alike. Within the
 * kept slices, requests count by due time for latency (a failed one
 * as +inf) and by receive time for the rate and CPU per request; the
 * drain after the window falls outside every slice.
 */
EndToEnd
endToEnd(const Schedule &schedule, const Window &window)
{
    EndToEnd out;
    const auto &clocks = window.slices;
    out.slices = clocks.size() > 1 ? clocks.size() - 1 : 0;
    auto steal = [&](std::size_t k) {
        return stolenShare(clocks[k], clocks[k + 1]);
    };
    std::vector<std::size_t> order(out.slices);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return steal(a) < steal(b);
                     });
    auto slice_of = [&](int64_t ns) {
        return ns < window.originNs
                   ? out.slices
                   : std::min(out.slices,
                              static_cast<std::size_t>(
                                  static_cast<double>(ns - window.originNs) *
                                  1e-9 / kSliceSeconds));
    };
    std::vector<std::size_t> samples(out.slices + 1, 0);
    for (const Outcome &outcome : window.run.outcomes) {
        if (!requestOf(schedule, outcome).heavy)
            ++samples[slice_of(outcome.dueNs)];
    }
    std::vector<bool> keep(out.slices, false);
    std::size_t kept_samples = 0;
    for (std::size_t k : order) {
        if (steal(k) > 0.0 && kept_samples >= kMinKeptSamples)
            break;
        keep[k] = true;
        kept_samples += samples[k];
        ++out.kept;
    }

    auto kept_slice = [&](int64_t ns) {
        const std::size_t k = slice_of(ns);
        return k < out.slices && keep[k];
    };
    std::vector<double> latencies;
    double ok = 0.0;
    for (const Outcome &outcome : window.run.outcomes) {
        if (!requestOf(schedule, outcome).heavy &&
            kept_slice(outcome.dueNs))
            latencies.push_back(outcome.latencyMs());
        if (outcome.ok() && kept_slice(outcome.recvNs))
            ok += 1.0;
    }
    double cpu_ms = 0.0, stolen = 0.0, ticks = 0.0;
    for (std::size_t k = 0; k < out.slices; ++k) {
        const double slice_ticks =
            clocks[k + 1].machineTicks - clocks[k].machineTicks;
        stolen += steal(k) * slice_ticks;
        ticks += slice_ticks;
        if (keep[k]) {
            cpu_ms += clocks[k + 1].cpuMs - clocks[k].cpuMs;
            out.stealKept += steal(k) / static_cast<double>(out.kept);
        }
    }
    out.stealAll = ticks > 0 ? stolen / ticks : 0.0;
    if (out.kept > 0)
        out.rps = ok / (static_cast<double>(out.kept) * kSliceSeconds);
    out.cpuMsPerOk = ok > 0 ? cpu_ms / ok : 0.0;
    out.p50 = quantile(latencies, 0.50);
    out.p99 = quantile(latencies, 0.99);
    out.beyondP99 = static_cast<std::size_t>(
        std::count_if(latencies.begin(), latencies.end(),
                      [&](double v) { return v > out.p99; }));
    return out;
}

std::string
fmt(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4g", value);
    return buf;
}

/**
 * Compare every Ok response of @p windows with HeteroMap::deploy for
 * the same (workload, graph, measure seed). @return mismatches.
 */
std::size_t
checkOutputs(const Schedule &schedule, const std::vector<Window> &windows,
             const Catalogue &catalogue, const hm::HeteroMap &framework,
             std::size_t *checked)
{
    using Key = std::tuple<uint32_t, uint8_t, uint64_t>;
    auto key_of = [&](const Outcome &outcome) {
        const Request &request = requestOf(schedule, outcome);
        return Key{request.graph, request.workload, request.measureSeed};
    };
    std::map<Key, std::pair<Request, Expected>> reference;
    for (const Window &window : windows) {
        for (const Outcome &outcome : window.run.outcomes) {
            if (outcome.ok()) {
                reference.emplace(key_of(outcome),
                                  std::pair{requestOf(schedule, outcome),
                                            Expected{}});
            }
        }
    }
    std::vector<std::pair<Request, Expected> *> todo;
    for (auto &entry : reference)
        todo.push_back(&entry.second);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kCheckThreads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < todo.size(); i += kCheckThreads) {
                todo[i]->second =
                    expectedFor(todo[i]->first, catalogue, framework);
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    std::size_t mismatches = 0;
    *checked = 0;
    for (const Window &window : windows) {
        for (const Outcome &outcome : window.run.outcomes) {
            if (!outcome.ok())
                continue;
            ++*checked;
            if (!matches(outcome, reference.at(key_of(outcome)).second))
                ++mismatches;
        }
    }
    return mismatches;
}

/** A metric as it goes into the result line. */
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string
resultJson(bool correct, const Tally &counts,
           const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << counts.attempted
        << ", \"failed\": " << counts.failed() << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        // A failed request's latency is +inf; JSON has no infinity.
        double value = metrics[i].value;
        if (!std::isfinite(value))
            value = 1e12;
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << buf << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

/**
 * Self time of the "request" span of every traced foreground request
 * in @p window: its duration minus its children's, the time spent
 * outside the client codec and the server's queue and service.
 */
std::vector<double>
requestSelfMs(const SpanLog &trace, const Schedule &schedule,
              const Window &window)
{
    std::unordered_map<uint64_t, double> self_ns;
    for (const Span &span : trace.spans()) {
        const bool root = std::strcmp(span.name, "request") == 0;
        self_ns[span.id] += root ? static_cast<double>(span.durNs)
                                 : -static_cast<double>(span.durNs);
    }
    std::vector<double> out;
    for (const Outcome *outcome : foreground(schedule, window)) {
        const uint64_t id = window.run.firstId +
                            static_cast<uint64_t>(
                                outcome - window.run.outcomes.data());
        const auto self = self_ns.find(id);
        if (outcome->ok() && self != self_ns.end())
            out.push_back(self->second * 1e-6);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const int64_t process_start = nowNs();
    hm::setLogVerbose(false);
    const Args args = parseArgs(argc, argv);
    const Schedule schedule =
        makeSchedule(args.mix, args.seed, args.seconds);
    const hm::Oracle oracle;

    // --- Set-up, several times; the last one serves the run. ---------
    std::vector<std::pair<double, double>> setups; // stolen share, s
    std::unique_ptr<Setup> setup;
    for (int i = 0; i < kSetups; ++i) {
        setup.reset();
        const int64_t start = i == 0 ? process_start : nowNs();
        const Clocks before = Clocks::read();
        setup = setUp(schedule, oracle);
        if (!setup->ok) {
            std::cerr << "servebench: set-up failed: " << setup->error
                      << "\n";
            return 2;
        }
        const double seconds = secondsSince(start);
        const Clocks after = Clocks::read();
        setups.emplace_back(stolenShare(before, after), seconds);
    }
    Setup &bench = *setup;

    // --- Timed windows. ----------------------------------------------
    std::vector<Window> windows;
    windows.push_back(timedWindow(bench, schedule, args.seconds, nullptr));
    SpanLog trace;
    if (args.trace) {
        windows.push_back(
            timedWindow(bench, schedule, args.seconds, &trace));
    }
    const long peak_rss_kb = procStatus("VmHWM");
    const Window &plain = windows.front();
    const Window &layered = windows.back();

    // --- Output check and premises. ----------------------------------
    // Premise checks: each prints PASS/FAIL; any failure fails the run.
    bool correct = true;
    auto check = [&](bool pass, const std::string &what) {
        std::cout << (pass ? "PASS: " : "FAIL: ") << what << "\n";
        correct = correct && pass;
    };
    const auto snapshot = bench.registry->current();
    std::size_t checked = 0;
    const std::size_t mismatches = checkOutputs(
        schedule, windows, bench.catalogue, *snapshot->framework, &checked);
    check(mismatches == 0, "outputs equal HeteroMap::deploy (" +
                               std::to_string(checked - mismatches) + "/" +
                               std::to_string(checked) + " match)");

    const net::ServerStats server_stats = bench.server->stats();
    uint64_t protocol_errors = 0;
    for (const Window &window : windows)
        protocol_errors += window.run.protocolErrors;
    check(server_stats.badFrames == 0 && protocol_errors == 0,
          "net.bad_frames = 0 and every response frame decodes");
    check(server_stats.framesReceived == bench.driver->framesSent(),
          "frames received (" + std::to_string(server_stats.framesReceived) +
              ") = requests sent (" +
              std::to_string(bench.driver->framesSent()) + ")");

    for (const Window &window : windows) {
        const double ratio = window.hitRatio();
        if (args.mix == Mix::Churn)
            check(ratio <= 0.05,
                  "churn misses the stats cache (hit ratio " + fmt(ratio) +
                      ")");
        else
            check(ratio >= 0.9,
                  "stats cache stays warm (hit ratio " + fmt(ratio) + ")");
    }

    const EndToEnd e2e = endToEnd(schedule, plain);
    std::printf("machine CPU stolen: %.1f%% over the window, %.1f%% over "
                "the %zu of %zu slices kept\n",
                100.0 * e2e.stealAll, 100.0 * e2e.stealKept, e2e.kept,
                e2e.slices);
    check(e2e.beyondP99 >= kTailSamples,
          std::to_string(e2e.beyondP99) + " samples beyond p99 (need " +
              std::to_string(kTailSamples) + ")");
    {
        // Where each reported percentile sits against the modes of the
        // foreground latency distribution. A percentile q whose tail
        // share 1-q is within a factor of two of a mode boundary shows
        // as a jump between the quantiles at half and twice that share
        // (mirrored below the median); such a figure flips between
        // modes from run to run.
        const auto latencies = collect(
            foreground(schedule, plain),
            [](const Outcome &o) { return o.latencyMs(); }, false);
        std::printf("latency quantiles (ms):");
        for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.97, 0.98,
                         0.99, 0.995, 0.999})
            std::printf(" p%g=%.3f", q * 100, quantile(latencies, q));
        std::printf("\n");
        for (double q : {0.50, 0.99}) {
            const double tail = 1.0 - q;
            const double below =
                quantile(latencies, q - std::min(tail, q / 2));
            const double above = quantile(latencies, q + tail / 2);
            // A property of the mix, checked by design rather than
            // gating each run: outside load can reshape one run.
            std::printf("%s: p%g clear of a mode boundary (%.4g / %.4g "
                        "ms across tail x2, want <= %gx)\n",
                        above <= kModeJump * below ? "NOTE" : "WARN",
                        q * 100, above, below, kModeJump);
        }
    }

    if (args.mix == Mix::Mixed) {
        std::vector<double> heavy, light;
        for (const Outcome &outcome : plain.run.outcomes) {
            if (outcome.ok()) {
                (requestOf(schedule, outcome).heavy ? heavy : light)
                    .push_back(outcome.response.serviceMs);
            }
        }
        const double ratio = median(heavy) / median(light);
        check(!heavy.empty() && ratio >= 20.0,
              "heavy service time is " + fmt(ratio) + "x light (need 20x)");
    }
    if (schedule.openLoop) {
        const double gap_ms = 1e3 / schedule.ratePerSec;
        const double lag = quantile(plain.run.lagMs, 0.99);
        check(lag <= 0.25 * gap_ms,
              "generator lag p99 " + fmt(lag) + " ms is small against the " +
                  fmt(gap_ms) + " ms mean inter-arrival time");
    } else {
        check(plain.run.maxInFlight <= kOutstanding,
              "at most " + std::to_string(kOutstanding) +
                  " requests in flight");
    }

    // --- Metrics. ----------------------------------------------------
    const Tally counts = tally(plain.run.outcomes);
    std::vector<Metric> metrics;
    if (!args.trace) {
        // The driver's own per-request records grow with throughput;
        // leave them out so the figure is the server's footprint.
        const double driver_bytes = static_cast<double>(
            plain.run.outcomes.size() * sizeof(Outcome) +
            plain.run.lagMs.size() * sizeof(double));
        metrics = {
            {"rps", e2e.rps, "req/s"},
            {"p50_ms", e2e.p50, "ms"},
            {"p99_ms", e2e.p99, "ms"},
            {"ok_frac",
             static_cast<double>(counts.ok) /
                 static_cast<double>(
                     std::max<std::size_t>(1, counts.attempted)),
             "ratio"},
            {"cpu_ms_per_req", e2e.cpuMsPerOk, "ms"},
            {"peak_rss_mb",
             (static_cast<double>(peak_rss_kb) * 1024.0 - driver_bytes) /
                 (1024.0 * 1024.0),
             "MiB"},
            {"setup_s", setupSeconds(setups), "s"},
        };
    } else {
        const auto fg_traced = foreground(schedule, layered);
        auto field = [&](auto &&f) { return collect(fg_traced, f); };
        const auto queue =
            field([](const Outcome &o) { return o.response.queueMs; });
        const auto service =
            field([](const Outcome &o) { return o.response.serviceMs; });
        const auto batch = field([](const Outcome &o) {
            return static_cast<double>(o.response.batchSize);
        });
        std::size_t supervised = 0;
        for (const Outcome *outcome : fg_traced)
            supervised += requestOf(schedule, *outcome).supervised;
        const double supervised_share =
            fg_traced.empty() ? 0.0
                              : static_cast<double>(supervised) /
                                    static_cast<double>(fg_traced.size());

        // Replay a fixed sample of foreground requests, in order.
        std::vector<Request> sample;
        for (const Request &request : schedule.timed) {
            if (sample.size() == kReplaySample)
                break;
            if (!request.heavy)
                sample.push_back(request);
        }
        const ReplayTimes replay = replayLayers(
            sample, bench.catalogue, *snapshot->framework, &trace);

        const std::vector<double> outside =
            requestSelfMs(trace, schedule, layered);
        const Tally traced_counts = tally(layered.run.outcomes);
        const double hit_ratio = layered.hitRatio();
        const double measure_ms =
            hit_ratio * median(replay.measureHitUs) * 1e-3 +
            (1.0 - hit_ratio) * median(replay.measureMissMs);
        const double deploy_ms =
            ((1.0 - supervised_share) * median(replay.inferUs) +
             supervised_share * median(replay.supervisedUs)) *
            1e-3;
        const double featurize_ms = median(replay.featurizeMs);
        const double replay_ms = measure_ms + featurize_ms + deploy_ms;
        const double service_p50 = quantile(service, 0.50);
        const double submitted = static_cast<double>(
            layered.after.submitted - layered.before.submitted +
            layered.after.quotaRejected - layered.before.quotaRejected +
            layered.after.laneShed - layered.before.laneShed);
        const double shed = static_cast<double>(
            layered.after.shed - layered.before.shed +
            layered.after.quotaRejected - layered.before.quotaRejected +
            layered.after.laneShed - layered.before.laneShed);

        metrics = {
            {"net.outside_p50_ms", quantile(outside, 0.50), "ms"},
            {"net.outside_p99_ms", quantile(outside, 0.99), "ms"},
            {"net.codec_us", median(replay.codecUs), "us"},
            {"net.admit_us", median(replay.admitUs), "us"},
            {"net.route_us", median(replay.routeUs), "us"},
            {"serve.queue_p50_ms", quantile(queue, 0.50), "ms"},
            {"serve.queue_p99_ms", quantile(queue, 0.99), "ms"},
            {"serve.service_p50_ms", service_p50, "ms"},
            {"serve.service_p99_ms", quantile(service, 0.99), "ms"},
            {"serve.batch_mean", mean(batch), "count"},
            {"serve.shed_frac", submitted > 0 ? shed / submitted : 0.0,
             "ratio"},
            {"serve.supervised_us", median(replay.supervisedUs), "us"},
            {"graph.fingerprint_us", median(replay.fingerprintUs), "us"},
            {"graph.measure_hit_us", median(replay.measureHitUs), "us"},
            {"graph.measure_miss_ms", median(replay.measureMissMs), "ms"},
            {"graph.stats_hit_ratio", hit_ratio, "ratio"},
            {"featurize.p50_ms", featurize_ms, "ms"},
            {"featurize.share", featurize_ms / replay_ms, "ratio"},
            {"infer.us_per_case", median(replay.inferUs), "us"},
            {"proc.threads", static_cast<double>(layered.threads), "count"},
            {"proc.ctx_switches_per_req",
             (layered.after.clocks.ctxSwitches -
              layered.before.clocks.ctxSwitches) /
                 static_cast<double>(
                     std::max<std::size_t>(1, traced_counts.ok)),
             "count"},
            {"driver.lag_p99_ms", quantile(layered.run.lagMs, 0.99), "ms"},
            {"trace.overhead_frac",
             layered.cpuMsPerOk() / plain.cpuMsPerOk() - 1.0, "ratio"},
            {"replay.unexplained_frac", 1.0 - replay_ms / service_p50,
             "ratio"},
        };

        const std::string json = trace.chromeJson();
        std::string trace_error;
        std::size_t events = 0;
        const bool valid =
            hm::telemetry::validateChromeTrace(json, &trace_error, &events);
        bool written = false;
        if (valid && !args.traceOut.empty()) {
            std::ofstream file(args.traceOut);
            file << json;
            written = static_cast<bool>(file);
        }
        check(valid && (args.traceOut.empty() || written),
              "span file " +
                  (args.traceOut.empty() ? std::string("(not written)")
                                         : args.traceOut) +
                  " holds " + std::to_string(events) +
                  " valid Chrome trace events" +
                  (valid ? "" : ": " + trace_error));
    }

    for (const Metric &metric : metrics) {
        std::printf("%-28s %14.6g %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }
    std::cout << resultJson(correct, counts, metrics) << std::endl;
    return correct ? 0 : 1;
}
