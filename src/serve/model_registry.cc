/**
 * @file
 * Model registry implementation.
 */

#include "serve/model_registry.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "model/feature_baseline.hh"
#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace heteromap {
namespace serve {

ModelRegistry::ModelRegistry(AcceleratorPair pair, const Oracle &oracle)
    : pair_(std::move(pair)), oracle_(oracle), metrics_([this] {
          return telemetry::CounterReadings{
              {"serve.model_load_failures", loadFailures()}};
      })
{
}

std::shared_ptr<const ModelSnapshot>
ModelRegistry::current() const
{
    std::lock_guard<std::mutex> lock(active_mutex_);
    return active_;
}

uint64_t
ModelRegistry::publish(PredictorKind kind,
                       std::unique_ptr<Predictor> predictor,
                       std::shared_ptr<const FeatureBaseline> baseline)
{
    HM_ASSERT(predictor != nullptr, "cannot publish a null predictor");
    std::lock_guard<std::mutex> lock(publish_mutex_);

    auto snapshot = std::make_shared<ModelSnapshot>();
    snapshot->predictorName = predictor->name();
    auto framework = std::make_shared<HeteroMap>(
        pair_, std::move(predictor), oracle_);
    framework->setBaseline(baseline);
    snapshot->framework = std::move(framework);
    snapshot->baseline = std::move(baseline);
    snapshot->epoch = ++next_epoch_;
    snapshot->kind = kind;

    // Readers holding the previous snapshot keep serving from it;
    // its HeteroMap is reclaimed when the last in-flight batch drops
    // the shared_ptr. New readers see the new model immediately.
    {
        std::lock_guard<std::mutex> lock(active_mutex_);
        active_ = snapshot;
    }

    HM_COUNTER_INC("serve.model_publishes");
    HM_GAUGE_SET("serve.model_epoch",
                 static_cast<double>(snapshot->epoch));
    return snapshot->epoch;
}

uint64_t
ModelRegistry::publishTrained(PredictorKind kind,
                              const TrainingSet &corpus)
{
    std::unique_ptr<Predictor> predictor = makePredictor(kind);
    predictor->train(corpus);
    // Capture what the model was trained on: the baseline rides the
    // snapshot (arming the drift monitor) and the v3 envelope
    // saveActive() writes, so a disk round-trip keeps it.
    auto baseline = std::make_shared<const FeatureBaseline>(
        buildFeatureBaseline(corpus));
    return publish(kind, std::move(predictor), std::move(baseline));
}

Result<uint64_t>
ModelRegistry::load(PredictorKind kind, std::istream &is)
{
    // The self-describing loader, so a v3 stream's baseline comes
    // along; the caller-declared kind is still enforced.
    Result<LoadedPredictor> loaded = loadAnyPredictor(is);
    if (!loaded.ok())
        return noteLoadFailure(std::move(loaded).error());
    LoadedPredictor model = std::move(loaded).value();
    if (model.kind != kind) {
        return noteLoadFailure(HM_RECOVERABLE(
            ErrorCode::Parse, "model kind mismatch: stream holds a ",
            predictorKindName(model.kind), ", caller requested a ",
            predictorKindName(kind)));
    }
    return publish(kind, std::move(model.predictor),
                   std::move(model.baseline));
}

Result<uint64_t>
ModelRegistry::saveActive(const std::string &path)
{
    std::shared_ptr<const ModelSnapshot> snapshot = current();
    if (snapshot == nullptr) {
        return HM_RECOVERABLE(ErrorCode::Unavailable,
                              "saveActive(", path,
                              "): no model published yet");
    }

    std::ostringstream envelope;
    savePredictor(snapshot->framework->predictor(), snapshot->kind,
                  envelope, snapshot->baseline.get());
    const std::string body = envelope.str();

    // Unique-enough sibling name: same directory as the target (so
    // the rename below is not a cross-filesystem move), salted by
    // the registry's address and the epoch being saved.
    const uint64_t salt =
        mix64(reinterpret_cast<uintptr_t>(this) ^ snapshot->epoch);
    const std::string tmp =
        path + ".tmp." + std::to_string(salt % 1000000);

    {
        std::ofstream out(tmp,
                          std::ios::binary | std::ios::trunc);
        if (!out.is_open()) {
            return HM_RECOVERABLE(ErrorCode::Io, "saveActive(", path,
                                  "): cannot open temp file ", tmp);
        }
        out.write(body.data(),
                  static_cast<std::streamsize>(body.size()));
        out.flush();
        if (!out.good()) {
            out.close();
            std::remove(tmp.c_str());
            return HM_RECOVERABLE(ErrorCode::Io, "saveActive(", path,
                                  "): short write to ", tmp);
        }
    }

    // The atomic publish: readers of `path` see the old complete
    // file until this instant, the new complete file after it.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return HM_RECOVERABLE(ErrorCode::Io, "saveActive(", path,
                              "): rename from ", tmp, " failed");
    }
    HM_COUNTER_INC("serve.model_saves");
    return snapshot->epoch;
}

Result<uint64_t>
ModelRegistry::loadFrom(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        return noteLoadFailure(
            HM_RECOVERABLE(ErrorCode::Io, "loadFrom(", path,
                           "): cannot open file"));
    }
    std::ostringstream raw;
    raw << in.rdbuf();
    std::string bytes = raw.str();

    // Chaos: ModelLoadCorrupt flips one payload bit before
    // verification, proving the checksum catches it and the
    // last-good snapshot keeps serving.
    std::shared_ptr<ChaosPolicy> chaos;
    {
        std::lock_guard<std::mutex> lock(chaos_mutex_);
        chaos = chaos_;
    }
    if (chaos != nullptr && !bytes.empty() &&
        chaos->visit(ChaosPoint::ModelLoadCorrupt).has_value()) {
        bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
    }

    std::istringstream is(bytes);
    Result<LoadedPredictor> loaded = loadAnyPredictor(is);
    if (!loaded.ok()) {
        return noteLoadFailure(std::move(loaded).error());
    }
    LoadedPredictor model = std::move(loaded).value();
    return publish(model.kind, std::move(model.predictor),
                   std::move(model.baseline));
}

uint64_t
ModelRegistry::epoch() const
{
    auto snapshot = current();
    return snapshot == nullptr ? 0 : snapshot->epoch;
}

uint64_t
ModelRegistry::loadFailures() const
{
    return load_failures_.load(std::memory_order_relaxed);
}

void
ModelRegistry::setChaosPolicy(std::shared_ptr<ChaosPolicy> chaos)
{
    std::lock_guard<std::mutex> lock(chaos_mutex_);
    chaos_ = std::move(chaos);
}

Error
ModelRegistry::noteLoadFailure(Error error)
{
    load_failures_.fetch_add(1, std::memory_order_relaxed);
    return error;
}

} // namespace serve
} // namespace heteromap
