/**
 * @file
 * ModelRegistry: the serving subsystem's hot-swappable model slot.
 *
 * The active model is an immutable snapshot behind a tiny pointer
 * lock (copy-and-pin, RCU-style): a reader copies the shared_ptr
 * once and keeps the whole (HeteroMap, epoch, kind) bundle alive
 * for as long as it uses it, so a publish never tears a model out
 * from under an in-flight batch — the swap itself is a single
 * pointer assignment under the lock, never a wait for readers.
 * (libstdc++ 12's std::atomic<shared_ptr> would make the load
 * lock-free too, but its embedded spinlock is opaque to
 * ThreadSanitizer; the plain mutex keeps the registry verifiable by
 * tools/check_tsan.sh.) Each publish bumps a monotonically
 * increasing epoch that the PredictionService stamps into every
 * response — the observable proof that a retrain or a disk load
 * swapped in with zero downtime.
 *
 * Publish paths: publish() installs an already-built predictor,
 * publishTrained() fits a fresh learner on a corpus (e.g. the
 * TrainingPipeline's output from a background retrain), and load()
 * hot-loads any PredictorKind from a savePredictor() stream.
 *
 * Persistence is crash-safe. Every stream carries the checksummed
 * "heteromap-model" envelope (core/heteromap.hh; v2, or v3 when the
 * active snapshot carries a feature baseline): saveActive()
 * writes to a temporary sibling and rename()s it into place, so a
 * crash mid-write never leaves a half-model at the target path, and
 * loadFrom()/load() verify the checksum before parsing. A corrupt,
 * truncated, or kind-mismatched stream comes back as a recoverable
 * Result error: the active model is untouched (the rollback is
 * implicit — the last-good snapshot keeps serving), the epoch stays
 * monotone (failed loads never bump it), and the
 * "serve.model_load_failures" counter accounts for the attempt.
 */

#ifndef HETEROMAP_SERVE_MODEL_REGISTRY_HH
#define HETEROMAP_SERVE_MODEL_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

#include "arch/fault_model.hh"
#include "core/heteromap.hh"
#include "util/errors.hh"
#include "util/telemetry.hh"

namespace heteromap {
namespace serve {

/** Immutable bundle a reader acquires with one atomic load. */
struct ModelSnapshot {
    std::shared_ptr<const HeteroMap> framework;
    uint64_t epoch = 0;
    PredictorKind kind = PredictorKind::DecisionTree;
    std::string predictorName;

    /**
     * Training-time feature-distribution baseline this model ships
     * with (publishTrained() builds it from the corpus; loadFrom()
     * restores it from a v3 envelope). Null for models published
     * without one — the drift monitor is simply inert then. Also
     * installed on the framework, so both handles agree.
     */
    std::shared_ptr<const FeatureBaseline> baseline;
};

/** Atomic, epoch-stamped holder of the active serving model. */
class ModelRegistry
{
  public:
    /**
     * @param pair   Accelerator pair every published model targets.
     * @param oracle Evaluation oracle (must outlive the registry).
     */
    ModelRegistry(AcceleratorPair pair, const Oracle &oracle);

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /**
     * The active snapshot (nullptr before the first publish). The
     * returned shared_ptr pins the model: holding it across a batch
     * guarantees every request in the batch is served by one
     * consistent model, however many publishes land meanwhile.
     */
    std::shared_ptr<const ModelSnapshot> current() const;

    /**
     * Install @p predictor as the active model, optionally carrying
     * its training-time feature @p baseline. @return the new epoch
     * (1 for the first publish, strictly increasing after).
     */
    uint64_t publish(PredictorKind kind,
                     std::unique_ptr<Predictor> predictor,
                     std::shared_ptr<const FeatureBaseline> baseline =
                         nullptr);

    /**
     * makePredictor(kind), train on @p corpus, publish — with the
     * corpus's feature baseline attached, so saveActive() emits a v3
     * envelope and the serving drift monitor arms itself.
     */
    uint64_t publishTrained(PredictorKind kind,
                            const TrainingSet &corpus);

    /**
     * Hot-load a savePredictor() stream and publish it. On any
     * failure (bad envelope, checksum mismatch, truncation, kind
     * mismatch) the active snapshot and epoch are untouched and the
     * error is recoverable. @return the new epoch on success.
     */
    Result<uint64_t> load(PredictorKind kind, std::istream &is);

    /**
     * Persist the active model to @p path atomically: the envelope
     * is written to "<path>.tmp.<pid-ish>" and rename()d over the
     * target, so readers of @p path see either the old complete file
     * or the new complete file — never a torn write. @return the
     * epoch of the snapshot that was saved.
     */
    Result<uint64_t> saveActive(const std::string &path);

    /**
     * Load a saveActive() file and publish it (self-describing: the
     * kind comes from the envelope). A corrupt or unreadable file is
     * a recoverable error; the last-good snapshot keeps serving and
     * the epoch does not move. @return the new epoch on success.
     */
    Result<uint64_t> loadFrom(const std::string &path);

    /** Epoch of the active model (0 before the first publish). */
    uint64_t epoch() const;

    /** Failed load()/loadFrom() attempts since construction. */
    uint64_t loadFailures() const;

    /**
     * Install a chaos policy (arch/fault_model.hh). When armed with
     * ModelLoadCorrupt, loadFrom() flips one payload bit before
     * verification — exercising the detect-and-rollback path.
     */
    void setChaosPolicy(std::shared_ptr<ChaosPolicy> chaos);

    const AcceleratorPair &pair() const { return pair_; }
    const Oracle &oracle() const { return oracle_; }

  private:
    AcceleratorPair pair_;
    const Oracle &oracle_;

    std::mutex publish_mutex_; //!< serializes writers only
    uint64_t next_epoch_ = 0;  //!< guarded by publish_mutex_

    mutable std::mutex active_mutex_; //!< guards only the pointer swap
    std::shared_ptr<const ModelSnapshot> active_;

    std::atomic<uint64_t> load_failures_{0};

    mutable std::mutex chaos_mutex_;
    std::shared_ptr<ChaosPolicy> chaos_; //!< guarded by chaos_mutex_

    /** Reports loadFailures() as "serve.model_load_failures". */
    telemetry::ScopedCounterSource metrics_;

    /** Count + meter a failed load and pass @p error through. */
    Error noteLoadFailure(Error error);
};

} // namespace serve
} // namespace heteromap

#endif // HETEROMAP_SERVE_MODEL_REGISTRY_HH
