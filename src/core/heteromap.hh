/**
 * @file
 * The HeteroMap runtime (Fig. 8): offline-trained predictor + online
 * evaluation. Given a discretized benchmark-input combination, the
 * framework predicts machine choices, deploys them on the selected
 * accelerator, and charges its own (real, measured) inference latency
 * to the completion time, exactly as the paper's methodology does.
 */

#ifndef HETEROMAP_CORE_HETEROMAP_HH
#define HETEROMAP_CORE_HETEROMAP_HH

#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "core/oracle.hh"
#include "graph/props.hh"
#include "model/predictor.hh"
#include "util/errors.hh"
#include "workloads/profile_cache.hh"

namespace heteromap {

struct FeatureBaseline;
namespace forensics { struct AuditRecord; }

/**
 * The learner strategies of Table IV, plus the non-parametric
 * database-backed table lookup (Sec. V's "indexed using B,I tuples"
 * store) so deployment modes that serve straight from the profiler
 * database name themselves the same way.
 */
enum class PredictorKind {
    DecisionTree,
    LinearRegression,
    MultiRegression,
    AdaptiveLibrary,
    Deep16,
    Deep32,
    Deep64,
    Deep128,
    TableLookup,
};

/** Instantiate one of the learners. */
std::unique_ptr<Predictor> makePredictor(PredictorKind kind);

/** All Table IV learner kinds, in table order (TableLookup is not a
 *  Table IV row and is deliberately absent). */
const std::vector<PredictorKind> &allPredictorKinds();

/** Stable identifier, e.g. "deep-64"; used in serialized headers. */
const char *predictorKindName(PredictorKind kind);

/** Inverse of predictorKindName(); nullopt for unknown names. */
std::optional<PredictorKind> predictorKindFromName(
    std::string_view name);

/**
 * Persist @p predictor — which must be an instance of the concrete
 * class @p kind names — in a format loadPredictor() restores. Every
 * PredictorKind serializes; analytical models persist their
 * parameters, learned models their fitted weights/tuples.
 *
 * The stream is a crash-safe envelope:
 *
 *   heteromap-model v2 <kind-name> <payload-bytes> <crc64-hex>\n
 *   <payload>
 *
 * where <payload> is the concrete model's own versioned text format
 * and the CRC64 (util/checksum.hh) covers every payload byte — so a
 * truncated file, a torn write, or a single flipped bit is caught at
 * load time before any parsing happens.
 */
void savePredictor(const Predictor &predictor, PredictorKind kind,
                   std::ostream &os);

/**
 * savePredictor() carrying the training-time feature-distribution
 * baseline the drift monitor compares live traffic against. With a
 * null @p baseline the output is byte-identical v2; with one, the
 * envelope version bumps to v3 and grows two trailer fields plus the
 * baseline body, each independently checksummed:
 *
 *   heteromap-model v3 <kind-name> <payload-bytes> <crc64-hex>
 *       <baseline-bytes> <baseline-crc64-hex>\n
 *   <payload><baseline>
 *
 * loadPredictor()/loadAnyPredictor() accept both versions, so every
 * pre-drift model file keeps loading unchanged.
 */
void savePredictor(const Predictor &predictor, PredictorKind kind,
                   std::ostream &os, const FeatureBaseline *baseline);

/**
 * Restore a predictor of @p kind from the savePredictor() envelope.
 * Recoverable: a malformed header, a kind mismatch (e.g. a Deep.32
 * stream loaded as Deep.64), a truncated payload, or a checksum
 * failure comes back as a Result error the caller can report and
 * roll back from — never an abort, so a model registry keeps its
 * last-good model when a hot-load goes bad. On success the returned
 * predictor's predict() outputs are byte-identical to the saved
 * instance's.
 */
Result<std::unique_ptr<Predictor>> loadPredictor(PredictorKind kind,
                                                 std::istream &is);

/** A predictor restored together with its envelope-declared kind. */
struct LoadedPredictor {
    PredictorKind kind = PredictorKind::DecisionTree;
    std::unique_ptr<Predictor> predictor;
    /** Training-time baseline from a v3 envelope; null for v2. */
    std::shared_ptr<const FeatureBaseline> baseline;
};

/**
 * Restore whatever kind the envelope declares (the self-describing
 * variant of loadPredictor(), used by registry snapshot files whose
 * kind is not known a priori). Same error contract.
 */
Result<LoadedPredictor> loadAnyPredictor(std::istream &is);

/** Result of one online deployment. */
struct Deployment {
    MConfig config;            //!< deployed machine choices
    ExecutionReport report;    //!< modelled on-chip execution
    double overheadMs = 0.0;   //!< measured predictor latency
    NormalizedMVector predicted;

    /** Completion time including the framework's overhead. */
    double
    totalSeconds() const
    {
        return report.seconds + overheadMs * 1e-3;
    }
};

/**
 * Constraints applied to one online prediction. Used by the
 * supervised deployment loop (core/supervisor.hh) to mask a faulty
 * accelerator out of the M1 choice while keeping the predictor's
 * intra-accelerator knobs.
 */
struct DeployConstraints {
    /** When set, M1 is forced to this accelerator. */
    std::optional<AcceleratorKind> forceAccelerator;
};

/** One request of an online batch; it must outlive the stage call. */
struct OnlineRequest {
    const std::shared_ptr<const Workload> &workload;
    const Graph &graph;
    const std::string &inputName;
    bool needsInference = true; //!< false: the caller deploys it
};

/** Requests of an online batch that share one featurized case. */
struct OnlineGroup {
    BenchmarkCase bench;
    double featurizeMs = 0.0;
    std::vector<std::size_t> members; //!< indices into the requests
    std::optional<Deployment> deployment; //!< iff a member needs one
};

/** Trained predictor bound to a multi-accelerator pair. */
class HeteroMap
{
  public:
    /**
     * @param pair      Target multi-accelerator system.
     * @param predictor Learner (trained or analytical).
     * @param oracle    Evaluation oracle for deployment.
     */
    HeteroMap(AcceleratorPair pair, std::unique_ptr<Predictor> predictor,
              const Oracle &oracle);

    /** Fit the learner on an offline corpus (no-op for analytical). */
    void trainOffline(const TrainingSet &corpus);

    /** Predict, deploy, and report one benchmark-input combination. */
    Deployment deploy(const BenchmarkCase &bench) const;

    /**
     * One-call online path from a raw graph: a globalStatsCache()
     * lookup, then featurizeAndDeploy() as a batch of one over
     * globalProfileCache() (keyed on workload identity, hence the
     * shared_ptr). overheadMs is exactly measure + featurize + infer
     * latency, each also a "predict.stage.*_ms" histogram and a span.
     */
    Deployment predict(const std::shared_ptr<const Workload> &workload,
                       const Graph &graph,
                       const std::string &input_name,
                       const MeasureOptions &measure = {}) const;

    /** Deploy under @p constraints (e.g. with one accelerator masked). */
    Deployment deploy(const BenchmarkCase &bench,
                      const DeployConstraints &constraints) const;

    /**
     * Deploy a micro-batch with one predictor forward pass. The
     * predictions come from Predictor::predictBatch(), so each
     * deployment's config is byte-identical to deploy(benches[i]);
     * only the timing differs — the single inference stage is timed
     * once, recorded as "predict.stage.infer_batch_ms", and each
     * returned Deployment carries the batch-amortized share
     * (total / count) as its overheadMs.
     */
    std::vector<Deployment>
    deployBatch(std::span<const BenchmarkCase> benches) const;

    /**
     * The online stage predict() and the serving batcher share:
     * group @p requests by (workload identity, input name, edge
     * weights), featurize each group once from @p profiles and
     * @p stats (which every request's graph measures to) into the
     * bytes makeCase builds, and deployBatch() those that need it.
     */
    std::vector<OnlineGroup>
    featurizeAndDeploy(std::span<const OnlineRequest> requests,
                       const GraphStats &stats,
                       ProfileCache &profiles) const;

    /**
     * Fill @p record's timestamp, graph fingerprint, model kind,
     * workload, features, scores, accelerator and tree path for
     * @p deployment of @p bench on @p graph.
     */
    void auditPrediction(forensics::AuditRecord &record,
                         const Graph &graph, const BenchmarkCase &bench,
                         const Deployment &deployment) const;

    const Predictor &predictor() const { return *predictor_; }
    const AcceleratorPair &pair() const { return pair_; }
    const Oracle &oracle() const { return oracle_; }

    /**
     * Feature-distribution baseline captured by the last
     * trainOffline() call (or installed from a v3 envelope via
     * setBaseline()); null until one exists. Shared with the serving
     * drift monitor, which compares live windows against it.
     */
    std::shared_ptr<const FeatureBaseline> baseline() const
    {
        return baseline_;
    }
    void setBaseline(std::shared_ptr<const FeatureBaseline> baseline)
    {
        baseline_ = std::move(baseline);
    }

  private:
    AcceleratorPair pair_;
    std::unique_ptr<Predictor> predictor_;
    const Oracle &oracle_;
    std::shared_ptr<const FeatureBaseline> baseline_;
};

} // namespace heteromap

#endif // HETEROMAP_CORE_HETEROMAP_HH
