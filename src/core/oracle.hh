/**
 * @file
 * The evaluation oracle: a BenchmarkCase bundles everything needed to
 * score machine choices for one benchmark-input combination (measured
 * profile, features, shape/scale statistics); the Oracle turns (case,
 * accelerator pair, MConfig) into modelled time/energy and builds
 * tuner objectives. It replaces the paper's hardware runs.
 */

#ifndef HETEROMAP_CORE_ORACLE_HH
#define HETEROMAP_CORE_ORACLE_HH

#include <string>

#include "arch/perf_model.hh"
#include "arch/presets.hh"
#include "features/feature_vector.hh"
#include "graph/datasets.hh"
#include "tuner/search_space.hh"
#include "workloads/workload.hh"

namespace heteromap {

/** One benchmark-input combination, profiled and featurized. */
struct BenchmarkCase {
    std::string workloadName;
    std::string inputName;
    FeatureVector features;
    WorkloadProfile profile;
    GraphStats shapeStats; //!< measured from the executed graph
    GraphStats scaleStats; //!< nominal scale for memory effects
    WorkloadOutput output; //!< kept for correctness checks

    /** "<workload>-<input>", e.g. "PR-LJ". */
    std::string label() const { return workloadName + "-" + inputName; }

    /**
     * Ratio between the nominal input scale and the executed proxy
     * (>= 1). Modelled proxy seconds times this factor approximate
     * the nominal-scale runtime; real-time costs (e.g. predictor
     * inference) are divided by it before being charged against
     * proxy-scale times so their relative weight matches the paper's
     * seconds-scale runs.
     */
    double timeScale() const;
};

/**
 * Build a case from a paper benchmark and a Table I dataset: the
 * workload runs on the dataset's proxy graph; I variables come from
 * the *nominal* stats (the paper's feature values).
 */
BenchmarkCase makeCase(const Workload &workload, const Dataset &dataset);

/**
 * Build a case from any workload and graph (used for synthetic
 * training data); I variables are measured from the graph itself.
 */
BenchmarkCase makeCase(const Workload &workload, const Graph &graph,
                       const std::string &input_name,
                       const GraphStats &stats);

/**
 * Build a case whose shape is measured from @p graph but whose scale
 * (I variables, memory effects) comes from @p scale_stats — how the
 * training pipeline makes small executed proxies stand in for
 * Table III-sized synthetic inputs.
 */
BenchmarkCase makeCase(const Workload &workload, const Graph &graph,
                       const std::string &input_name,
                       const GraphStats &shape_stats,
                       const GraphStats &scale_stats);

/**
 * Assemble a case from an already-executed @p profile: names, B
 * variables from @p workload, I variables from @p scale_stats, and
 * both stats. Every makeCase overload runs the workload and then
 * calls this; the serving path calls it directly with a memoized
 * profile (workloads/profile_cache.hh), leaving output empty.
 */
BenchmarkCase assembleCase(const Workload &workload,
                           const std::string &input_name,
                           WorkloadProfile profile,
                           const GraphStats &shape_stats,
                           const GraphStats &scale_stats);

/** Scores benchmark cases under the performance model. */
class Oracle
{
  public:
    explicit Oracle(PerfModelParams params = {});

    /** Full modelled execution report. */
    ExecutionReport run(const BenchmarkCase &bench,
                        const AcceleratorPair &pair,
                        const MConfig &config) const;

    /** Modelled completion seconds. */
    double seconds(const BenchmarkCase &bench,
                   const AcceleratorPair &pair,
                   const MConfig &config) const;

    /** Tuner objective minimizing completion time. */
    TuneObjective timeObjective(const BenchmarkCase &bench,
                                const AcceleratorPair &pair) const;

    /** Tuner objective minimizing energy (Sec. VII-C). */
    TuneObjective energyObjective(const BenchmarkCase &bench,
                                  const AcceleratorPair &pair) const;

    const PerfModel &model() const { return model_; }

  private:
    PerfModel model_;

    const AcceleratorSpec &specFor(const AcceleratorPair &pair,
                                   const MConfig &config) const;
};

} // namespace heteromap

#endif // HETEROMAP_CORE_ORACLE_HH
