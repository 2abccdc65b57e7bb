// Shared pieces of the three workloads: options, the metric sink, process
// and thread CPU clocks, user samplers, and the offline model build
// (text edge list -> partition -> sharded fit -> save -> load) that
// fit-batch times and the serving workloads run as their set-up.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "gas/partition.hpp"
#include "graph/csr_graph.hpp"
#include "util/rng.hpp"

namespace perfbench {

using snaple::Edge;
using snaple::VertexId;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Replica scale (1.0 = twitter-s default size). Below 1 only for the
  /// smoke test; the cache budget and the churn stream scale with it.
  double scale = 1.0;
  std::string workdir = ".";
};

/// What one run reports: the last stdout line is built from this.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Records a failed correctness gate (printed on stderr).
  void gate_failed(const std::string& what);
};

/// Process CPU seconds (all threads), the calling thread's CPU seconds,
/// and the peak resident set in MB.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double rss_peak_mb();

/// q-quantile of `values` (unsorted) times `scale`, and the median.
[[nodiscard]] double pct(const std::vector<double>& values, double q,
                         double scale = 1.0);
[[nodiscard]] double median(const std::vector<double>& values);

/// Zipf(s) ranks mapped to vertex ids through a seed-keyed permutation, so
/// the hot users land on different shards from seed to seed.
class ZipfUsers {
 public:
  ZipfUsers(VertexId n, double exponent, std::uint64_t seed);
  [[nodiscard]] VertexId draw(snaple::Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<VertexId> perm_;
};

/// The input every workload starts from: the twitter-s replica, with one
/// outgoing edge per vertex of out-degree > 3 hidden at random. Both are
/// fixed; the run's seed draws the workload on them.
struct Inputs {
  snaple::CsrGraph train;
  std::vector<Edge> hidden;
};
[[nodiscard]] Inputs make_inputs(const Options& opt);

/// FNV-1a, folded one value at a time over what a workload draws from its
/// seed. print_inputs() prints it, and the smoke test checks that another
/// seed gives other inputs.
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
[[nodiscard]] constexpr std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}
void print_inputs(const Options& opt, std::uint64_t fingerprint);

/// The offline build. Each stage is one public call, timed and traced.
struct Build {
  std::shared_ptr<const snaple::CsrGraph> graph;     // ingested
  std::shared_ptr<const snaple::PredictorModel> fitted;
  std::shared_ptr<const snaple::PredictorModel> loaded;
  double replication_factor = 0.0;
  double ingest_s = 0.0;
  double partition_s = 0.0;
  double fit_s = 0.0;
  double fit_cpu_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
};
[[nodiscard]] Build build_model(const std::string& edge_list_path,
                                const std::string& model_path,
                                std::size_t machines,
                                snaple::gas::PartitionStrategy strategy,
                                std::uint64_t seed);

/// Whole-graph predictions from QueryEngine::topk_all, the call's wall
/// time and when it returned (now_s()).
struct Predictions {
  std::vector<std::vector<VertexId>> lists;
  double seconds = 0.0;
  double end = 0.0;
};
[[nodiscard]] Predictions predict_all(
    const std::shared_ptr<const snaple::PredictorModel>& model);

/// Recall at the model's k on `hidden`.
[[nodiscard]] double recall_at_k(const Predictions& p,
                                 const std::vector<Edge>& hidden);

/// core.topk_all_s and core.topk_all_vps.
void report_topk_all(const Predictions& p, Result& out);

/// Per-layer metrics every workload reports from its fit: partition, the
/// GAS steps and exchange phases of the fit report, fit cost, model size,
/// save and load, and ingest.
void report_build_layers(const Build& b, Result& out);

/// Per-layer busy time of the traced spans (<layer>.busy_s), the per-span
/// and per-layer tables on stdout, and the spans written to the workdir.
void report_trace(const std::string& workload, const Options& opt,
                  Result& out);

}  // namespace perfbench
