#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <thread>

#include "core/predictor.hpp"
#include "core/query_engine.hpp"
#include "eval/metrics.hpp"
#include "eval/protocol.hpp"
#include "graph/gen/datasets.hpp"
#include "graph/io.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace snaple;

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

void Result::gate_failed(const std::string& what) {
  correct = false;
  std::cerr << "CORRECTNESS GATE FAILED: " << what << "\n";
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double pct(const std::vector<double>& values, double q, double scale) {
  return percentile(values, q) * scale;
}

double median(const std::vector<double>& values) { return pct(values, 0.5); }

ZipfUsers::ZipfUsers(VertexId n, double exponent, std::uint64_t seed)
    : perm_(n) {
  cdf_.reserve(n);
  double total = 0.0;
  for (VertexId r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, exponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  for (VertexId u = 0; u < n; ++u) perm_[u] = u;
  Rng rng(seed ^ 0x21bf5eedULL);
  shuffle(perm_, rng);
}

VertexId ZipfUsers::draw(Rng& rng) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.next_double());
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  return perm_[rank];
}

Inputs make_inputs(const Options& opt) {
  // The replica and its holdout are the dataset and stay fixed (the
  // generator's default seed, holdout seed kHoldoutSeed), so recall_at_k
  // is the same figure on every seed for a given program. A holdout drawn
  // from the run's seed moved recall by 0.5% from seed to seed, which is
  // only the sampling noise of the hidden set.
  constexpr std::uint64_t kHoldoutSeed = 1;
  const CsrGraph full = gen::make_dataset("twitter", opt.scale);
  auto holdout = eval::remove_random_edges(full, 1, kHoldoutSeed);
  return {std::move(holdout.train), std::move(holdout.hidden)};
}

void print_inputs(const Options& opt, std::uint64_t fingerprint) {
  std::printf("inputs: seed %llu, fingerprint %016llx\n",
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(fingerprint));
}

Build build_model(const std::string& edge_list_path,
                  const std::string& model_path, std::size_t machines,
                  gas::PartitionStrategy strategy, std::uint64_t seed) {
  Build b;
  double t = now_s();
  const auto lap = [&t] {
    const double now = now_s();
    const double d = now - t;
    t = now;
    return d;
  };
  {
    Span s("graph.load_edge_list_text_file");
    b.graph = std::make_shared<const CsrGraph>(
        load_edge_list_text_file(edge_list_path));
  }
  b.ingest_s = lap();
  SnapleConfig cfg;
  cfg.seed = seed;
  const gas::Partitioning partitioning = [&] {
    Span s("gas.Partitioning::create");
    return gas::Partitioning::create(*b.graph, machines, strategy, seed);
  }();
  b.partition_s = lap();
  b.replication_factor = partitioning.replication_factor();
  const LinkPredictor predictor(cfg, gas::ClusterConfig::type_i(machines),
                                strategy, gas::ExecutionMode::kSharded);
  const double cpu0 = process_cpu_s();
  {
    Span s("core.LinkPredictor::fit_with_partitioning");
    b.fitted = std::make_shared<const PredictorModel>(
        predictor.fit_with_partitioning(*b.graph, partitioning));
  }
  b.fit_s = lap();
  b.fit_cpu_s = process_cpu_s() - cpu0;
  {
    Span s("core.PredictorModel::save_file");
    b.fitted->save_file(model_path);
  }
  b.save_s = lap();
  {
    Span s("core.PredictorModel::load_file");
    b.loaded = std::make_shared<const PredictorModel>(
        PredictorModel::load_file(model_path));
  }
  b.load_s = lap();
  return b;
}

Predictions predict_all(const std::shared_ptr<const PredictorModel>& model) {
  const QueryEngine engine(model);
  const double t0 = now_s();
  std::vector<std::vector<std::pair<VertexId, float>>> scored;
  {
    Span s("core.QueryEngine::topk_all");
    scored = engine.topk_all();
  }
  Predictions out;
  out.end = now_s();
  out.seconds = out.end - t0;
  out.lists.resize(scored.size());
  for (std::size_t u = 0; u < scored.size(); ++u) {
    for (const auto& [v, score] : scored[u]) out.lists[u].push_back(v);
  }
  return out;
}

double recall_at_k(const Predictions& p, const std::vector<Edge>& hidden) {
  return eval::recall(p.lists, hidden);
}

void report_topk_all(const Predictions& p, Result& out) {
  out.layer("core.topk_all_s", p.seconds, "s");
  out.layer("core.topk_all_vps",
            static_cast<double>(p.lists.size()) / p.seconds, "1/s");
}

void report_build_layers(const Build& b, Result& out) {
  const double edges = static_cast<double>(b.graph->num_edges());
  out.layer("graph.ingest_s", b.ingest_s, "s");
  out.layer("graph.ingest_medges_per_s", edges / 1e6 / b.ingest_s, "Medges/s");
  out.layer("gas.partition_s", b.partition_s, "s");
  out.layer("gas.replication_factor", b.replication_factor, "ratio");
  const auto& steps = b.fitted->fit_report().steps;
  double gather_build = 0.0, merge_apply = 0.0, sync_drain = 0.0;
  double net_bytes = 0.0, messages = 0.0, gather_calls = 0.0;
  for (const auto& s : steps) {
    gather_build += s.exchange.gather_build_s;
    merge_apply += s.exchange.merge_apply_s;
    sync_drain += s.exchange.sync_drain_s;
    net_bytes += static_cast<double>(s.net_bytes);
    messages += static_cast<double>(s.messages);
    gather_calls += static_cast<double>(s.gather_calls);
  }
  out.layer("gas.step1_s", steps.size() > 0 ? steps[0].wall_s : 0.0, "s");
  out.layer("gas.step2_s", steps.size() > 1 ? steps[1].wall_s : 0.0, "s");
  out.layer("gas.exchange.gather_build_s", gather_build, "s");
  out.layer("gas.exchange.merge_apply_s", merge_apply, "s");
  out.layer("gas.exchange.sync_drain_s", sync_drain, "s");
  out.layer("gas.net_mb", net_bytes / 1e6, "MB");
  out.layer("gas.messages", messages, "count");
  out.layer("core.fit_s", b.fit_s, "s");
  // What the fit's own report leaves untimed: shard construction and model
  // assembly around the supersteps.
  out.layer("core.fit_outside_steps_s",
            b.fit_s - b.fitted->fit_report().total_wall_s(), "s");
  const double cores = std::max(1u, std::thread::hardware_concurrency());
  out.layer("core.fit_cpu_util", b.fit_cpu_s / (b.fit_s * cores), "ratio");
  out.layer("core.model_mb",
            static_cast<double>(b.fitted->memory_bytes()) / 1e6, "MB");
  out.layer("core.model_save_s", b.save_s, "s");
  out.layer("core.model_load_s", b.load_s, "s");
  std::printf("fit: %.0f gather calls (edges visited, fixed by the graph)\n",
              gather_calls);
}

void report_trace(const std::string& workload, const Options& opt,
                  Result& out) {
  const auto spans = tracer().spans();
  const auto by_name = summarize_by_name(spans);
  const auto by_layer = summarize_by_layer(spans);
  std::printf("\nper-span table (%s, traced): self = duration minus child spans\n",
              workload.c_str());
  std::printf("%-46s %8s %10s %10s %10s %11s %11s %5s\n", "span", "count",
              "busy_s", "self_s", "wait_s", "p50_us", "p99_us", "fail");
  for (const auto& r : by_name) {
    std::printf("%-46s %8zu %10.4f %10.4f %10.4f %11.1f %11.1f %5zu\n",
                r.name.c_str(), r.count, r.busy_s, r.self_s, r.wait_s,
                r.p50_us, r.p99_us, r.failures);
  }
  std::printf("\nper-layer table (%s, traced)\n", workload.c_str());
  std::printf("%-8s %8s %10s %10s %10s %5s\n", "layer", "spans", "busy_s",
              "self_s", "wait_s", "fail");
  for (const auto& r : by_layer) {
    std::printf("%-8s %8zu %10.4f %10.4f %10.4f %5zu\n", r.name.c_str(),
                r.count, r.busy_s, r.self_s, r.wait_s, r.failures);
  }
  for (const char* layer : {"graph", "gas", "core", "serve"}) {
    SpanSummary row;
    for (const auto& r : by_layer) {
      if (r.name == layer) row = r;
    }
    out.layer(std::string(layer) + ".busy_s", row.busy_s, "s");
  }
  const std::string path = opt.workdir + "/spans-" + workload + "-" +
                           std::to_string(opt.seed) + ".jsonl";
  tracer().write(path);
  std::printf("spans written to %s\n", path.c_str());
}

}  // namespace perfbench
