// fit-batch: the paper's batch job. Set-up makes the inputs and writes
// the train graph as a text edge list; each timed pipeline then runs text
// ingest -> greedy partition on 8 type-I machines -> sharded fit -> model
// save -> load -> topk_all, repeated for about the run's seconds (at
// least twice).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "graph/io.hpp"
#include "probes.hpp"
#include "serving.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace snaple;

namespace {

constexpr std::size_t kMachines = 8;
constexpr int kSetups = 3;
/// A run times max(2, seconds / kPipelineSeconds) pipelines: a fixed count
/// for given seconds, so every run does the same work.
constexpr double kPipelineSeconds = 4.0;
/// The stages (ingest, partition, fit, save, load, topk_all) must add up
/// to the independently timed pipeline within this share of it. The laps
/// are contiguous, so this holds by construction unless a stage goes
/// untimed; the fit-report check below is the one that can fail.
constexpr double kStageSumTolerance = 0.01;
/// The fit's own account of its time must agree with the outside clock:
/// its supersteps' wall times fit inside core.fit_s, and each superstep's
/// exchange phases inside its wall time, to within this share (clock
/// granularity). The report does not time shard construction or model
/// assembly, so the supersteps cover only part of the fit; that part is
/// printed, not gated.
constexpr double kFitReportTolerance = 0.01;
/// Traced replay of the user stream through a static cluster.
constexpr double kReplayRate = 4000.0;
constexpr double kReplaySeconds = 1.5;

struct Pipeline {
  Build build;
  Predictions predictions;
  double seconds = 0.0;
  double cpu_s = 0.0;
  [[nodiscard]] double stage_sum() const {
    return build.ingest_s + build.partition_s + build.fit_s + build.save_s +
           build.load_s + predictions.seconds;
  }
  /// The paper's interval: graph in memory -> predictions for every vertex
  /// (partitioning excluded, as in LinkPredictor's PredictionRun).
  [[nodiscard]] double predict_s() const {
    return build.fit_s + predictions.seconds;
  }
};

Pipeline run_pipeline(const std::string& edges_path,
                      const std::string& model_path, std::uint64_t seed) {
  Pipeline p;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  p.build = build_model(edges_path, model_path, kMachines,
                        gas::PartitionStrategy::kGreedy, seed);
  p.predictions = predict_all(p.build.loaded);
  p.seconds = p.predictions.end - t0;
  p.cpu_s = process_cpu_s() - cpu0;
  return p;
}

void check_pipeline(const Pipeline& p, const Inputs& in, bool check_graph,
                    Result& out) {
  if (!(*p.build.loaded == *p.build.fitted)) {
    out.gate_failed("loaded model differs from the fitted model");
  }
  // Compared in place: materialising edges() would add two edge lists to
  // the measured peak.
  const auto& g = *p.build.graph;
  if (check_graph &&
      !(std::ranges::equal(g.out_offsets(), in.train.out_offsets()) &&
        std::ranges::equal(g.out_targets(), in.train.out_targets()))) {
    out.gate_failed("ingested graph differs from the written train graph");
  }
  const auto& report = p.build.fitted->fit_report();
  if (report.total_wall_s() > (1.0 + kFitReportTolerance) * p.build.fit_s) {
    out.gate_failed("fit_report() supersteps take " +
                    std::to_string(report.total_wall_s()) +
                    " s, more than the fit's " + std::to_string(p.build.fit_s) +
                    " s");
  }
  for (const auto& step : report.steps) {
    if (step.exchange.total() > (1.0 + kFitReportTolerance) * step.wall_s) {
      out.gate_failed("superstep " + step.name + " reports " +
                      std::to_string(step.exchange.total()) +
                      " s of exchange phases in " +
                      std::to_string(step.wall_s) + " s");
    }
  }
  const double gap = std::abs(p.seconds - p.stage_sum());
  if (gap > kStageSumTolerance * p.seconds) {
    out.gate_failed("stage times sum to " + std::to_string(p.stage_sum()) +
                    " s but the pipeline took " + std::to_string(p.seconds) +
                    " s");
  }
}

void print_pipeline(int rep, const Pipeline& p, bool traced) {
  const Build& b = p.build;
  std::printf(
      "pipeline %d%s: pipeline_s %.4f predict_s %.4f | ingest %.4f "
      "partition %.4f fit %.4f (%.4f in supersteps) save %.4f load %.4f "
      "topk_all %.4f | cpu %.2f s\n",
      rep, traced ? " (traced)" : "", p.seconds, p.predict_s(), b.ingest_s,
      b.partition_s, b.fit_s, b.fitted->fit_report().total_wall_s(), b.save_s,
      b.load_s, p.predictions.seconds, p.cpu_s);
}

}  // namespace

void run_fit_batch(const Options& opt, Result& out) {
  const std::string edges_path = opt.workdir + "/fit-batch-train.txt";
  const std::string model_path = opt.workdir + "/fit-batch-model.bin";

  // Set-up: generate the replica, hold out its edges and write the train
  // graph as a text edge list.
  std::optional<Inputs> in;
  std::vector<double> setups;
  tracer().set_enabled(opt.trace);
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    const double t0 = now_s();
    {
      Span setup("bench.setup");
      in.reset();
      in.emplace(make_inputs(opt));
      Span s("graph.save_edge_list_text_file");
      save_edge_list_text_file(in->train, edges_path);
    }
    setups.push_back(now_s() - t0);
  }
  tracer().set_enabled(false);
  // The seed draws only the fit's own seed (SnapleConfig::seed: the sampled
  // neighbour sets, and the partitioning's master placement).
  print_inputs(opt, fnv1a(kFnvBasis, opt.seed));
  std::printf("fit-batch: twitter-s x%.3g, %u vertices, %zu train edges, "
              "%zu hidden\n",
              opt.scale, in->train.num_vertices(),
              static_cast<std::size_t>(in->train.num_edges()),
              in->hidden.size());

  // Untraced pipelines; the traced run adds one traced pipeline after its
  // first untraced one, and their difference is the tracing overhead.
  // Each pipeline is released once checked, so the process peaks with one
  // pipeline's graph, models and predictions resident.
  const auto pipelines =
      opt.trace ? std::size_t{1}
                : std::max<std::size_t>(2, static_cast<std::size_t>(std::ceil(
                                               opt.seconds / kPipelineSeconds)));
  std::vector<double> pipeline_s, predict_s, cpu_s;
  double recall = 0.0;
  for (std::size_t i = 0; i < pipelines; ++i) {
    const Pipeline p = run_pipeline(edges_path, model_path, opt.seed);
    print_pipeline(static_cast<int>(i + 1), p, false);
    check_pipeline(p, *in, i == 0, out);
    if (i == 0) recall = recall_at_k(p.predictions, in->hidden);
    pipeline_s.push_back(p.seconds);
    predict_s.push_back(p.predict_s());
    cpu_s.push_back(p.cpu_s);
  }
  out.attempted = pipelines;
  std::printf("fit-batch: pipeline_s median %.4f, predict_s median %.4f "
              "(%.0f vertices/s), recall_at_k %.6f\n",
              median(pipeline_s), median(predict_s),
              static_cast<double>(in->train.num_vertices()) / median(predict_s),
              recall);

  if (!opt.trace) {
    out.e2e("setup_s", median(setups), "s");
    out.e2e("rss_peak_mb", rss_peak_mb(), "MB");
    out.e2e("latency_p50_ms", median(pipeline_s) * 1e3, "ms");
    out.e2e("cpu_ms_per_op", median(cpu_s) * 1e3, "ms");
    out.e2e("recall_at_k", recall, "ratio");
    return;
  }

  // ---- Traced run. ----
  tracer().set_enabled(true);
  std::uint64_t pipeline_span = 0;
  const Pipeline traced = [&] {
    Span span("bench.pipeline");
    pipeline_span = span.id();
    return run_pipeline(edges_path, model_path, opt.seed);
  }();
  print_pipeline(2, traced, true);
  check_pipeline(traced, *in, false, out);
  out.attempted += 1;
  // The stage gate again, from the spans: the per-layer sum must match.
  double span_sum = 0.0;
  for (const auto& s : tracer().spans()) {
    if (s.parent == pipeline_span) span_sum += s.end - s.start;
  }
  std::printf("tracing overhead: traced pipeline %.4f s - untraced %.4f s "
              "= %+.4f s; span sum %.4f s vs pipeline_s %.4f s "
              "(tolerance %.0f%%)\n",
              traced.seconds, pipeline_s.front(),
              traced.seconds - pipeline_s.front(), span_sum,
              traced.seconds, kStageSumTolerance * 100);
  if (std::abs(span_sum - traced.seconds) >
      kStageSumTolerance * traced.seconds) {
    out.gate_failed("traced per-layer spans do not sum to pipeline_s");
  }
  report_build_layers(traced.build, out);
  report_topk_all(traced.predictions, out);

  // Replay a uniform stream of the held-out edges' sources through the
  // layers under serving, then through a static cluster over the model.
  std::vector<VertexId> users;
  {
    Rng rng(opt.seed ^ 0xfb0fb0ULL);
    for (int i = 0; i < static_cast<int>(kReplayRate * kReplaySeconds); ++i) {
      users.push_back(in->hidden[rng.next_below(in->hidden.size())].src);
    }
  }
  {
    Span replay("bench.replay");
    run_layer_probes(traced.build.loaded, users, 4, out);
    std::optional<serve::ServingCluster> cluster;
    {
      Span s("serve.ServingCluster::build");
      cluster.emplace(*traced.build.loaded, serving_options(opt.scale));
    }
    const auto before = snapshot(*cluster);
    const LoadStats load = run_queries(cluster->router(), users, kReplayRate);
    const auto after = snapshot(*cluster);
    out.attempted += load.attempted;
    out.failed += load.failed;
    report_serving_layers(*cluster, before, after, load, out);
  }
  tracer().set_enabled(false);
  report_trace("fit-batch", opt, out);
}

}  // namespace perfbench
