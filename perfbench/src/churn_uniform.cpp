// churn-uniform: writes beside reads. About 20k train edges are held back
// as a timestamped stream; set-up builds a kEdgeLocal model of the rest,
// serves it from a LIVE 4-shard cluster and fills a sliding window with
// kWindow stream inserts. Each later slot inserts a batch of 8 through
// UpdateRouter::apply and, half a slot later, expires the 8 oldest
// through remove, at a fixed slot rate, while uniform queries run beside
// it at a fixed rate. Each set-up is followed by a third of the timed
// slots. A second phase runs the writer back to back with the same
// queries.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "core/dynamic_model.hpp"
#include "core/predictor.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "probes.hpp"
#include "serving.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace snaple;

namespace {

constexpr std::size_t kMachines = 4;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kStreamEdges = 20000;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kWindow = 4096;
/// Window prefill batch (set-up, not timed per op).
constexpr std::size_t kPrefillBatch = 512;
constexpr std::size_t kWarmUsers = 8192;
constexpr std::size_t kGateUsers = 512;
/// Each slot is one insert batch and one remove batch. A 4-vCPU box held
/// about 100 slots/s with the queries running when quiet, and a quarter
/// of that while neighbours loaded it; at 25 or 50 slots/s such a spell
/// queued the writer without bound. The nominal rates sit near half the
/// loaded capacity. The queries run at 250/s: at 1,000/s their server-side
/// CPU was half of cpu_ms_per_op and diluted any change to the write path.
constexpr double kSlotRate = 10.0;
constexpr double kQueryRate = 250.0;
constexpr double kClosedSeconds = 3.0;

struct Stream {
  std::shared_ptr<const CsrGraph> base;  // train minus the stream
  std::vector<Edge> edges;               // in arrival order
};

Stream split_stream(const CsrGraph& train, std::size_t count,
                    std::uint64_t seed) {
  auto all = train.edges();
  count = std::min(count, all.size() / 4);
  // An insert or remove of (u, v) recomputes the sims rows of u's
  // in-neighbours, so its cost follows |in(u)|, which is heavy-tailed.
  // The stream is sampled systematically along that order and laid out by
  // a golden-ratio sequence over the ranks, so every stretch of it, and
  // so every run's share, holds the same mix of cheap and hub operations.
  // (Plain random sampling would make each run's tail a lottery of how
  // many hubs it happened to draw.) The sampled set is fixed, so the base
  // graph, and with it recall_at_k, is the same on every seed; the seed
  // picks the order.
  std::vector<std::uint32_t> in_degree(train.num_vertices(), 0);
  for (const Edge& e : all) ++in_degree[e.dst];
  std::sort(all.begin(), all.end(), [&](const Edge& a, const Edge& b) {
    const auto ka = in_degree[a.src];
    const auto kb = in_degree[b.src];
    return ka != kb ? ka < kb : (a.src != b.src ? a.src < b.src : a.dst < b.dst);
  });
  Rng rng(seed ^ 0x57eaULL);
  const std::size_t stride = all.size() / count;
  const std::size_t offset = stride / 2;
  std::vector<bool> picked(all.size(), false);
  for (std::size_t i = 0; i < count; ++i) picked[offset + i * stride] = true;
  const double phase = rng.next_double();
  std::vector<std::pair<double, std::size_t>> order(count);
  for (std::size_t p = 0; p < count; ++p) {
    const double x = phase + 0.6180339887498949 * static_cast<double>(p);
    order[p] = {x - std::floor(x), p};
  }
  std::sort(order.begin(), order.end());
  Stream s;
  s.edges.resize(count);
  for (std::size_t rank = 0; rank < count; ++rank) {
    s.edges[order[rank].second] = all[offset + rank * stride];
  }
  GraphBuilder builder(train.num_vertices());
  builder.reserve_edges(all.size() - count);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!picked[i]) builder.add_edge(all[i].src, all[i].dst);
  }
  s.base = std::make_shared<const CsrGraph>(builder.build());
  return s;
}

/// Slot j inserts the stream's next batch after the window and expires
/// the window's oldest batch.
std::vector<std::vector<WriteOp>> make_slots(const std::vector<Edge>& stream,
                                             std::size_t window) {
  std::vector<std::vector<WriteOp>> slots;
  const std::span<const Edge> all(stream);
  for (std::size_t at = window; at + kBatch <= all.size(); at += kBatch) {
    const std::size_t oldest = at - window;
    slots.push_back({{false, all.subspan(at, kBatch)},
                     {true, all.subspan(oldest, kBatch)}});
  }
  return slots;
}

struct Served {
  Build build;
  std::optional<serve::ServingCluster> cluster;
};

/// Builds and serves the base model, then fills the window with the
/// `window` stream inserts from index `from` on.
void set_up(Served& s, const Stream& stream, std::size_t from,
            std::size_t window, const Options& opt,
            std::span<const VertexId> warm) {
  const std::string edges_path = opt.workdir + "/churn-uniform-base.txt";
  // Release the previous set-up's cluster and model first, so a repeated
  // set-up peaks with one build resident.
  s.cluster.reset();
  s.build = Build{};
  {
    Span span("graph.save_edge_list_text_file");
    save_edge_list_text_file(*stream.base, edges_path);
  }
  s.build = build_model(edges_path, opt.workdir + "/churn-uniform-model.bin",
                        kMachines, gas::PartitionStrategy::kEdgeLocal,
                        opt.seed);
  {
    Span span("serve.ServingCluster::build(live)");
    s.cluster.emplace(s.build.loaded, s.build.graph,
                      serving_options(opt.scale));
  }
  {
    Span span("serve.UpdateRouter::apply(prefill)");
    const auto fill = std::span<const Edge>(stream.edges).subspan(from, window);
    for (std::size_t at = 0; at < fill.size(); at += kPrefillBatch) {
      (void)s.cluster->update_router().apply(
          fill.subspan(at, std::min(kPrefillBatch, fill.size() - at)));
    }
  }
  warm_up(*s.cluster, warm);
}

std::vector<VertexId> uniform_users(VertexId n, std::size_t count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> out(count);
  for (auto& u : out) u = static_cast<VertexId>(rng.next_below(n));
  return out;
}

struct Phase {
  WriteStats writes;
  LoadStats queries;
  double cpu_s = 0.0;  // process CPU minus the query generators'
};

/// Writer on its own thread, queries on the calling thread's workers.
Phase run_phase(serve::ServingCluster& cluster,
                std::span<const std::vector<WriteOp>> slots, double slot_rate,
                double stop_after, std::span<const VertexId> users,
                std::uint64_t request_base) {
  Phase p;
  const double cpu0 = process_cpu_s();
  const std::uint64_t parent = current_span();
  std::thread writer([&] {
    p.writes = run_writes(cluster.update_router(), slots, slot_rate,
                          stop_after, request_base, parent);
  });
  p.queries = run_queries(cluster.router(), users, kQueryRate, request_base);
  writer.join();
  p.cpu_s = process_cpu_s() - cpu0 - p.queries.generator_cpu_s;
  return p;
}

void merge(Phase& into, const Phase& part) {
  merge(into.writes, part.writes);
  merge(into.queries, part.queries);
  into.cpu_s += part.cpu_s;
}

void print_phase(const char* name, const Phase& p) {
  const auto& w = p.writes;
  std::printf(
      "%s: %zu slots, %llu edge ops in %.3f s (%.0f ops/s); stale p50 %.3f "
      "p90 %.3f p95 %.3f p99 %.3f ms; apply p50 %.3f p99 %.3f ms; remove p50 %.3f p99 "
      "%.3f ms; wait p99 %.3f ms | queries %llu: p50 %.1f us p99 %.1f us, "
      "generator late p99 %.1f us, backlog max %llu | failed %llu\n",
      name, w.slots_done, static_cast<unsigned long long>(w.edge_ops),
      w.wall_s, static_cast<double>(w.edge_ops) / w.wall_s,
      pct(w.stale_ms, 0.5), pct(w.stale_ms, 0.9), pct(w.stale_ms, 0.95),
      pct(w.stale_ms, 0.99), pct(w.apply_ms, 0.5),
      pct(w.apply_ms, 0.99), pct(w.remove_ms, 0.5), pct(w.remove_ms, 0.99),
      pct(w.wait_ms, 0.99),
      static_cast<unsigned long long>(p.queries.attempted),
      pct(p.queries.latency_us, 0.5), pct(p.queries.latency_us, 0.99),
      pct(p.queries.late_us, 0.99),
      static_cast<unsigned long long>(p.queries.backlog_max),
      static_cast<unsigned long long>(w.failed + p.queries.failed));
}

void count(const Phase& p, Result& out) {
  out.attempted += p.writes.attempted + p.queries.attempted;
  out.failed += p.writes.failed + p.queries.failed;
}

/// The single-writer baseline: the same prefill and slots applied to a
/// DynamicModel over the same base, with no fan-out.
void replay_dynamic_model(const Build& b, const Stream& stream,
                          std::size_t window,
                          std::span<const std::vector<WriteOp>> slots) {
  DynamicModel dm(b.loaded, b.graph);
  const std::span<const Edge> fill(stream.edges.data(), window);
  for (std::size_t at = 0; at < fill.size(); at += kPrefillBatch) {
    (void)dm.add_edges(
        fill.subspan(at, std::min(kPrefillBatch, fill.size() - at)));
  }
  std::vector<double> ms;
  for (std::size_t j = 0; j < slots.size(); ++j) {
    for (const WriteOp& op : slots[j]) {
      const double t0 = now_s();
      if (op.remove) {
        Span s("core.DynamicModel::remove_edges", j);
        (void)dm.remove_edges(op.batch);
      } else {
        Span s("core.DynamicModel::add_edges", j);
        (void)dm.add_edges(op.batch);
      }
      ms.push_back((now_s() - t0) * 1e3);
    }
  }
  std::printf("core.dynamic_apply_ms: p50 %.3f p99 %.3f over %zu ops; "
              "DynamicModel overlay %.2f MB\n",
              pct(ms, 0.5), pct(ms, 0.99), ms.size(),
              static_cast<double>(dm.overlay_bytes()) / 1e6);
}

}  // namespace

void run_churn_uniform(const Options& opt, Result& out) {
  const Inputs in = make_inputs(opt);
  const VertexId n = in.train.num_vertices();
  const Stream stream = split_stream(
      in.train,
      std::max<std::size_t>(
          kWindow / 4, static_cast<std::size_t>(kStreamEdges * opt.scale)),
      opt.seed);
  const std::size_t window = std::min(kWindow, stream.edges.size() / 4);
  const auto slots = make_slots(stream.edges, window);
  const auto open_slots = std::min(
      slots.size() / 2, static_cast<std::size_t>(kSlotRate * opt.seconds));
  const std::span<const std::vector<WriteOp>> all_slots(slots);
  const auto warm = uniform_users(n, kWarmUsers, opt.seed ^ 0x3a3aULL);
  const auto users = uniform_users(
      n, static_cast<std::size_t>(kQueryRate * opt.seconds), opt.seed);
  std::uint64_t fingerprint = kFnvBasis;
  for (const Edge& e : stream.edges) {
    fingerprint = fnv1a(fnv1a(fingerprint, e.src), e.dst);
  }
  for (const VertexId u : users) fingerprint = fnv1a(fingerprint, u);
  print_inputs(opt, fingerprint);
  std::printf("churn-uniform: twitter-s x%.3g, %u vertices, %zu base edges, "
              "%zu stream edges, window %zu; %zu slots at %.0f/s, queries at "
              "%.0f/s\n",
              opt.scale, n, static_cast<std::size_t>(stream.base->num_edges()),
              stream.edges.size(), window, open_slots, kSlotRate, kQueryRate);

  // Each set-up is followed by its share of the open-loop slots, so the
  // measured slots are spread over the whole run. Set-up i fills the
  // window with the stream inserts just before its share, so the shares
  // apply different stretches of the stream. A traced run sets up once
  // and runs the first half of the slots untraced and the second half
  // traced: the difference is the tracing overhead.
  Served s;
  std::vector<double> setups;
  Phase open;
  double hits = 0.0;
  double lookups = 0.0;
  const std::span<const VertexId> all_users(users);
  const std::size_t segments = opt.trace ? 1 : kSetups;
  const std::size_t slot_share = open_slots / (opt.trace ? 2 : kSetups);
  const std::size_t user_share = users.size() / (opt.trace ? 2 : kSetups);
  std::size_t applied = 0;  // the next slot of the stream
  for (std::size_t i = 0; i < segments; ++i) {
    const std::size_t first_slot = i * slot_share;
    tracer().set_enabled(opt.trace);
    {
      const double t0 = now_s();
      Span span("bench.setup");
      set_up(s, stream, first_slot * kBatch, window, opt, warm);
      setups.push_back(now_s() - t0);
    }
    tracer().set_enabled(false);
    const bool rest = i + 1 == segments && !opt.trace;
    const std::size_t count_slots = rest ? open_slots - first_slot : slot_share;
    const auto part_users = rest ? all_users.subspan(i * user_share)
                                 : all_users.subspan(i * user_share, user_share);
    const auto before = snapshot(*s.cluster);
    const Phase part = run_phase(*s.cluster,
                                 all_slots.subspan(first_slot, count_slots),
                                 kSlotRate, 0.0, part_users, 0);
    const auto after = snapshot(*s.cluster);
    std::printf("open loop share %zu: stale p50 %.3f p95 %.3f ms, query p50 "
                "%.1f us\n",
                i + 1, pct(part.writes.stale_ms, 0.5),
                pct(part.writes.stale_ms, 0.95),
                pct(part.queries.latency_us, 0.5));
    merge(open, part);
    hits += static_cast<double>(after.cache.hits - before.cache.hits);
    lookups += static_cast<double>((after.cache.hits + after.cache.misses) -
                                   (before.cache.hits + before.cache.misses));
    applied = first_slot + count_slots;
  }
  auto& cluster = *s.cluster;
  print_phase("open loop", open);
  std::printf("open loop cache hit ratio %.3f\n",
              lookups > 0.0 ? hits / lookups : 0.0);
  count(open, out);

  std::optional<Phase> traced;
  ServeCounters before_t, after_t;
  double closed_ops_per_s = 0.0;
  if (opt.trace) {
    tracer().set_enabled(true);
    {
      Span span("bench.open_loop");
      before_t = snapshot(cluster);
      traced = run_phase(cluster,
                         all_slots.subspan(applied, open_slots - applied),
                         kSlotRate, 0.0, all_users.subspan(user_share),
                         user_share);
      after_t = snapshot(cluster);
    }
    tracer().set_enabled(false);
    print_phase("open loop (traced)", *traced);
    count(*traced, out);
    applied = open_slots;
  } else {
    const auto closed_users = uniform_users(
        n, static_cast<std::size_t>(kQueryRate * kClosedSeconds),
        opt.seed ^ 0xc105edULL);
    const Phase closed = run_phase(cluster, all_slots.subspan(applied), 0.0,
                                   kClosedSeconds, closed_users, 0);
    print_phase("closed loop", closed);
    count(closed, out);
    applied += closed.writes.slots_done;
    closed_ops_per_s =
        static_cast<double>(closed.writes.edge_ops) / closed.writes.wall_s;
  }

  // Correctness gate: after a barrier, served answers are bit-identical to
  // a fit on the live graph (base plus the window's surviving inserts).
  (void)cluster.update_router().barrier();
  const std::size_t live_end = window + applied * kBatch;
  GraphBuilder live(n);
  for (const Edge& e : stream.base->edges()) live.add_edge(e.src, e.dst);
  for (std::size_t i = live_end - window; i < live_end; ++i) {
    live.add_edge(stream.edges[i].src, stream.edges[i].dst);
  }
  SnapleConfig cfg;
  cfg.seed = opt.seed;
  const LinkPredictor refit(cfg, gas::ClusterConfig::type_i(kMachines),
                            gas::PartitionStrategy::kEdgeLocal);
  const QueryEngine reference(
      std::make_shared<const PredictorModel>(refit.fit(live.build())));
  auto gate_users = uniform_users(n, kGateUsers / 2, opt.seed ^ 0x6a7eULL);
  for (std::size_t i = live_end - std::min(kGateUsers / 2, window);
       i < live_end; ++i) {
    gate_users.push_back(stream.edges[i].src);
  }
  const std::size_t mismatches =
      count_mismatches(cluster.router(), reference, gate_users);
  if (mismatches > 0) {
    out.gate_failed(std::to_string(mismatches) + " of " +
                    std::to_string(gate_users.size()) +
                    " live answers differ from a refit on the live graph");
  }

  const auto us = cluster.update_router().stats();
  double overlay_mb = 0.0;
  for (const auto& st : cluster.stats()) {
    overlay_mb += static_cast<double>(st.overlay_bytes) / 1e6;
  }
  const double ops = std::max<double>(1.0, static_cast<double>(
                                               us.batches + us.remove_batches));
  std::printf("update plane: %llu insert + %llu remove batches; rows/op "
              "%.1f (gamma %.1f, sims %.1f, hop2 %.1f); wire %.0f B/op; "
              "overlay %.2f MB over all shards; churn_ops_per_s %.1f\n",
              static_cast<unsigned long long>(us.batches),
              static_cast<unsigned long long>(us.remove_batches),
              static_cast<double>(us.gamma_rows + us.sims_rows + us.hop2_rows) /
                  ops,
              static_cast<double>(us.gamma_rows) / ops,
              static_cast<double>(us.sims_rows) / ops,
              static_cast<double>(us.hop2_rows) / ops,
              static_cast<double>(us.bytes_sent + us.bytes_received) / ops,
              overlay_mb, closed_ops_per_s);

  if (!opt.trace) {
    const Predictions p = predict_all(s.build.loaded);
    const double write_ops = std::max<double>(
        1.0, static_cast<double>(open.writes.apply_ms.size() +
                                 open.writes.remove_ms.size()));
    out.e2e("setup_s", median(setups), "s");
    out.e2e("rss_peak_mb", rss_peak_mb(), "MB");
    out.e2e("latency_p50_ms", pct(open.writes.stale_ms, 0.5), "ms");
    out.e2e("cpu_ms_per_op", open.cpu_s / write_ops * 1e3, "ms");
    out.e2e("recall_at_k", recall_at_k(p, in.hidden), "ratio");
    return;
  }

  std::printf("tracing overhead: stale p50 %.3f -> %.3f ms, query p50 %.1f "
              "-> %.1f us (untraced half -> traced half)\n",
              pct(open.writes.stale_ms, 0.5),
              pct(traced->writes.stale_ms, 0.5),
              pct(open.queries.latency_us, 0.5),
              pct(traced->queries.latency_us, 0.5));
  report_serving_layers(cluster, before_t, after_t, traced->queries, out);
  report_build_layers(s.build, out);
  tracer().set_enabled(true);
  {
    Span span("bench.replay");
    report_topk_all(predict_all(s.build.loaded), out);
    run_layer_probes(s.build.loaded, users, kMachines, out);
    replay_dynamic_model(s.build, stream, window, all_slots.first(open_slots));
  }
  tracer().set_enabled(false);
  report_trace("churn-uniform", opt, out);
}

}  // namespace perfbench
