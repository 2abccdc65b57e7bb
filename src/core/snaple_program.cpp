#include "core/snaple_program.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "core/snaple_rows.hpp"
#include "graph/compressed_csr.hpp"
#include "util/score_map.hpp"
#include "util/top_k.hpp"

namespace snaple {

std::string policy_name(SelectionPolicy policy) {
  switch (policy) {
    case SelectionPolicy::kMax:
      return "max";
    case SelectionPolicy::kMin:
      return "min";
    case SelectionPolicy::kRandom:
      return "rnd";
  }
  return "?";
}

std::string SnapleConfig::describe() const {
  std::string out = score_name(score);
  out += " k=" + std::to_string(k);
  out += " klocal=";
  out += (k_local == kUnlimited ? "inf" : std::to_string(k_local));
  out += " thr=";
  out += (thr_gamma == kUnlimited ? "inf" : std::to_string(thr_gamma));
  if (policy != SelectionPolicy::kMax) out += " policy=" + policy_name(policy);
  if (k_hops != 2) out += " K=" + std::to_string(k_hops);
  if (hop2_min_score > 0) {
    out += " hop2min=" + std::to_string(hop2_min_score);
  }
  return out;
}

std::size_t snaple_vertex_data_bytes(const SnapleVertexData& d) {
  return sizeof(std::uint32_t) * 4 +               // length prefixes
         d.gamma_hat.size() * sizeof(VertexId) +   // Γ̂ ids
         d.sims.size() * (sizeof(VertexId) + sizeof(float)) +
         d.hop2.size() * (sizeof(VertexId) + sizeof(float)) +
         d.predicted.size() * (sizeof(VertexId) + sizeof(float));
}

namespace {

/// The whole program is templated over the graph representation: flat
/// CsrGraph or CompressedCsrGraph. The step bodies only ever touch
/// out_degree (O(1) on both — degrees live in the offset arrays, never
/// behind a decode), and the engine's gather hands them identical edges
/// in identical order, so the two instantiations are bit-identical in
/// scores and accounting — the tentpole contract, pinned by a test.
template <typename Graph>
using SnapleEngine = gas::Engine<SnapleVertexData, Graph>;

/// Everything the four step definitions need; one per run. The per-row
/// bodies (Bernoulli sampling, klocal selection, the ⊗/⊕pre candidate
/// folds) live in core/snaple_rows.hpp, shared with the serving-side
/// replays — bit-identity between batch and serving depends on it.
template <typename Graph>
struct StepContext {
  const Graph& graph;
  const SnapleConfig& config;
  const ScoreConfig score;
  const gas::ApplyMode mode;
  /// 2b zero-path early exit (rows::hop2_zero_skip): provably exact
  /// under a Sum aggregator with hop2_min_score > 0, off otherwise.
  const bool hop2_skip_zero;
};

/// Cross-machine partial merge for the ScoreMap steps: fold the other
/// shard's (z, σ, n) triplets with the same ⊕pre the gather uses — the
/// `merge` of Algorithm 2 line 16, now also the wire-level sum. `from` is
/// the other partial's slot run (a received sealed run, or a local
/// table's slots with their holes), read in place.
auto make_merge_scores(const Aggregator agg) {
  return [agg](ScoreMap& into, std::span<const ScoreMap::Slot> from) {
    ScoreMap::for_each_slot(
        from, [&](VertexId z, float sigma, std::uint32_t paths) {
          into.accumulate(z, sigma, paths, [&](float a, float b) {
            return static_cast<float>(agg.pre(a, b));
          });
        });
  };
}

// ---- Step 1: sample Γ̂(u) under the truncation threshold thrΓ. ----
template <typename Graph>
void step_sample(SnapleEngine<Graph>& engine, const StepContext<Graph>& ctx) {
  const SnapleConfig& config = ctx.config;
  const Graph& graph = ctx.graph;
  gas::StepOptions opt{.name = "1:sample-neighborhood",
                       .dir = gas::EdgeDir::kOut,
                       .mode = ctx.mode};
  engine.template step<std::vector<VertexId>>(
      opt,
      [&](VertexId u, VertexId v, const SnapleVertexData&,
          const SnapleVertexData&, std::vector<VertexId>& acc)
          -> std::size_t {
        if (!rows::keep_sampled_edge(config, u, v, graph.out_degree(u))) {
          return 0;
        }
        acc.push_back(v);
        return sizeof(VertexId);
      },
      [](VertexId, SnapleVertexData& du, std::vector<VertexId>& acc,
         std::size_t) {
        du.gamma_hat.assign(acc.begin(), acc.end());
        std::sort(du.gamma_hat.begin(), du.gamma_hat.end());
      });
}

// ---- Step 2: raw similarities, keep the klocal best (Γmax). ----
template <typename Graph>
void step_similarities(SnapleEngine<Graph>& engine,
                       const StepContext<Graph>& ctx) {
  const SnapleConfig& config = ctx.config;
  gas::StepOptions opt{.name = "2:similarities",
                       .dir = gas::EdgeDir::kOut,
                       .mode = ctx.mode};
  using SimAcc = std::vector<std::pair<VertexId, float>>;
  engine.template step<SimAcc>(
      opt,
      [&](VertexId, VertexId v, const SnapleVertexData& du,
          const SnapleVertexData& dv, SimAcc& acc) -> std::size_t {
        const double s =
            similarity(ctx.score.metric, du.gamma_hat, dv.gamma_hat,
                       ctx.graph.out_degree(v));
        acc.emplace_back(v, static_cast<float>(s));
        return sizeof(VertexId) + sizeof(float);
      },
      [&](VertexId u, SnapleVertexData& du, SimAcc& acc, std::size_t) {
        rows::select_k_local(acc, config, u);
        du.sims.assign(acc.begin(), acc.end());
      });
}

// ---- Step 2b (K=3 only): fold 2-hop scores one hop further. ----
// Each vertex computes its aggregated 2-hop candidate scores (the same
// path-combination/aggregation the final step performs) and keeps the
// klocal best; the final step can then extend them by one more edge —
// the recursive ⊗ fold of the paper's footnote 2. A positive
// config.hop2_min_score drops below-threshold candidates before the
// klocal selection (the K=3 pruning knob; 0 keeps everything), and —
// when provably exact (ctx.hop2_skip_zero) — lets the gather skip
// zero-valued paths, including whole edges, before any candidate work.
template <typename Graph>
void step_hop2(SnapleEngine<Graph>& engine, const StepContext<Graph>& ctx) {
  const SnapleConfig& config = ctx.config;
  const Combinator comb = ctx.score.combinator;
  const Aggregator agg = ctx.score.aggregator;
  const bool skip_zero = ctx.hop2_skip_zero;
  gas::StepOptions opt{.name = "2b:hop2-scores",
                       .dir = gas::EdgeDir::kOut,
                       .mode = ctx.mode};
  engine.template step<ScoreMap>(
      opt,
      [&](VertexId u, VertexId v, const SnapleVertexData& du,
          const SnapleVertexData& dv, ScoreMap& acc) -> std::size_t {
        const float* suv = rows::find_sim(du.sims, v);
        if (suv == nullptr) return 0;
        return rows::fold_hop2_edge(
            u, std::span<const VertexId>(du.gamma_hat), *suv,
            rows::PairSims{&dv.sims}, comb, skip_zero, acc,
            [&](float a, float b) {
              return static_cast<float>(agg.pre(a, b));
            });
      },
      make_merge_scores(agg),
      [&](VertexId u, SnapleVertexData& du, ScoreMap& acc, std::size_t) {
        std::vector<std::pair<VertexId, float>> collected;
        acc.for_each([&](VertexId z, float sigma, std::uint32_t n) {
          const auto s = static_cast<float>(agg.post(sigma, n));
          if (config.hop2_min_score > 0 && s < config.hop2_min_score) {
            return;  // pruned: this 2-hop candidate scores too low
          }
          collected.emplace_back(z, s);
        });
        rows::select_k_local(collected, config, u);
        du.hop2.assign(collected.begin(), collected.end());
      });
}

// ---- Step 3: combine (⊗) along paths, aggregate (⊕), rank top-k. ----
template <typename Graph>
void step_recommend(SnapleEngine<Graph>& engine,
                    const StepContext<Graph>& ctx) {
  const SnapleConfig& config = ctx.config;
  const Combinator comb = ctx.score.combinator;
  const Aggregator agg = ctx.score.aggregator;
  gas::StepOptions opt{.name = "3:recommend",
                       .dir = gas::EdgeDir::kOut,
                       .mode = ctx.mode};
  engine.template step<ScoreMap>(
      opt,
      [&](VertexId u, VertexId v, const SnapleVertexData& du,
          const SnapleVertexData& dv, ScoreMap& acc) -> std::size_t {
        const float* suv = rows::find_sim(du.sims, v);
        if (suv == nullptr) return 0;  // v ∉ Γmax(u): path not retained
        const std::span<const VertexId> gamma(du.gamma_hat);
        const auto pre = [&](float a, float b) {
          return static_cast<float>(agg.pre(a, b));
        };
        std::size_t bytes =
            rows::fold_path_list(u, gamma, *suv, rows::PairSims{&dv.sims},
                                 comb, /*skip_zero=*/false, acc, pre);
        if (config.k_hops == 3) {
          // 3-hop paths u → v → (v's 2-hop candidate z): extend v's
          // folded 2-hop score by the first-hop similarity.
          bytes += rows::fold_path_list(u, gamma, *suv,
                                        rows::PairSims{&dv.hop2}, comb,
                                        /*skip_zero=*/false, acc, pre);
        }
        return bytes;
      },
      make_merge_scores(agg),
      [&](VertexId, SnapleVertexData& du, ScoreMap& acc, std::size_t) {
        TopK<VertexId, double> top(config.k);
        acc.for_each([&](VertexId z, float sigma, std::uint32_t n) {
          top.offer(z, agg.post(sigma, n));
        });
        du.predicted.clear();
        du.prediction_scores.clear();
        for (const auto& entry : top.take_sorted()) {
          du.predicted.push_back(entry.item);
          du.prediction_scores.push_back(
              static_cast<float>(entry.score));
        }
      });
}

/// Steps 1–2 (and 2b): the model-building half shared by run_snaple and
/// run_snaple_fit.
template <typename Graph>
void run_model_steps(SnapleEngine<Graph>& engine,
                     const StepContext<Graph>& ctx) {
  step_sample(engine, ctx);
  step_similarities(engine, ctx);
  if (ctx.config.k_hops == 3) step_hop2(engine, ctx);
}

template <typename Graph>
StepContext<Graph> make_context(const Graph& graph,
                                const SnapleConfig& config,
                                gas::ApplyMode mode) {
  SNAPLE_CHECK_MSG(config.k_hops == 2 || config.k_hops == 3,
                   "SNAPLE supports K=2 (the paper) and K=3 (footnote 2)");
  ScoreConfig score = config.resolve_score();
  const bool skip = rows::hop2_zero_skip(config, score);
  return StepContext<Graph>{graph, config, std::move(score), mode, skip};
}

template <typename Graph>
SnapleResult run_snaple_impl(
    const Graph& graph, const SnapleConfig& config,
    const gas::Partitioning& partitioning,
    const gas::ClusterConfig& cluster, ThreadPool* pool,
    gas::ApplyMode mode, gas::ExecutionMode exec,
    std::shared_ptr<const gas::ShardTopology> topology) {
  const StepContext<Graph> ctx = make_context(graph, config, mode);
  SnapleEngine<Graph> engine(graph, partitioning, cluster,
                             &snaple_vertex_data_bytes, pool, exec,
                             std::move(topology));
  run_model_steps(engine, ctx);
  step_recommend(engine, ctx);

  SnapleResult result;
  result.predictions.resize(graph.num_vertices());
  result.scored.resize(graph.num_vertices());
  engine.visit_vertices([&](VertexId u, SnapleVertexData& du) {
    auto& scored = result.scored[u];
    scored.reserve(du.predicted.size());
    for (std::size_t i = 0; i < du.predicted.size(); ++i) {
      scored.emplace_back(du.predicted[i], du.prediction_scores[i]);
    }
    result.predictions[u] = std::move(du.predicted);
  });
  result.report = engine.report();
  return result;
}

}  // namespace

SnapleResult run_snaple(const CsrGraph& graph, const SnapleConfig& config,
                        const gas::Partitioning& partitioning,
                        const gas::ClusterConfig& cluster, ThreadPool* pool,
                        gas::ApplyMode mode, gas::ExecutionMode exec,
                        std::shared_ptr<const gas::ShardTopology> topology) {
  return run_snaple_impl(graph, config, partitioning, cluster, pool, mode,
                         exec, std::move(topology));
}

SnapleResult run_snaple(const CompressedCsrGraph& graph,
                        const SnapleConfig& config,
                        const gas::Partitioning& partitioning,
                        const gas::ClusterConfig& cluster, ThreadPool* pool,
                        gas::ApplyMode mode, gas::ExecutionMode exec,
                        std::shared_ptr<const gas::ShardTopology> topology) {
  return run_snaple_impl(graph, config, partitioning, cluster, pool, mode,
                         exec, std::move(topology));
}

SnapleFitData run_snaple_fit(
    const CsrGraph& graph, const SnapleConfig& config,
    const gas::Partitioning& partitioning,
    const gas::ClusterConfig& cluster, ThreadPool* pool,
    gas::ApplyMode mode, gas::ExecutionMode exec,
    std::shared_ptr<const gas::ShardTopology> topology) {
  const StepContext<CsrGraph> ctx = make_context(graph, config, mode);
  SnapleEngine<CsrGraph> engine(graph, partitioning, cluster,
                                &snaple_vertex_data_bytes, pool, exec,
                                std::move(topology));
  run_model_steps(engine, ctx);

  SnapleFitData out;
  out.vertex_data.resize(graph.num_vertices());
  engine.visit_vertices([&](VertexId u, SnapleVertexData& du) {
    out.vertex_data[u] = std::move(du);
  });
  out.report = engine.report();
  return out;
}

}  // namespace snaple
