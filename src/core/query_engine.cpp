#include "core/query_engine.hpp"

#include <algorithm>

#include "core/dynamic_model.hpp"
#include "core/snaple_rows.hpp"
#include "util/thread_pool.hpp"
#include "util/top_k.hpp"

namespace snaple {

std::vector<std::pair<VertexId, float>> rank_candidates(
    const rows::PathFoldMap& candidates, const Aggregator& agg,
    std::size_t k) {
  TopK<VertexId, double> top(k);
  candidates.for_each_candidate(
      agg, [&](VertexId z, float sigma, std::uint32_t n) {
        top.offer(z, agg.post(sigma, n));
      });
  std::vector<std::pair<VertexId, float>> out;
  const auto entries = top.take_sorted();
  out.reserve(entries.size());
  for (const auto& entry : entries) {
    out.emplace_back(entry.item, static_cast<float>(entry.score));
  }
  return out;
}

QueryEngine::QueryEngine(std::shared_ptr<const PredictorModel> model)
    : model_(std::move(model)) {
  SNAPLE_CHECK_MSG(model_ != nullptr, "QueryEngine needs a model");
  score_ = model_->config().resolve_score();
}

QueryEngine::QueryEngine(std::shared_ptr<const DynamicModel> model)
    : dynamic_(std::move(model)) {
  SNAPLE_CHECK_MSG(dynamic_ != nullptr, "QueryEngine needs a model");
  score_ = dynamic_->config().resolve_score();
}

const PredictorModel& QueryEngine::model() const {
  SNAPLE_CHECK_MSG(model_ != nullptr,
                   "this engine serves a DynamicModel — use "
                   "dynamic_model() (or freeze() it for an artifact)");
  return *model_;
}

VertexId QueryEngine::num_vertices() const noexcept {
  return model_ != nullptr ? model_->num_vertices()
                           : dynamic_->num_vertices();
}

const SnapleConfig& QueryEngine::config() const noexcept {
  return model_ != nullptr ? model_->config() : dynamic_->config();
}

std::vector<std::pair<VertexId, float>> QueryEngine::topk(
    VertexId u, std::size_t k) const {
  SNAPLE_CHECK_MSG(u < num_vertices(), "query vertex out of model range");
  // The fold — the machine-grouped bit-exact replay of step 3 — lives in
  // core/snaple_rows.hpp, shared with the sharded tier and the
  // incremental-update recompute path.
  rows::PathFoldMap& fold = rows::thread_fold_map();
  if (model_ != nullptr) {
    rows::fold_vertex_paths(*model_, score_, u, rows::PathFold::kRecommend,
                            /*zero_skip=*/false, fold);
  } else {
    rows::fold_vertex_paths(*dynamic_, score_, u,
                            rows::PathFold::kRecommend,
                            /*zero_skip=*/false, fold);
  }
  return rank_candidates(fold, score_.aggregator,
                         k == 0 ? config().k : k);
}

std::vector<std::vector<std::pair<VertexId, float>>> QueryEngine::topk_batch(
    std::span<const VertexId> users, std::size_t k, ThreadPool* pool) const {
  ThreadPool& tp = pool != nullptr ? *pool : default_pool();
  std::vector<std::vector<std::pair<VertexId, float>>> out(users.size());
  tp.parallel_for(0, users.size(), [&](std::size_t i, std::size_t) {
    out[i] = topk(users[i], k);
  });
  return out;
}

std::vector<std::vector<std::pair<VertexId, float>>> QueryEngine::topk_all(
    std::size_t k, ThreadPool* pool) const {
  ThreadPool& tp = pool != nullptr ? *pool : default_pool();
  std::vector<std::vector<std::pair<VertexId, float>>> out(num_vertices());
  tp.parallel_for(0, num_vertices(), [&](std::size_t i, std::size_t) {
    out[i] = topk(static_cast<VertexId>(i), k);
  });
  return out;
}

std::vector<std::vector<VertexId>> prediction_lists(
    const std::vector<std::vector<std::pair<VertexId, float>>>& scored) {
  std::vector<std::vector<VertexId>> out(scored.size());
  for (std::size_t u = 0; u < scored.size(); ++u) {
    out[u].reserve(scored[u].size());
    for (const auto& zs : scored[u]) out[u].push_back(zs.first);
  }
  return out;
}

}  // namespace snaple
