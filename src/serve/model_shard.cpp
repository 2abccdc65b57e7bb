#include "serve/model_shard.hpp"

#include <algorithm>
#include <string>

#include "core/query_engine.hpp"
#include "core/snaple_rows.hpp"
#include "util/check.hpp"

namespace snaple::serve {

namespace {

/// Index of v in the id-sorted table, or npos.
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

std::size_t sorted_find(const std::vector<VertexId>& ids, VertexId v) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), v);
  if (it == ids.end() || *it != v) return kNpos;
  return static_cast<std::size_t>(it - ids.begin());
}

/// Model-row source over a shard plus an optional row overlay — the
/// `Model` interface rows::fold_vertex_paths templates over. Resolution
/// order: owned slice, replica table, overlay (cached or fetched rows);
/// a row resident nowhere is a routing bug and throws (never misscores).
struct ShardRowSource {
  const ModelShard* shard;
  const RowOverlay* overlay;

  [[nodiscard]] std::span<const VertexId> gamma_hat(VertexId u) const {
    return shard->gamma_hat(u);
  }

  [[nodiscard]] PredictorModel::SimsView sims(VertexId v) const {
    if (shard->has_row(v)) return shard->sims(v);
    const HotRow& row = overlay_row(v);
    return {{row.sims_ids.data(), row.sims_ids.size()},
            {row.sims_scores.data(), row.sims_scores.size()},
            {}};
  }

  [[nodiscard]] PredictorModel::Hop2View hop2(VertexId v) const {
    if (shard->has_row(v)) return shard->hop2(v);
    const HotRow& row = overlay_row(v);
    return {{row.hop2_ids.data(), row.hop2_ids.size()},
            {row.hop2_scores.data(), row.hop2_scores.size()}};
  }

  [[nodiscard]] const SnapleConfig& config() const {
    return shard->config();
  }

 private:
  [[nodiscard]] const HotRow& overlay_row(VertexId v) const {
    const std::size_t i =
        overlay != nullptr ? sorted_find(overlay->ids, v) : kNpos;
    SNAPLE_CHECK_MSG(i != kNpos,
                     "row for vertex " + std::to_string(v) +
                         " is not resident on this shard and was not "
                         "cached or fetched — route a fetch first");
    return *overlay->rows[i];
  }
};

}  // namespace

ModelShard ModelShard::build(const PredictorModel& model,
                             gas::VertexRange range, bool colocate) {
  SNAPLE_CHECK_MSG(range.end <= model.num_vertices() &&
                       range.begin <= range.end,
                   "shard range outside the model");
  ModelShard shard;
  shard.range_ = range;
  shard.config_ = model.config();
  shard.num_vertices_ = model.num_vertices();
  shard.score_ = model.config().resolve_score();
  shard.rows_ = model.slice_rows(range.begin, range.end);

  if (colocate) {
    // Every out-of-range retained neighbor of an owned vertex, once.
    std::vector<VertexId>& ids = shard.replica_ids_;
    for (VertexId u = range.begin; u < range.end; ++u) {
      for (const VertexId v : model.sims(u).ids) {
        if (!range.contains(v)) ids.push_back(v);
      }
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

    shard.replica_sims_offsets_.reserve(ids.size() + 1);
    shard.replica_sims_offsets_.push_back(0);
    shard.replica_hop2_offsets_.reserve(ids.size() + 1);
    shard.replica_hop2_offsets_.push_back(0);
    for (const VertexId v : ids) {
      const auto sv = model.sims(v);
      shard.replica_sims_ids_.insert(shard.replica_sims_ids_.end(),
                                     sv.ids.begin(), sv.ids.end());
      shard.replica_sims_scores_.insert(shard.replica_sims_scores_.end(),
                                        sv.scores.begin(), sv.scores.end());
      shard.replica_sims_offsets_.push_back(shard.replica_sims_ids_.size());
      const auto hv = model.hop2(v);
      shard.replica_hop2_ids_.insert(shard.replica_hop2_ids_.end(),
                                     hv.ids.begin(), hv.ids.end());
      shard.replica_hop2_scores_.insert(shard.replica_hop2_scores_.end(),
                                        hv.scores.begin(), hv.scores.end());
      shard.replica_hop2_offsets_.push_back(shard.replica_hop2_ids_.size());
    }
  } else {
    shard.replica_sims_offsets_.push_back(0);
    shard.replica_hop2_offsets_.push_back(0);
  }
  return shard;
}

bool ModelShard::has_row(VertexId v) const noexcept {
  return owns(v) || sorted_find(replica_ids_, v) != kNpos;
}

std::span<const VertexId> ModelShard::gamma_hat(VertexId u) const {
  SNAPLE_CHECK_MSG(owns(u), "gamma row of vertex " + std::to_string(u) +
                                " is not owned by this shard");
  const std::size_t i = u - range_.begin;
  return {rows_.gamma_ids.data() + rows_.gamma_offsets[i],
          rows_.gamma_ids.data() + rows_.gamma_offsets[i + 1]};
}

PredictorModel::SimsView ModelShard::sims(VertexId v) const {
  if (owns(v)) {
    const std::size_t i = v - range_.begin;
    const std::size_t b = rows_.sims_offsets[i];
    const std::size_t e = rows_.sims_offsets[i + 1];
    return {{rows_.sims_ids.data() + b, rows_.sims_ids.data() + e},
            {rows_.sims_scores.data() + b, rows_.sims_scores.data() + e},
            {rows_.sims_machines.data() + b,
             rows_.sims_machines.data() + e}};
  }
  const std::size_t i = sorted_find(replica_ids_, v);
  SNAPLE_CHECK_MSG(i != kNpos, "sims row of vertex " + std::to_string(v) +
                                   " is not resident on this shard");
  const std::size_t b = replica_sims_offsets_[i];
  const std::size_t e = replica_sims_offsets_[i + 1];
  return {{replica_sims_ids_.data() + b, replica_sims_ids_.data() + e},
          {replica_sims_scores_.data() + b,
           replica_sims_scores_.data() + e},
          {}};
}

PredictorModel::Hop2View ModelShard::hop2(VertexId v) const {
  if (owns(v)) {
    if (rows_.hop2_offsets.empty()) return {};
    const std::size_t i = v - range_.begin;
    const std::size_t b = rows_.hop2_offsets[i];
    const std::size_t e = rows_.hop2_offsets[i + 1];
    return {{rows_.hop2_ids.data() + b, rows_.hop2_ids.data() + e},
            {rows_.hop2_scores.data() + b, rows_.hop2_scores.data() + e}};
  }
  const std::size_t i = sorted_find(replica_ids_, v);
  SNAPLE_CHECK_MSG(i != kNpos, "hop2 row of vertex " + std::to_string(v) +
                                   " is not resident on this shard");
  const std::size_t b = replica_hop2_offsets_[i];
  const std::size_t e = replica_hop2_offsets_[i + 1];
  return {{replica_hop2_ids_.data() + b, replica_hop2_ids_.data() + e},
          {replica_hop2_scores_.data() + b,
           replica_hop2_scores_.data() + e}};
}

std::vector<VertexId> ModelShard::missing_rows(VertexId u) const {
  std::vector<VertexId> missing;
  for (const VertexId v : sims(u).ids) {
    if (!has_row(v)) missing.push_back(v);
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()),
                missing.end());
  return missing;
}

std::vector<std::pair<VertexId, float>> ModelShard::topk(
    VertexId u, std::size_t k, const RowOverlay* overlay) const {
  SNAPLE_CHECK_MSG(owns(u), "query vertex " + std::to_string(u) +
                                " routed to the wrong shard");
  const ShardRowSource source{this, overlay};
  rows::PathFoldMap& fold = rows::thread_fold_map();
  rows::fold_vertex_paths(source, score_, u, rows::PathFold::kRecommend,
                          /*zero_skip=*/false, fold);
  return rank_candidates(fold, score_.aggregator,
                         k == 0 ? config_.k : k);
}

std::size_t ModelShard::replica_bytes() const noexcept {
  return replica_ids_.size() * sizeof(VertexId) +
         replica_sims_ids_.size() *
             (sizeof(VertexId) + sizeof(float)) +
         replica_hop2_ids_.size() *
             (sizeof(VertexId) + sizeof(float)) +
         (replica_sims_offsets_.size() + replica_hop2_offsets_.size()) *
             sizeof(EdgeIndex);
}

std::vector<gas::VertexRange> plan_shard_ranges(const PredictorModel& model,
                                                std::size_t parts) {
  const VertexId n = model.num_vertices();
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    prefix[u + 1] = prefix[u] + model.row_bytes(u);
  }
  return gas::split_weighted_ranges(prefix, parts);
}

}  // namespace snaple::serve
