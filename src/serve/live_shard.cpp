#include "serve/live_shard.hpp"

#include <algorithm>
#include <string>

#include "core/query_engine.hpp"

namespace snaple::serve {

/// Row source for serving topk over live rows: owned vertices read the
/// published tables, everything else comes from the resolved overlay
/// (cached or peer-fetched rows) — the live twin of model_shard.cpp's
/// ShardRowSource.
struct LiveShard::ServeSource {
  const LiveShard* shard;
  const RowOverlay* overlay;
  VertexId root_id = 0;
  /// The query vertex's sims row as read by missing_rows — the fold
  /// must iterate the SAME neighbor set the overlay was resolved for,
  /// even if a writer republished the root row in between.
  const PredictorModel::SimsView* root = nullptr;

  [[nodiscard]] std::span<const VertexId> gamma_hat(VertexId u) const {
    return shard->gamma_hat(u);
  }
  [[nodiscard]] PredictorModel::SimsView sims(VertexId v) const {
    if (root != nullptr && v == root_id) return *root;
    if (shard->owns(v)) return shard->sims(v);
    const HotRow& row = overlay_row(v);
    return {{row.sims_ids.data(), row.sims_ids.size()},
            {row.sims_scores.data(), row.sims_scores.size()},
            {}};
  }
  [[nodiscard]] PredictorModel::Hop2View hop2(VertexId v) const {
    if (shard->owns(v)) return shard->hop2(v);
    const HotRow& row = overlay_row(v);
    return {{row.hop2_ids.data(), row.hop2_ids.size()},
            {row.hop2_scores.data(), row.hop2_scores.size()}};
  }
  [[nodiscard]] const SnapleConfig& config() const {
    return shard->config();
  }

 private:
  [[nodiscard]] const HotRow& overlay_row(VertexId v) const {
    std::size_t i = static_cast<std::size_t>(-1);
    if (overlay != nullptr) {
      const auto it = std::lower_bound(overlay->ids.begin(),
                                       overlay->ids.end(), v);
      if (it != overlay->ids.end() && *it == v) {
        i = static_cast<std::size_t>(it - overlay->ids.begin());
      }
    }
    SNAPLE_CHECK_MSG(i != static_cast<std::size_t>(-1),
                     "row for vertex " + std::to_string(v) +
                         " is not owned by this shard and was not "
                         "cached or fetched — route a fetch first");
    return *overlay->rows[i];
  }
};

std::vector<VertexId> LiveShard::missing_rows(
    VertexId u, PredictorModel::SimsView* root) const {
  const PredictorModel::SimsView su = sims(u);
  if (root != nullptr) *root = su;
  std::vector<VertexId> missing;
  for (const VertexId v : su.ids) {
    if (!owns(v)) missing.push_back(v);
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()),
                missing.end());
  return missing;
}

std::vector<std::pair<VertexId, float>> LiveShard::topk(
    VertexId u, std::size_t k, const RowOverlay* overlay,
    const PredictorModel::SimsView* root) const {
  SNAPLE_CHECK_MSG(owns(u), "query vertex " + std::to_string(u) +
                                " routed to the wrong shard");
  const ServeSource source{this, overlay, u, root};
  rows::PathFoldMap& fold = rows::thread_fold_map();
  rows::fold_vertex_paths(source, score(), u, rows::PathFold::kRecommend,
                          /*zero_skip=*/false, fold);
  return rank_candidates(fold, score().aggregator,
                         k == 0 ? config().k : k);
}

LiveShard::VersionedRow LiveShard::snapshot_row(VertexId v) const {
  SNAPLE_CHECK_MSG(owns(v), "fetch for vertex " + std::to_string(v) +
                                " sent to a non-owning shard");
  // Version-validated read: re-read the version after copying the row
  // content. An unchanged version proves the content is not OLDER than
  // the version (publishes precede bumps), so a cached copy under this
  // key can never serve stale bytes. The benign race — fresh content
  // under a not-yet-bumped version — self-heals on the next lookup
  // (version mismatch = miss and drop).
  for (;;) {
    const std::uint64_t before = row_version(v);
    auto row = std::make_shared<HotRow>();
    const auto sv = sims(v);
    row->sims_ids.assign(sv.ids.begin(), sv.ids.end());
    row->sims_scores.assign(sv.scores.begin(), sv.scores.end());
    const auto hv = hop2(v);
    row->hop2_ids.assign(hv.ids.begin(), hv.ids.end());
    row->hop2_scores.assign(hv.scores.begin(), hv.scores.end());
    if (row_version(v) == before) {
      return {before, std::move(row)};
    }
  }
}

}  // namespace snaple::serve
