#include "serve/live_shard.hpp"

#include <string>
#include <unordered_map>

#include "core/query_engine.hpp"
#include "util/thread_pool.hpp"

namespace snaple::serve {

namespace {

std::shared_ptr<const CsrGraph> require_graph(
    std::shared_ptr<const CsrGraph> graph) {
  SNAPLE_CHECK_MSG(graph != nullptr,
                   "LiveShard needs the fit graph (a loaded model "
                   "carries none — refit, or keep the graph alongside "
                   "the model)");
  return graph;
}

std::shared_ptr<const PredictorModel> require_model(
    std::shared_ptr<const PredictorModel> model) {
  SNAPLE_CHECK_MSG(model != nullptr, "LiveShard needs a base model");
  return model;
}

}  // namespace

/// Per-apply memo of on-the-fly recomputed NON-owned dependency rows.
/// Slabs are heap-held so spans into them stay valid while maps rehash.
struct LiveShard::ApplyScratch {
  std::unordered_map<VertexId, std::unique_ptr<RowSlab>> gamma;
  std::unordered_map<VertexId, std::unique_ptr<RowSlab>> sims;
};

/// Current-row source for the hop2 recompute fold
/// (rows::fold_vertex_paths). sims(v) resolves to the freshest view of
/// any vertex — owned table, per-apply memo, or base; hop2() is never
/// read by the kHop2 fold (and must not be: a non-owned hop2 row is not
/// recomputable without the same fold this source is feeding).
struct LiveShard::FoldSource {
  const LiveShard* shard;
  ApplyScratch* scratch;

  [[nodiscard]] std::span<const VertexId> gamma_hat(VertexId u) const {
    return shard->current_gamma(u, *scratch);
  }
  [[nodiscard]] PredictorModel::SimsView sims(VertexId v) const {
    return shard->current_sims(v, *scratch);
  }
  [[nodiscard]] PredictorModel::Hop2View hop2(VertexId) const {
    SNAPLE_CHECK_MSG(false,
                     "the hop2 recompute fold never reads hop2 rows");
    return {};
  }
  [[nodiscard]] const SnapleConfig& config() const {
    return shard->config();
  }
};

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

LiveShard::LiveShard(std::shared_ptr<const PredictorModel> base,
                     std::shared_ptr<const CsrGraph> graph,
                     gas::VertexRange range,
                     std::optional<std::uint64_t> partition_seed)
    : base_(require_model(std::move(base))),
      overlay_(require_graph(std::move(graph))),
      range_(range),
      partition_seed_(partition_seed.value_or(base_->config().seed)) {
  SNAPLE_CHECK_MSG(overlay_.num_vertices() == base_->num_vertices(),
                   "graph and model disagree on the vertex count — this "
                   "is not the graph the model was fit on");
  SNAPLE_CHECK_MSG(range_.end <= base_->num_vertices() &&
                       range_.begin <= range_.end,
                   "shard range outside the model");
  SNAPLE_CHECK_MSG(
      !(base_->config().policy == SelectionPolicy::kRandom &&
        base_->config().k_hops == 3),
      "incremental updates do not support the Γrnd policy with K=3: its "
      "hop2 selection shuffles candidates in accumulator-iteration "
      "order, which no out-of-band recompute can reproduce bit-exactly");

  const VertexId n = base_->num_vertices();
  score_ = base_->config().resolve_score();
  hop2_skip_zero_ = rows::hop2_zero_skip(base_->config(), score_);
  gamma_rows_ = RowTable(range_.size());
  sims_rows_ = RowTable(range_.size());
  if (base_->config().k_hops == 3) hop2_rows_ = RowTable(range_.size());
  row_version_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  gamma_dirty_.assign(n, 0);
  sims_dirty_.assign(n, 0);

  // Verify the OWNED rows' tags against the insertion-stable placement
  // (the union of every shard's check covers the whole model — same
  // guarantee as DynamicModel's full-table check, split 1/S per shard).
  const std::uint32_t machines = base_->num_machines();
  const CsrGraph& g = overlay_.base();
  default_pool().parallel_for(
      range_.begin, range_.end, [&](std::size_t i, std::size_t) {
        const auto u = static_cast<VertexId>(i);
        const auto su = base_->sims(u);
        for (std::size_t j = 0; j < su.ids.size(); ++j) {
          SNAPLE_CHECK_MSG(
              g.has_edge(u, su.ids[j]),
              "retained neighbor " + std::to_string(su.ids[j]) +
                  " of vertex " + std::to_string(u) +
                  " is not an edge of the graph — this is not the graph "
                  "the model was fit on");
          SNAPLE_CHECK_MSG(
              su.machines[j] == gas::edge_local_machine(
                                    u, su.ids[j], machines,
                                    partition_seed_),
              "machine tag of edge (" + std::to_string(u) + ", " +
                  std::to_string(su.ids[j]) +
                  ") does not follow the insertion-stable placement — "
                  "fit with gas::PartitionStrategy::kEdgeLocal (seed " +
                  std::to_string(partition_seed_) +
                  ") to serve live updates");
        }
      });
}

// ---------------------------------------------------------------------
// Writer path.
// ---------------------------------------------------------------------

std::span<const VertexId> LiveShard::current_gamma(
    VertexId v, ApplyScratch& scratch) const {
  if (owns(v)) {
    if (const RowSlab* s = gamma_rows_[v - range_.begin].load(
            std::memory_order_relaxed)) {
      return s->ids;
    }
    return base_->gamma_hat(v);
  }
  if (!gamma_dirty_[v]) return base_->gamma_hat(v);
  auto it = scratch.gamma.find(v);
  if (it == scratch.gamma.end()) {
    auto slab = std::make_unique<RowSlab>();
    slab->ids = rows::recompute_gamma_row(base_->config(), overlay_, v);
    it = scratch.gamma.emplace(v, std::move(slab)).first;
  }
  return it->second->ids;
}

PredictorModel::SimsView LiveShard::current_sims(
    VertexId v, ApplyScratch& scratch) const {
  if (owns(v)) {
    if (const RowSlab* s = sims_rows_[v - range_.begin].load(
            std::memory_order_relaxed)) {
      return {s->ids, s->scores, s->machines};
    }
    return base_->sims(v);
  }
  if (!sims_dirty_[v]) return base_->sims(v);
  auto it = scratch.sims.find(v);
  if (it == scratch.sims.end()) {
    auto slab = rows::recompute_sims_row(
        base_->config(), score_, overlay_, base_->num_machines(),
        partition_seed_, v,
        [&](VertexId w) { return current_gamma(w, scratch); });
    it = scratch.sims.emplace(v, std::move(slab)).first;
  }
  const RowSlab& s = *it->second;
  return {s.ids, s.scores, s.machines};
}

LiveShard::ApplyStats LiveShard::apply(std::span<const Edge> batch) {
  // All-or-nothing, and deterministic across shards: every shard holds
  // the same live graph, so this throw happens everywhere or nowhere.
  rows::validate_insert_batch(overlay_, batch);
  if (batch.empty()) {
    return ApplyStats{0, 0, 0, 0,
                      version_.load(std::memory_order_relaxed)};
  }
  for (const Edge& e : batch) overlay_.insert(e.src, e.dst);
  return republish_stale(batch);
}

LiveShard::ApplyStats LiveShard::apply_removes(
    std::span<const Edge> batch) {
  rows::validate_remove_batch(overlay_, batch);
  if (batch.empty()) {
    return ApplyStats{0, 0, 0, 0,
                      version_.load(std::memory_order_relaxed)};
  }
  for (const Edge& e : batch) overlay_.remove(e.src, e.dst);
  return republish_stale(batch);
}

LiveShard::ApplyStats LiveShard::republish_stale(
    std::span<const Edge> batch) {
  const rows::StaleSets stale =
      rows::compute_stale_sets(overlay_, batch, !hop2_rows_.empty());

  // Dirty flags first: the recomputes below must see every non-owned
  // dependency of THIS batch as stale (cumulative across applies — a
  // non-owned row is never republished here, so once stale it is
  // recomputed on the fly forever after).
  for (const VertexId u : stale.gamma) gamma_dirty_[u] = 1;
  for (const VertexId x : stale.sims) sims_dirty_[x] = 1;

  // Recompute the OWNED stale rows in dependency order — each phase
  // reads rows the previous phase already published (program order;
  // readers see each row flip atomically).
  ApplyStats out;
  out.edges = batch.size();
  ApplyScratch scratch;
  for (const VertexId u : stale.gamma) {
    if (!owns(u)) continue;
    auto slab = std::make_unique<RowSlab>();
    slab->ids = rows::recompute_gamma_row(base_->config(), overlay_, u);
    publish(gamma_rows_, u, std::move(slab));
    ++out.gamma_rows;
  }
  for (const VertexId x : stale.sims) {
    if (!owns(x)) continue;
    publish(sims_rows_, x,
            rows::recompute_sims_row(
                base_->config(), score_, overlay_, base_->num_machines(),
                partition_seed_, x,
                [&](VertexId w) { return current_gamma(w, scratch); }));
    ++out.sims_rows;
  }
  if (!hop2_rows_.empty()) {
    const FoldSource source{this, &scratch};
    rows::PathFoldMap& fold = rows::thread_fold_map();
    for (const VertexId x : stale.hop2) {
      if (!owns(x)) continue;
      publish(hop2_rows_, x,
              rows::recompute_hop2_row(source, score_, hop2_skip_zero_, x,
                                       fold));
      ++out.hop2_rows;
    }
  }

  // Version bumps AFTER the publishes (release ordering: a reader that
  // observes a bumped version also observes the republished rows — the
  // invariant the fetch path's snapshot retry and the cache keys rest
  // on). Bumps cover every stale vertex, owned or not, so all shards
  // agree on every version.
  for (const VertexId u : stale.gamma) {
    row_version_[u].fetch_add(1, std::memory_order_release);
  }
  for (const VertexId x : stale.sims) {
    row_version_[x].fetch_add(1, std::memory_order_release);
  }
  for (const VertexId x : stale.hop2) {
    row_version_[x].fetch_add(1, std::memory_order_release);
  }
  out.version = version_.fetch_add(batch.size(),
                                   std::memory_order_release) +
                batch.size();
  return out;
}

void LiveShard::publish(RowTable& table, VertexId u,
                        std::unique_ptr<RowSlab> slab) {
  const RowSlab* p = slab.get();
  slabs_.push_back(std::move(slab));  // retired slabs stay owned forever
  table[u - range_.begin].store(p, std::memory_order_release);
}

// ---------------------------------------------------------------------
// Reader path.
// ---------------------------------------------------------------------

std::span<const VertexId> LiveShard::gamma_hat(VertexId u) const {
  SNAPLE_CHECK_MSG(owns(u), "gamma row of vertex " + std::to_string(u) +
                                " is not owned by this live shard");
  if (const RowSlab* s =
          gamma_rows_[u - range_.begin].load(std::memory_order_acquire)) {
    return s->ids;
  }
  return base_->gamma_hat(u);
}

PredictorModel::SimsView LiveShard::sims(VertexId v) const {
  SNAPLE_CHECK_MSG(owns(v), "sims row of vertex " + std::to_string(v) +
                                " is not owned by this live shard");
  if (const RowSlab* s =
          sims_rows_[v - range_.begin].load(std::memory_order_acquire)) {
    return {s->ids, s->scores, s->machines};
  }
  return base_->sims(v);
}

PredictorModel::Hop2View LiveShard::hop2(VertexId v) const {
  SNAPLE_CHECK_MSG(owns(v), "hop2 row of vertex " + std::to_string(v) +
                                " is not owned by this live shard");
  if (hop2_rows_.empty()) return {};  // K=2: no hop2 table at all
  if (const RowSlab* s =
          hop2_rows_[v - range_.begin].load(std::memory_order_acquire)) {
    return {s->ids, s->scores};
  }
  return base_->hop2(v);
}

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
  rows::fold_vertex_paths(source, score_, u, rows::PathFold::kRecommend,
                          /*zero_skip=*/false, fold);
  return rank_candidates(fold, score_.aggregator,
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

std::size_t LiveShard::overlay_bytes() const noexcept {
  std::size_t bytes =
      overlay_.memory_bytes() +
      slabs_.capacity() * sizeof(std::unique_ptr<const RowSlab>) +
      static_cast<std::size_t>(num_vertices()) *
          (sizeof(std::atomic<std::uint64_t>) + 2) +
      (gamma_rows_.size() + sims_rows_.size() + hop2_rows_.size()) *
          sizeof(std::atomic<const RowSlab*>);
  for (const auto& s : slabs_) bytes += s->memory_bytes();
  return bytes;
}

}  // namespace snaple::serve
