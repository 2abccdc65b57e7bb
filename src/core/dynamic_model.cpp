#include "core/dynamic_model.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/row_recompute.hpp"
#include "util/thread_pool.hpp"

namespace snaple {

namespace {

std::shared_ptr<const CsrGraph> require_graph(
    std::shared_ptr<const CsrGraph> graph) {
  SNAPLE_CHECK_MSG(graph != nullptr,
                   "a live-row store needs the fit graph (a loaded model "
                   "carries none — refit, or keep the graph alongside "
                   "the model)");
  return graph;
}

std::shared_ptr<const PredictorModel> require_model(
    std::shared_ptr<const PredictorModel> model) {
  SNAPLE_CHECK_MSG(model != nullptr, "a live-row store needs a base model");
  return model;
}

/// The owned slice of a sorted stale set.
std::span<const VertexId> owned_part(const std::vector<VertexId>& sorted,
                                     const gas::VertexRange& range) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), range.begin);
  const auto hi = std::lower_bound(lo, sorted.end(), range.end);
  return {lo, hi};
}

}  // namespace

/// Per-update memo of on-the-fly recomputed NON-owned dependency rows.
/// Slabs are heap-held so spans into them stay valid while maps rehash.
struct DynamicModel::ApplyScratch {
  std::unordered_map<VertexId, std::unique_ptr<RowSlab>> gamma;
  std::unordered_map<VertexId, std::unique_ptr<RowSlab>> sims;
};

/// Current-row source for the hop2 recompute fold
/// (rows::fold_vertex_paths): sims(v) resolves the freshest view of any
/// vertex. hop2() is never read by the kHop2 fold (and must not be: a
/// non-owned hop2 row is not recomputable without the very fold this
/// source feeds).
struct DynamicModel::FoldSource {
  const DynamicModel* store;
  ApplyScratch* scratch;

  [[nodiscard]] std::span<const VertexId> gamma_hat(VertexId u) const {
    return store->current_gamma(u, *scratch);
  }
  [[nodiscard]] PredictorModel::SimsView sims(VertexId v) const {
    return store->current_sims(v, *scratch);
  }
  [[nodiscard]] PredictorModel::Hop2View hop2(VertexId) const {
    SNAPLE_CHECK_MSG(false,
                     "the hop2 recompute fold never reads hop2 rows");
    return {};
  }
  [[nodiscard]] const SnapleConfig& config() const {
    return store->config();
  }
};

DynamicModel::DynamicModel(std::shared_ptr<const PredictorModel> base,
                           std::shared_ptr<const CsrGraph> graph,
                           std::optional<std::uint64_t> partition_seed,
                           ThreadPool* pool)
    : DynamicModel(std::move(base), std::move(graph), std::nullopt,
                   partition_seed, pool) {}

DynamicModel::DynamicModel(std::shared_ptr<const PredictorModel> base,
                           std::shared_ptr<const CsrGraph> graph,
                           std::optional<gas::VertexRange> range,
                           std::optional<std::uint64_t> partition_seed,
                           ThreadPool* pool)
    : base_(require_model(std::move(base))),
      overlay_(require_graph(std::move(graph))),
      range_(range.value_or(gas::VertexRange{0, base_->num_vertices()})),
      partition_seed_(partition_seed.value_or(base_->config().seed)) {
  const VertexId n = base_->num_vertices();
  SNAPLE_CHECK_MSG(overlay_.num_vertices() == n,
                   "graph and model disagree on the vertex count — this "
                   "is not the graph the model was fit on");
  SNAPLE_CHECK_MSG(range_.begin <= range_.end && range_.end <= n,
                   "shard range outside the model");
  SNAPLE_CHECK_MSG(
      !(base_->config().policy == SelectionPolicy::kRandom &&
        base_->config().k_hops == 3),
      "incremental updates do not support the Γrnd policy with K=3: its "
      "hop2 selection shuffles candidates in accumulator-iteration "
      "order, which no out-of-band recompute can reproduce bit-exactly");

  score_ = base_->config().resolve_score();
  hop2_skip_zero_ = rows::hop2_zero_skip(base_->config(), score_);
  gamma_rows_ = RowTable(range_.size());
  sims_rows_ = RowTable(range_.size());
  if (base_->config().k_hops == 3) hop2_rows_ = RowTable(range_.size());
  row_version_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  if (range_.size() != n) {
    gamma_dirty_.assign(n, 0);
    sims_dirty_.assign(n, 0);
  }

  // Verify every owned base tag against the insertion-stable placement
  // rule and every retained neighbor against the graph (stores whose
  // ranges partition [0, n) jointly cover the whole model). Fits made
  // with kHash/kGreedy on >1 machine fail here by design: their tags key
  // on CSR edge positions, which an insert would shift, breaking the
  // refit-equivalence contract. Single-machine fits always pass.
  const std::uint32_t machines = base_->num_machines();
  ThreadPool& tp = pool != nullptr ? *pool : default_pool();
  const CsrGraph& g = overlay_.base();
  tp.parallel_for(range_.begin, range_.end, [&](std::size_t i, std::size_t) {
    const auto u = static_cast<VertexId>(i);
    const auto su = base_->sims(u);
    for (std::size_t j = 0; j < su.ids.size(); ++j) {
      SNAPLE_CHECK_MSG(g.has_edge(u, su.ids[j]),
                       "retained neighbor " + std::to_string(su.ids[j]) +
                           " of vertex " + std::to_string(u) +
                           " is not an edge of the graph — this is not "
                           "the graph the model was fit on");
      SNAPLE_CHECK_MSG(
          su.machines[j] == gas::edge_local_machine(u, su.ids[j], machines,
                                                    partition_seed_),
          "machine tag of edge (" + std::to_string(u) + ", " +
              std::to_string(su.ids[j]) +
              ") does not follow the insertion-stable placement — fit "
              "with gas::PartitionStrategy::kEdgeLocal (seed " +
              std::to_string(partition_seed_) +
              ") to serve incremental updates");
    }
  });
}

std::string DynamicModel::not_owned(const char* row, VertexId u) const {
  return std::string(row) + " row of vertex " + std::to_string(u) +
         " is not owned here (owned range [" + std::to_string(range_.begin) +
         ", " + std::to_string(range_.end) + "))";
}

// ---------------------------------------------------------------------
// Writer path.
// ---------------------------------------------------------------------

DynamicModel::UpdateStats DynamicModel::add_edge(VertexId u, VertexId v) {
  const Edge e{u, v};
  return add_edges({&e, 1});
}

DynamicModel::UpdateStats DynamicModel::add_edges(
    std::span<const Edge> batch) {
  // All-or-nothing: the whole batch is validated before the first
  // overlay mutation, so a throw leaves the model untouched.
  rows::validate_insert_batch(overlay_, batch);
  if (batch.empty()) return {};
  for (const Edge& e : batch) overlay_.insert(e.src, e.dst);
  return republish_stale(batch);
}

DynamicModel::UpdateStats DynamicModel::remove_edge(VertexId u,
                                                    VertexId v) {
  const Edge e{u, v};
  return remove_edges({&e, 1});
}

DynamicModel::UpdateStats DynamicModel::remove_edges(
    std::span<const Edge> batch) {
  rows::validate_remove_batch(overlay_, batch);
  if (batch.empty()) return {};
  for (const Edge& e : batch) overlay_.remove(e.src, e.dst);
  return republish_stale(batch);
}

DynamicModel::UpdateStats DynamicModel::republish_stale(
    std::span<const Edge> batch) {
  // Stale-row sets against the post-batch live graph (row_recompute.hpp
  // derives them, and proves the same sets cover removals): Γ̂ stales
  // only at the sources; sims at the sources and their
  // in-neighborhoods; hop2 one in-hop further.
  const rows::StaleSets stale = rows::compute_stale_sets(
      overlay_, batch, base_->config().k_hops == 3);

  // Dirty flags first: the recomputes below must see every non-owned
  // dependency of THIS batch as stale (cumulative — a non-owned row is
  // never republished here, so once stale it stays recomputed).
  if (!gamma_dirty_.empty()) {
    for (const VertexId u : stale.gamma) gamma_dirty_[u] = 1;
    for (const VertexId x : stale.sims) sims_dirty_[x] = 1;
  }

  // Recompute the owned stale rows in dependency order — each phase
  // reads rows the previous phase already published (same thread,
  // plain program order; readers see each row flip atomically).
  const auto gamma = owned_part(stale.gamma, range_);
  const auto sims = owned_part(stale.sims, range_);
  const auto hop2 = owned_part(stale.hop2, range_);
  ApplyScratch scratch;
  for (const VertexId u : gamma) {
    auto slab = std::make_unique<RowSlab>();
    slab->ids = rows::recompute_gamma_row(base_->config(), overlay_, u);
    publish(gamma_rows_, u, std::move(slab));
  }
  for (const VertexId x : sims) {
    publish(sims_rows_, x,
            rows::recompute_sims_row(
                base_->config(), score_, overlay_, base_->num_machines(),
                partition_seed_, x,
                [&](VertexId w) { return current_gamma(w, scratch); }));
  }
  if (!hop2.empty()) {
    const FoldSource source{this, &scratch};
    rows::PathFoldMap& fold = rows::thread_fold_map();
    for (const VertexId x : hop2) {
      publish(hop2_rows_, x,
              rows::recompute_hop2_row(source, score_, hop2_skip_zero_, x,
                                       fold));
    }
  }

  // Version bumps AFTER the publishes (release ordering: a reader that
  // observes a bumped version also observes the republished rows — the
  // invariant a peer fetch's snapshot retry and the cache keys rest on).
  // Bumps cover every stale vertex, owned or not.
  for (const auto* set : {&stale.gamma, &stale.sims, &stale.hop2}) {
    for (const VertexId u : *set) {
      row_version_[u].fetch_add(1, std::memory_order_release);
    }
  }
  version_.fetch_add(batch.size(), std::memory_order_release);
  return UpdateStats{batch.size(), gamma.size(), sims.size(), hop2.size()};
}

std::span<const VertexId> DynamicModel::current_gamma(
    VertexId v, ApplyScratch& scratch) const {
  if (owns(v)) return gamma_hat(v);
  if (!gamma_dirty_[v]) return base_->gamma_hat(v);
  auto it = scratch.gamma.find(v);
  if (it == scratch.gamma.end()) {
    auto slab = std::make_unique<RowSlab>();
    slab->ids = rows::recompute_gamma_row(base_->config(), overlay_, v);
    it = scratch.gamma.emplace(v, std::move(slab)).first;
  }
  return it->second->ids;
}

PredictorModel::SimsView DynamicModel::current_sims(
    VertexId v, ApplyScratch& scratch) const {
  if (owns(v)) return sims(v);
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

void DynamicModel::publish(RowTable& table, VertexId u,
                           std::unique_ptr<RowSlab> slab) {
  const RowSlab* p = slab.get();
  slabs_.push_back(std::move(slab));  // retired slabs stay owned forever
  table[u - range_.begin].store(p, std::memory_order_release);
}

// ---------------------------------------------------------------------
// Snapshot + accounting.
// ---------------------------------------------------------------------

PredictorModel DynamicModel::freeze() const {
  const VertexId n = num_vertices();
  const bool three_hop = base_->config().k_hops == 3;
  PredictorModel m;
  m.config_ = base_->config();
  m.num_machines_ = base_->num_machines();
  m.num_vertices_ = n;

  m.gamma_offsets_.reserve(static_cast<std::size_t>(n) + 1);
  m.sims_offsets_.reserve(static_cast<std::size_t>(n) + 1);
  if (three_hop) m.hop2_offsets_.reserve(static_cast<std::size_t>(n) + 1);
  for (VertexId u = 0; u < n; ++u) {
    m.gamma_offsets_.push_back(m.gamma_ids_.size());
    const auto g = gamma_hat(u);
    m.gamma_ids_.insert(m.gamma_ids_.end(), g.begin(), g.end());

    m.sims_offsets_.push_back(m.sims_ids_.size());
    const auto s = sims(u);
    m.sims_ids_.insert(m.sims_ids_.end(), s.ids.begin(), s.ids.end());
    m.sims_scores_.insert(m.sims_scores_.end(), s.scores.begin(),
                          s.scores.end());
    m.sims_machines_.insert(m.sims_machines_.end(), s.machines.begin(),
                            s.machines.end());
    if (three_hop) {
      m.hop2_offsets_.push_back(m.hop2_ids_.size());
      const auto h = hop2(u);
      m.hop2_ids_.insert(m.hop2_ids_.end(), h.ids.begin(), h.ids.end());
      m.hop2_scores_.insert(m.hop2_scores_.end(), h.scores.begin(),
                            h.scores.end());
    }
  }
  m.gamma_offsets_.push_back(m.gamma_ids_.size());
  m.sims_offsets_.push_back(m.sims_ids_.size());
  if (three_hop) m.hop2_offsets_.push_back(m.hop2_ids_.size());
  return m;
}

std::size_t DynamicModel::overlay_bytes() const noexcept {
  std::size_t bytes =
      overlay_.memory_bytes() +
      slabs_.capacity() * sizeof(std::unique_ptr<const RowSlab>);
  for (const auto& s : slabs_) bytes += s->memory_bytes();
  return bytes;
}

}  // namespace snaple
