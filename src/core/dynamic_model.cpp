#include "core/dynamic_model.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/row_recompute.hpp"
#include "util/thread_pool.hpp"

namespace snaple {

namespace {

std::shared_ptr<const CsrGraph> require_graph(
    std::shared_ptr<const CsrGraph> graph) {
  SNAPLE_CHECK_MSG(graph != nullptr,
                   "DynamicModel needs the fit graph (a loaded model "
                   "carries none — refit, or keep the graph alongside "
                   "the model)");
  return graph;
}

std::shared_ptr<const PredictorModel> require_model(
    std::shared_ptr<const PredictorModel> model) {
  SNAPLE_CHECK_MSG(model != nullptr, "DynamicModel needs a base model");
  return model;
}

}  // namespace

DynamicModel::DynamicModel(std::shared_ptr<const PredictorModel> base,
                           std::shared_ptr<const CsrGraph> graph,
                           std::optional<std::uint64_t> partition_seed,
                           ThreadPool* pool)
    : base_(require_model(std::move(base))),
      overlay_(require_graph(std::move(graph))),
      partition_seed_(partition_seed.value_or(base_->config().seed)) {
  SNAPLE_CHECK_MSG(overlay_.num_vertices() == base_->num_vertices(),
                   "graph and model disagree on the vertex count — this "
                   "is not the graph the model was fit on");
  SNAPLE_CHECK_MSG(
      !(base_->config().policy == SelectionPolicy::kRandom &&
        base_->config().k_hops == 3),
      "incremental updates do not support the Γrnd policy with K=3: its "
      "hop2 selection shuffles candidates in accumulator-iteration "
      "order, which no out-of-band recompute can reproduce bit-exactly");

  const VertexId n = base_->num_vertices();
  score_ = base_->config().resolve_score();
  hop2_skip_zero_ = rows::hop2_zero_skip(base_->config(), score_);
  gamma_rows_ = RowTable(n);
  sims_rows_ = RowTable(n);
  if (base_->config().k_hops == 3) hop2_rows_ = RowTable(n);
  row_version_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);

  // Verify every base tag against the insertion-stable placement rule
  // and every retained neighbor against the graph. Fits made with
  // kHash/kGreedy on >1 machine fail here by design: their tags key on
  // CSR edge positions, which an insert would shift, breaking the
  // refit-equivalence contract. Single-machine fits always pass.
  const std::uint32_t machines = base_->num_machines();
  ThreadPool& tp = pool != nullptr ? *pool : default_pool();
  const CsrGraph& g = overlay_.base();
  tp.parallel_for(0, n, [&](std::size_t i, std::size_t) {
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

// ---------------------------------------------------------------------
// Writer path.
// ---------------------------------------------------------------------

void DynamicModel::validate_batch(std::span<const Edge> batch) const {
  rows::validate_insert_batch(overlay_, batch);
}

DynamicModel::UpdateStats DynamicModel::add_edge(VertexId u, VertexId v) {
  const Edge e{u, v};
  return add_edges({&e, 1});
}

DynamicModel::UpdateStats DynamicModel::add_edges(
    std::span<const Edge> batch) {
  // All-or-nothing: the whole batch is validated before the first
  // overlay mutation, so a throw leaves the model untouched.
  validate_batch(batch);
  if (batch.empty()) return {};
  return apply_validated(batch);
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
  return apply_removes_validated(batch);
}

DynamicModel::UpdateStats DynamicModel::apply_validated(
    std::span<const Edge> batch) {
  for (const Edge& e : batch) overlay_.insert(e.src, e.dst);
  return republish_stale(batch);
}

DynamicModel::UpdateStats DynamicModel::apply_removes_validated(
    std::span<const Edge> batch) {
  for (const Edge& e : batch) overlay_.remove(e.src, e.dst);
  return republish_stale(batch);
}

DynamicModel::UpdateStats DynamicModel::republish_stale(
    std::span<const Edge> batch) {
  // Stale-row sets against the post-batch live graph (row_recompute.hpp
  // derives them, and proves the same sets cover removals): Γ̂ stales
  // only at the sources; sims at the sources and their
  // in-neighborhoods; hop2 one in-hop further.
  const rows::StaleSets stale =
      rows::compute_stale_sets(overlay_, batch, !hop2_rows_.empty());

  // Recompute in dependency order — each phase reads rows the previous
  // phase already published (same thread, plain program order; readers
  // see each row flip atomically).
  for (const VertexId u : stale.gamma) {
    auto slab = std::make_unique<RowSlab>();
    slab->ids = compute_gamma_row(u);
    publish(gamma_rows_, u, std::move(slab));
  }
  for (const VertexId x : stale.sims) {
    publish(sims_rows_, x, compute_sims_row(x));
  }
  if (!hop2_rows_.empty()) {
    rows::PathFoldMap& fold = rows::thread_fold_map();
    for (const VertexId x : stale.hop2) {
      publish(hop2_rows_, x, compute_hop2_row(x, fold));
    }
  }

  version_.fetch_add(batch.size(), std::memory_order_release);
  return UpdateStats{batch.size(), stale.gamma.size(), stale.sims.size(),
                     stale.hop2.size()};
}

// ---------------------------------------------------------------------
// Row recomputes — bit-identical to what a from-scratch fit on the
// live graph computes for the same row (snaple_rows.hpp kernels).
// ---------------------------------------------------------------------

std::vector<VertexId> DynamicModel::compute_gamma_row(VertexId u) const {
  return rows::recompute_gamma_row(base_->config(), overlay_, u);
}

std::unique_ptr<DynamicModel::RowSlab> DynamicModel::compute_sims_row(
    VertexId x) const {
  // This model's gamma_hat() already resolves published-over-base rows,
  // so it IS the current-row source the shared kernel needs.
  return rows::recompute_sims_row(
      base_->config(), score_, overlay_, base_->num_machines(),
      partition_seed_, x, [this](VertexId v) { return gamma_hat(v); });
}

std::unique_ptr<DynamicModel::RowSlab> DynamicModel::compute_hop2_row(
    VertexId x, rows::PathFoldMap& fold) const {
  // The fold reads this model's (already republished) sims rows.
  return rows::recompute_hop2_row(*this, score_, hop2_skip_zero_, x,
                                  fold);
}

void DynamicModel::publish(RowTable& table, VertexId u,
                           std::unique_ptr<RowSlab> slab) {
  const RowSlab* p = slab.get();
  slabs_.push_back(std::move(slab));  // retired slabs stay owned forever
  table[u].store(p, std::memory_order_release);
  row_version_[u].fetch_add(1, std::memory_order_release);
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
