// DynamicModel — the live-row store: mutate the served model on edge
// inserts and removals instead of refitting.
//
// A PredictorModel is a frozen snapshot; a follower graph is not. At
// 1B edges a refit of steps 1–2(b) costs seconds to minutes, so a
// serving tier that refits per edge can never stay fresh. The row-level
// dependency structure of Algorithm 2 makes surgical updates possible —
// inserting OR removing the edge (u, v) stales exactly:
//
//   Γ̂(x)    for x = u                    (only u's out-row and degree
//                                         changed; the Bernoulli draw is
//                                         per-edge, rows::edge_uniform);
//   sims(x) for x ∈ {u} ∪ Γ⁻¹(u)         (sim(x, w) reads Γ̂(x), Γ̂(w) and
//                                         |Γ(w)| — only u's changed);
//   hop2(x) for x ∈ S ∪ Γ⁻¹(S),          (the 2b fold of x reads sims(x),
//           S = {u} ∪ Γ⁻¹(u)              Γ̂(x) and sims of x's targets)
//
// — all neighborhood-sized sets, recomputed in microseconds with the
// same row kernels the batch engine runs (core/snaple_rows.hpp via
// core/row_recompute.hpp) against a graph overlay
// (graph/overlay_graph.hpp). Removals hit the identical sets
// (row_recompute.hpp carries the symmetry argument), so inserts and
// removes share one republish tail. bench_update measures the gap
// against the full refit wall.
//
// THE contract (the property test in tests/test_dynamic_model.cpp):
// after any interleaving of add_edge(s) and remove_edge(s), every row
// and every served query — predictions AND float scores — is
// bit-identical to LinkPredictor::fit run from scratch on the live
// (union-minus-tombstones) graph under the same config and the same
// edge placement. Two things make that exact instead of approximate:
//
//   * every recompute replays the engine's canonical machine-grouped
//     fold (CSR order within a machine, machines merged ascending, same
//     float ⊕pre chains — snaple_rows.hpp);
//   * edges are placed by gas::PartitionStrategy::kEdgeLocal, whose
//     machine assignment is a pure hash of the endpoints. The kHash /
//     kGreedy strategies key on CSR edge *positions* or placement
//     history, both of which shift when an edge is inserted — a refit
//     under them would silently re-tag existing edges and the float
//     folds would diverge. The constructor verifies every owned
//     base-model tag against the rule (single-machine models always
//     pass: every tag is 0 under any strategy).
//
// Owned range. The store holds the rows of one vertex range [begin,
// end) — all of [0, n) through the public constructor; a serving shard
// (serve::LiveShard) scopes it to its own range. Every store applies
// the whole edge stream to its own overlay, derives the same stale sets
// (a pure function of batch + live graph), republishes only the stale
// rows it owns, and bumps row_version for EVERY stale vertex — so all
// stores over the same stream agree on every version with no
// coordination. A recompute that depends on a non-owned row (sims(x)
// reads Γ̂ of x's out-neighbors; hop2(x) reads sims of x's retained
// neighbors) reads the base model while that row is clean, and
// recomputes it on the fly (memoized per update) once any update has
// staled it — every row is a pure function of (live graph, config,
// seed), so no row ever crosses a wire. Readers serve owned rows only.
//
// Concurrency: single writer, any number of readers, no reader locks.
// Each recomputed row is published as an immutable slab behind one
// atomic pointer (release store; readers load-acquire — an RCU-style
// swap). Readers are never torn: a row is either the old slab or the
// new one, never a mix. Versions are bumped after an update's last
// publish, so a reader that sees a bumped version also sees its rows.
// During a multi-row update a concurrent query may observe some rows
// pre- and some post-update (row-level, not snapshot, isolation); once
// the writer call returns, every new query reflects it. Superseded
// slabs are retired, never freed while this object lives — a reader can
// never chase a dangling pointer, and in exchange memory grows with the
// update count (overlay_bytes() reports). To compact a long-lived
// server, freeze() a snapshot, swap serving onto a fresh DynamicModel
// wrapping it (plus the union graph), and discard this one once its
// readers drain — the RCU grace period, moved to an object boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/row_recompute.hpp"
#include "core/snaple_rows.hpp"
#include "gas/partition.hpp"
#include "graph/overlay_graph.hpp"

namespace snaple {

class DynamicModel {
 public:
  /// What one update touched: the operations applied and the OWNED rows
  /// republished (a full-range store owns every stale row; summed over
  /// stores whose ranges partition [0, n) they give the same totals).
  struct UpdateStats {
    std::size_t edges = 0;       // operations applied (inserts or removals)
    std::size_t gamma_rows = 0;  // Γ̂ rows republished
    std::size_t sims_rows = 0;   // sims rows republished
    std::size_t hop2_rows = 0;   // hop2 rows republished (K=3 only)
  };

  /// Wraps `base` (fit on `graph`) for incremental updates. The base
  /// model's machine tags must follow gas::edge_local_machine with
  /// `partition_seed` — fit with PartitionStrategy::kEdgeLocal, or any
  /// single-machine fit (verified here on `pool`, the default pool when
  /// null; throws CheckError otherwise, and on a Γrnd policy with K=3,
  /// whose hop2 selection shuffles in accumulator-iteration order that
  /// no replay can reproduce). `partition_seed` defaults to the model
  /// config's seed — the seed LinkPredictor partitions with — so
  /// fit-then-wrap works as-is; pass it explicitly only when the
  /// Partitioning was created with a different seed (e.g.
  /// Partitioning::create's own default of 7).
  DynamicModel(std::shared_ptr<const PredictorModel> base,
               std::shared_ptr<const CsrGraph> graph,
               std::optional<std::uint64_t> partition_seed = std::nullopt,
               ThreadPool* pool = nullptr);

  DynamicModel(const DynamicModel&) = delete;
  DynamicModel& operator=(const DynamicModel&) = delete;

  // ---- writer API (one writer at a time; safe against readers) ----

  /// Applies one edge insert and recomputes the stale rows. Throws
  /// CheckError on an out-of-range endpoint, a self-loop, or an edge
  /// already present in the union graph; a throwing call changes
  /// nothing.
  UpdateStats add_edge(VertexId u, VertexId v);

  /// Applies a batch in one pass: all inserts land in the overlay
  /// first, then each stale row is recomputed once — cheaper than
  /// edge-at-a-time when inserts cluster, and bit-identical to it (both
  /// end at the refit-on-union state). The whole batch is validated up
  /// front; a throwing call changes nothing. Validation is a pure
  /// function of the batch and the live graph, so stores fed the same
  /// stream all accept or all reject — a fanned-out batch is atomic
  /// across shards without a commit protocol.
  UpdateStats add_edges(std::span<const Edge> batch);

  /// Applies one edge removal and recomputes the stale rows — the same
  /// row families as an insert of the same edge. Throws CheckError on
  /// an out-of-range endpoint, a self-loop, or an edge not present in
  /// the live graph; a throwing call changes nothing.
  UpdateStats remove_edge(VertexId u, VertexId v);

  /// Removes a batch in one pass: all tombstones land in the overlay
  /// first, then each stale row is recomputed once. The whole batch is
  /// validated up front; a throwing call changes nothing.
  UpdateStats remove_edges(std::span<const Edge> batch);

  /// Rebuilds a compact, standalone PredictorModel from the current
  /// rows — bit-identical to a from-scratch fit on the live graph, and
  /// the save/serve artifact for the updated state. Needs the full
  /// range (CheckError otherwise). Does NOT reclaim this model's
  /// retired slabs (readers may still hold them); see the header
  /// comment for the swap-and-discard compaction pattern. Safe against
  /// concurrent readers; not against a concurrent writer.
  [[nodiscard]] PredictorModel freeze() const;

  // ---- reader API (lock-free; same row shapes as PredictorModel) ----
  // Current rows of an OWNED vertex (CheckError otherwise).

  [[nodiscard]] std::span<const VertexId> gamma_hat(VertexId u) const {
    SNAPLE_CHECK_MSG(owns(u), not_owned("gamma", u));
    if (const RowSlab* s = gamma_rows_[u - range_.begin].load(
            std::memory_order_acquire)) {
      return s->ids;
    }
    return base_->gamma_hat(u);
  }

  [[nodiscard]] PredictorModel::SimsView sims(VertexId u) const {
    SNAPLE_CHECK_MSG(owns(u), not_owned("sims", u));
    if (const RowSlab* s = sims_rows_[u - range_.begin].load(
            std::memory_order_acquire)) {
      return {s->ids, s->scores, s->machines};
    }
    return base_->sims(u);
  }

  [[nodiscard]] PredictorModel::Hop2View hop2(VertexId u) const {
    SNAPLE_CHECK_MSG(owns(u), not_owned("hop2", u));
    if (hop2_rows_.empty()) return {};  // K=2: no hop2 table at all
    if (const RowSlab* s = hop2_rows_[u - range_.begin].load(
            std::memory_order_acquire)) {
      return {s->ids, s->scores};
    }
    return base_->hop2(u);
  }

  [[nodiscard]] const gas::VertexRange& range() const noexcept {
    return range_;
  }
  [[nodiscard]] bool owns(VertexId u) const noexcept {
    return range_.contains(u);
  }
  [[nodiscard]] const SnapleConfig& config() const noexcept {
    return base_->config();
  }
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return base_->num_vertices();
  }
  [[nodiscard]] std::uint32_t num_machines() const noexcept {
    return base_->num_machines();
  }
  [[nodiscard]] std::uint64_t partition_seed() const noexcept {
    return partition_seed_;
  }

  /// Total applied operations — inserts plus removals (monotone;
  /// release-published after the last row of an update is visible).
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }
  /// Times any of u's rows went stale since construction (0 = the base
  /// model's rows are still current for u). Kept for ALL vertices, owned
  /// or not, and identical on every store fed the same stream — the key
  /// of the hot-row cache (serve/row_cache.hpp).
  [[nodiscard]] std::uint64_t row_version(VertexId u) const {
    SNAPLE_DCHECK(u < num_vertices());
    return row_version_[u].load(std::memory_order_acquire);
  }

  [[nodiscard]] const PredictorModel& base() const noexcept {
    return *base_;
  }
  /// The live graph (base CSR + delta rows − tombstones). Writer-side
  /// state: do not read concurrently with add_edge(s)/remove_edge(s).
  [[nodiscard]] const OverlayGraph& graph() const noexcept {
    return overlay_;
  }

  /// Bytes held beyond the base model: live + retired row slabs and the
  /// overlay delta rows.
  [[nodiscard]] std::size_t overlay_bytes() const noexcept;

 protected:
  /// The range-scoped store (serve::LiveShard's base): owns the rows of
  /// `range` (nullopt = all of [0, n)); throws CheckError when the range
  /// lies outside the model.
  DynamicModel(std::shared_ptr<const PredictorModel> base,
               std::shared_ptr<const CsrGraph> graph,
               std::optional<gas::VertexRange> range,
               std::optional<std::uint64_t> partition_seed,
               ThreadPool* pool);

  /// The score configuration resolved once from the model's config.
  [[nodiscard]] const ScoreConfig& score() const noexcept { return score_; }

 private:
  using RowSlab = rows::RowSlab;
  /// Owned-range tables: index u - range_.begin.
  using RowTable = std::vector<std::atomic<const RowSlab*>>;

  struct ApplyScratch;  // per-update memo of non-owned dependency rows
  struct FoldSource;    // current-row source for the hop2 recompute fold

  [[nodiscard]] std::string not_owned(const char* row, VertexId u) const;

  /// Shared tail of both writer paths: stale sets against the already
  /// mutated overlay, owned republishes in dependency order, version
  /// bumps for every stale vertex.
  UpdateStats republish_stale(std::span<const Edge> batch);

  /// The freshest Γ̂ / sims row of ANY vertex, as the writer sees it:
  /// owned table, base model, or an on-the-fly recompute.
  [[nodiscard]] std::span<const VertexId> current_gamma(
      VertexId v, ApplyScratch& scratch) const;
  [[nodiscard]] PredictorModel::SimsView current_sims(
      VertexId v, ApplyScratch& scratch) const;

  void publish(RowTable& table, VertexId u, std::unique_ptr<RowSlab> slab);

  std::shared_ptr<const PredictorModel> base_;
  OverlayGraph overlay_;
  gas::VertexRange range_;
  std::uint64_t partition_seed_;
  ScoreConfig score_;       // resolved once from the model's config
  bool hop2_skip_zero_;     // rows::hop2_zero_skip, fixed per config

  RowTable gamma_rows_;     // sized range_.size()
  RowTable sims_rows_;
  RowTable hop2_rows_;      // empty vector for K=2 models
  std::unique_ptr<std::atomic<std::uint64_t>[]> row_version_;  // full n
  std::atomic<std::uint64_t> version_{0};

  /// Writer-private staleness of NON-owned base rows (full n; empty when
  /// the range is full): set once a vertex's Γ̂/sims staled in any
  /// update, after which the row is recomputed on the fly whenever a
  /// recompute needs it. Owned rows never consult these.
  std::vector<char> gamma_dirty_;
  std::vector<char> sims_dirty_;

  /// Every slab ever published, live or superseded — deferred
  /// reclamation is what lets readers run without locks or epochs.
  std::vector<std::unique_ptr<const RowSlab>> slabs_;
};

}  // namespace snaple
