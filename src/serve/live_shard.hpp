// LiveShard — one serving shard's LIVE slice of the model: a
// DynamicModel (core/dynamic_model.hpp) scoped to the shard's vertex
// range, plus the serving-side reads a ShardServer needs.
//
// Where ModelShard serves an immutable RowsSlice, a LiveShard owns its
// range's rows as versioned, RCU-published slabs over the base model.
// The update plane fans EVERY insert or remove batch to EVERY shard
// (UpdateRouter), and each shard applies it with the store's own
// add_edges/remove_edges: validate (deterministic, so all shards accept
// or all reject — batch atomicity without a commit protocol), mutate
// its overlay, derive the stale sets, republish only the stale rows it
// owns — the 1/S-th of the update work that is this shard's share — and
// bump row_version for every stale vertex, owned or not. All shards
// therefore agree on every version with no coordination, and the
// versions key the hot-row cache (serve/row_cache.hpp), so a cached
// copy of a republished row can never serve again. Non-owned
// dependencies of a recompute never cross the wire: the store
// recomputes them from its own live graph (kEdgeLocal's
// endpoint-hash-stable machine tags make that exact).
//
// Concurrency: the store's single-writer, lock-free-reader discipline.
// During a writer burst a query may observe some rows pre- and some
// post-batch (row-level isolation); once the batch has applied on every
// shard — UpdateRouter::barrier() — every served answer is
// bit-identical to LinkPredictor::fit on the live graph.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/dynamic_model.hpp"
#include "gas/partition.hpp"
#include "serve/model_shard.hpp"

namespace snaple::serve {

class LiveShard : public DynamicModel {
 public:
  /// One owned row snapshot with the version it was read at — what a
  /// peer fetch ships (router.hpp op 2 carries the version so the
  /// fetching shard caches under the OWNER's key, never its own
  /// possibly-skewed view).
  struct VersionedRow {
    std::uint64_t version = 0;
    std::shared_ptr<const HotRow> row;
  };

  /// Wraps `base` (fit on `graph` with PartitionStrategy::kEdgeLocal,
  /// or any single-machine fit) for live serving of `range`. Verifies
  /// the owned rows' machine tags against the insertion-stable
  /// placement (throws CheckError otherwise, on a range outside the
  /// model, and on Γrnd with K=3 — DynamicModel's constraints).
  LiveShard(std::shared_ptr<const PredictorModel> base,
            std::shared_ptr<const CsrGraph> graph, gas::VertexRange range,
            std::optional<std::uint64_t> partition_seed = std::nullopt)
      : DynamicModel(std::move(base), std::move(graph), range,
                     partition_seed, nullptr) {}

  /// Retained neighbors of owned u whose rows are NOT owned here,
  /// sorted ascending — what the serving layer resolves (cache or peer
  /// fetch) before topk(u). Reads u's CURRENT sims row and, when `root`
  /// is non-null, pins the view it read there: a concurrent update may
  /// republish u's row between this call and topk(u), and the fold MUST
  /// iterate the same neighbor set the missing list was derived from —
  /// pass the pin through to topk. The pinned spans stay valid for the
  /// shard's lifetime (slabs are never freed).
  [[nodiscard]] std::vector<VertexId> missing_rows(
      VertexId u, PredictorModel::SimsView* root = nullptr) const;

  /// Top-k for owned u over the current rows — bit-identical to
  /// QueryEngine::topk on a refit union-graph model once the cluster is
  /// quiescent. `overlay` supplies non-owned neighbor rows, as with
  /// ModelShard::topk; `root` (from missing_rows) substitutes for u's
  /// live sims row so the fold matches the resolved overlay even when a
  /// writer republishes u mid-query.
  [[nodiscard]] std::vector<std::pair<VertexId, float>> topk(
      VertexId u, std::size_t k = 0, const RowOverlay* overlay = nullptr,
      const PredictorModel::SimsView* root = nullptr) const;

  /// Owned row snapshot for a peer fetch: content and version read
  /// consistently (version-validated retry loop, so a row republished
  /// mid-read can never ship under a newer version than its bytes).
  [[nodiscard]] VersionedRow snapshot_row(VertexId v) const;

 private:
  struct ServeSource;  // owned-or-overlay row source for topk
};

}  // namespace snaple::serve
