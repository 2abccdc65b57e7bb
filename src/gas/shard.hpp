// Per-machine graph shards for true sharded execution.
//
// The flat engine keeps one global CSR and one global vertex-data array
// and merely *accounts* distribution through the Partitioning. A Shard
// turns that accounting into ownership: machine m holds
//
//   * the slice of the CSR containing exactly the edges the Partitioning
//     assigned to m, with endpoints remapped to dense *local* vertex ids;
//   * the list of global ids it replicates (every vertex with at least
//     one local edge, plus isolated vertices whose master hashed here) —
//     the local id of a vertex is its index in that sorted list;
//   * which local replicas it masters (apply runs here) and which are
//     mirrors (kept fresh by master->mirror syncs, exchange.hpp).
//
// The engine pairs each Shard with a replica-local vertex-data array of
// the same length, so a shard task reads and writes only memory its
// machine would own — gathers never reach across a shard boundary; only
// MessageBuffers do. Local neighbor lists preserve the global CSR order
// of the surviving edges, which makes the sharded fold order identical
// to the flat engine's per-machine fold (engine.hpp) and the two modes
// bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gas/partition.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/csr_graph.hpp"
#include "util/check.hpp"

namespace snaple {
class ThreadPool;
}

namespace snaple::gas {

class Shard {
 public:
  [[nodiscard]] MachineId machine() const noexcept { return machine_; }

  /// Number of local replicas (masters + mirrors) on this machine.
  [[nodiscard]] std::size_t num_local() const noexcept {
    return vertices_.size();
  }
  [[nodiscard]] std::size_t num_masters() const noexcept {
    return masters_.size();
  }
  [[nodiscard]] std::size_t num_mirrors() const noexcept {
    return vertices_.size() - masters_.size();
  }
  [[nodiscard]] EdgeIndex num_local_edges() const noexcept {
    if (compressed_) {
      return out_comp_.offsets.empty() ? 0 : out_comp_.offsets.back();
    }
    return out_targets_.size();
  }

  /// True when the local adjacency is held delta-compressed (the
  /// peak-memory mode for wide sharded fits); row accessors then decode
  /// into per-thread scratch with the same ids in the same order.
  [[nodiscard]] bool compressed() const noexcept { return compressed_; }

  /// Global ids of the local replicas, ascending; local id = index.
  [[nodiscard]] const std::vector<VertexId>& vertices() const noexcept {
    return vertices_;
  }
  [[nodiscard]] VertexId global_id(VertexId local) const {
    SNAPLE_DCHECK(local < vertices_.size());
    return vertices_[local];
  }

  /// Local id of a global vertex replicated here (binary search over the
  /// sorted id list: O(log n_local), no per-shard V-sized table). The
  /// vertex must be replicated on this machine.
  [[nodiscard]] VertexId local_id(VertexId global) const;

  /// True if this machine masters the replica with the given local id.
  [[nodiscard]] bool owns(VertexId local) const {
    SNAPLE_DCHECK(local < is_master_.size());
    return is_master_[local] != 0;
  }

  /// Local ids of the vertices mastered here, ascending.
  [[nodiscard]] const std::vector<VertexId>& masters() const noexcept {
    return masters_;
  }

  /// Number of vertex-data sync messages this shard sends to machine r
  /// per full superstep (one per mastered vertex replicated on r) — the
  /// exchange-buffer reservation hint.
  [[nodiscard]] const std::vector<EdgeIndex>& sync_fanout() const noexcept {
    return sync_fanout_;
  }

  /// Local out-neighbors of `local` over this shard's edges, in global
  /// CSR order; entries are local ids.
  [[nodiscard]] std::span<const VertexId> out_neighbors(VertexId local) const {
    SNAPLE_DCHECK(local < num_local());
    if (compressed_) return decode_row(out_comp_, /*side=*/0, local);
    return {out_targets_.data() + out_offsets_[local],
            out_targets_.data() + out_offsets_[local + 1]};
  }

  /// Local in-neighbors of `local` over this shard's edges, ascending by
  /// global source id (matching CsrGraph::in_neighbors restricted to this
  /// machine's edges); entries are local ids.
  [[nodiscard]] std::span<const VertexId> in_neighbors(VertexId local) const {
    SNAPLE_DCHECK(local < num_local());
    if (compressed_) return decode_row(in_comp_, /*side=*/1, local);
    return {in_sources_.data() + in_offsets_[local],
            in_sources_.data() + in_offsets_[local + 1]};
  }

  /// Measured resident bytes of the shard's structure arrays (the real
  /// counterpart of the flat audit's 2×sizeof(VertexId)-per-edge model).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    const std::size_t adjacency =
        compressed_
            ? out_comp_.memory_bytes() + in_comp_.memory_bytes()
            : (out_offsets_.size() + in_offsets_.size()) * sizeof(EdgeIndex) +
                  (out_targets_.size() + in_sources_.size()) *
                      sizeof(VertexId);
    return vertices_.size() * sizeof(VertexId) +
           is_master_.size() * sizeof(std::uint8_t) +
           masters_.size() * sizeof(VertexId) + adjacency;
  }

 private:
  friend class ShardTopology;

  /// Post-pass: packs the flat local CSR into delta-compressed form and
  /// releases the flat arrays. Runs in the per-machine build pass (after
  /// the in-CSR scatter, which still reads the flat out slice).
  void compress_local();

  /// Decodes one compressed local row into per-thread scratch (one
  /// buffer per side, so interleaved out/in walks stay valid).
  [[nodiscard]] std::span<const VertexId> decode_row(
      const CompressedAdjacency& adj, int side, VertexId local) const;

  MachineId machine_ = 0;
  std::vector<VertexId> vertices_;       // global ids, ascending
  std::vector<std::uint8_t> is_master_;  // per local id
  std::vector<VertexId> masters_;        // local ids, ascending
  std::vector<EdgeIndex> sync_fanout_;   // size machines
  std::vector<EdgeIndex> out_offsets_;   // size n_local + 1
  std::vector<VertexId> out_targets_;    // local ids, global CSR order
  std::vector<EdgeIndex> in_offsets_;    // size n_local + 1
  std::vector<VertexId> in_sources_;     // local ids, ascending source
  bool compressed_ = false;
  CompressedAdjacency out_comp_;  // populated iff compressed_
  CompressedAdjacency in_comp_;
};

/// All shards of one (graph, partitioning) pair. Building is a pure
/// function of its inputs and deterministic for any pool size.
class ShardTopology {
 public:
  /// Splits `g` into one shard per machine of `p`. Edge e lands on shard
  /// p.edge_machine(e); vertex u is replicated on every machine in
  /// p.replicas(u). One read of the graph serves every machine: passes
  /// over vertex blocks on `pool` (default pool when null) count, then
  /// scatter, each block's vertices, masters and out-edges into all
  /// shards at once, and a last pass per machine builds the in-CSR.
  /// Extra memory is O(V + total replicas). With `compress_slices` each
  /// machine packs its local CSR into delta-compressed form as a build
  /// post-pass, cutting the topology's resident footprint; row decode is
  /// bit-identical, so every engine result is unchanged.
  [[nodiscard]] static ShardTopology build(const CsrGraph& g,
                                           const Partitioning& p,
                                           ThreadPool* pool = nullptr,
                                           bool compress_slices = false);

  /// As above from a compressed graph (rows decode per-thread during the
  /// edge scatter). Slices default to compressed here: a caller that chose
  /// the compressed representation is economizing memory, and inflating
  /// it at the shard layer would undo exactly that.
  [[nodiscard]] static ShardTopology build(const CompressedCsrGraph& g,
                                           const Partitioning& p,
                                           ThreadPool* pool = nullptr,
                                           bool compress_slices = true);

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const Shard& shard(std::size_t m) const {
    SNAPLE_DCHECK(m < shards_.size());
    return shards_[m];
  }
  [[nodiscard]] const std::vector<Shard>& shards() const noexcept {
    return shards_;
  }

 private:
  template <typename Graph>
  [[nodiscard]] static ShardTopology build_impl(const Graph& g,
                                                const Partitioning& p,
                                                ThreadPool* pool,
                                                bool compress_slices);

  std::vector<Shard> shards_;
};

}  // namespace snaple::gas
