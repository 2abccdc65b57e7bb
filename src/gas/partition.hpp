// PowerGraph-style vertex-cut partitioning.
//
// GraphLab 2.x assigns *edges* to machines; a vertex is replicated on every
// machine holding at least one of its edges, with one replica designated
// master. Vertex-cuts dominate edge-cuts on power-law graphs because a hub
// vertex's edges can be spread over many machines without cutting all of
// them (Gonzalez et al., OSDI'12 — reference [11] of the paper).
//
// Two strategies:
//  * Hash  — uniform random edge placement (GraphLab's default "random");
//  * Greedy — the oblivious greedy heuristic: prefer machines that already
//    host both endpoints, then either endpoint, breaking ties by load.
// The engine charges network traffic proportional to replica count, so
// replication_factor() is the quantity to compare (micro bench ablation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "util/check.hpp"

namespace snaple {
class CompressedCsrGraph;
class ThreadPool;
}

namespace snaple::gas {

using MachineId = std::uint8_t;

/// A contiguous, half-open vertex range [begin, end) — the unit of
/// *range* partitioning. Where the vertex-cut Partitioning below spreads
/// edges over machines, range partitioning assigns whole vertices to
/// consecutive slices: the layout the sharded serving tier uses, because
/// a model's flattened per-vertex arrays slice cleanly along it and the
/// owner of a vertex is one comparison away (serve/model_shard.hpp).
struct VertexRange {
  VertexId begin = 0;
  VertexId end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool contains(VertexId u) const noexcept {
    return u >= begin && u < end;
  }
  friend bool operator==(const VertexRange&, const VertexRange&) = default;
};

/// Splits [0, n) into exactly `parts` consecutive VertexRanges whose
/// *weights* are as balanced as a contiguous split allows.
/// `prefix_weight` has n+1 monotone entries with prefix_weight[0] == 0;
/// vertex u weighs prefix_weight[u+1] - prefix_weight[u] (pass byte
/// sizes, row lengths, degrees — whatever the shards should balance).
/// Boundary i lands on the prefix value closest to total·i/parts, so the
/// result is deterministic, covers [0, n) exactly and never overlaps;
/// ranges may be empty when parts > n or the weight mass is skewed.
[[nodiscard]] std::vector<VertexRange> split_weighted_ranges(
    std::span<const std::uint64_t> prefix_weight, std::size_t parts);

/// Owner lookup over the ranges split_weighted_ranges produced (they are
/// sorted and contiguous): index of the range containing u.
[[nodiscard]] std::size_t range_owner(std::span<const VertexRange> ranges,
                                      VertexId u);

/// Set of machines (≤ 64) hosting a replica, as a bitmask.
class ReplicaSet {
 public:
  constexpr ReplicaSet() = default;

  void add(MachineId m) noexcept {
    SNAPLE_DCHECK(m < 64);  // shift past the mask is UB, not a no-op
    bits_ |= (std::uint64_t{1} << m);
  }
  [[nodiscard]] bool contains(MachineId m) const noexcept {
    return (bits_ >> m) & 1u;
  }
  [[nodiscard]] int count() const noexcept {
    return __builtin_popcountll(bits_);
  }
  [[nodiscard]] bool empty() const noexcept { return bits_ == 0; }
  [[nodiscard]] std::uint64_t bits() const noexcept { return bits_; }

  /// Calls fn(machine) for every member, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::uint64_t rest = bits_;
    while (rest != 0) {
      const int m = __builtin_ctzll(rest);
      fn(static_cast<MachineId>(m));
      rest &= rest - 1;
    }
  }

 private:
  std::uint64_t bits_ = 0;
};

enum class PartitionStrategy {
  /// Uniform random edge placement drawn from a sequential RNG over the
  /// CSR edge order (GraphLab's default "random"). Cheap and balanced,
  /// but a machine assignment depends on the edge's *position*, so the
  /// same edge can land elsewhere after the graph changes.
  kHash,
  /// The oblivious greedy heuristic: prefer machines already hosting
  /// both endpoints, then either, breaking ties by load.
  kGreedy,
  /// Insertion-stable placement: the machine of edge (u, v) is a pure
  /// hash of the endpoints and the seed — never of the edge's CSR
  /// position or of any placement history. Statistically equivalent to
  /// kHash (uniform, no locality), and the only strategy under which a
  /// graph mutation leaves every existing edge's machine unchanged.
  /// Required by core/dynamic_model.hpp's incremental updates.
  kEdgeLocal,
};

/// The kEdgeLocal placement rule, exposed so incremental model updates
/// can tag edges that did not exist when the Partitioning was built.
[[nodiscard]] MachineId edge_local_machine(VertexId u, VertexId v,
                                           std::size_t machines,
                                           std::uint64_t seed) noexcept;

class Partitioning {
 public:
  /// Partitions g's edges over `machines` (1..64) machines. Edge
  /// placement is a serial pass; the epilogue that derives replicas,
  /// owner masks, loads and masters runs on `pool` (the default pool
  /// when null) and gives the same result for any pool size.
  [[nodiscard]] static Partitioning create(const CsrGraph& g,
                                           std::size_t machines,
                                           PartitionStrategy strategy,
                                           std::uint64_t seed = 7,
                                           ThreadPool* pool = nullptr);

  /// As above over a compressed graph — rows decode per-thread, edges
  /// keep their CSR indices, so the resulting partitioning is identical
  /// to one built from the flat graph.
  [[nodiscard]] static Partitioning create(const CompressedCsrGraph& g,
                                           std::size_t machines,
                                           PartitionStrategy strategy,
                                           std::uint64_t seed = 7,
                                           ThreadPool* pool = nullptr);

  /// Builds a partitioning from an explicit per-edge machine assignment
  /// (CSR edge order). The seam for custom/external partitioners, and for
  /// tests that need exact placements to hand-verify the engine's
  /// network/memory accounting. Isolated vertices are placed as create()
  /// places them with seed 7.
  [[nodiscard]] static Partitioning from_edge_assignment(
      const CsrGraph& g, std::size_t machines,
      std::vector<MachineId> edge_machine, ThreadPool* pool = nullptr);

  [[nodiscard]] static Partitioning from_edge_assignment(
      const CompressedCsrGraph& g, std::size_t machines,
      std::vector<MachineId> edge_machine, ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return machines_;
  }

  /// Machine that owns edge with CSR index e.
  [[nodiscard]] MachineId edge_machine(EdgeIndex e) const {
    SNAPLE_DCHECK(e < edge_machine_.size());
    return edge_machine_[e];
  }

  /// Master machine of vertex u (always a member of replicas(u)).
  [[nodiscard]] MachineId master(VertexId u) const {
    SNAPLE_DCHECK(u < master_.size());
    return master_[u];
  }

  [[nodiscard]] const ReplicaSet& replicas(VertexId u) const {
    SNAPLE_DCHECK(u < replicas_.size());
    return replicas_[u];
  }

  /// Bitmask of machines owning at least one out-edge (u, *). With the
  /// in-edge variant this tells a shard whether a vertex's gather can be
  /// finalized locally or must wait for remote partial sums — the fast
  /// path of the sharded engine.
  [[nodiscard]] std::uint64_t out_edge_owners(VertexId u) const {
    SNAPLE_DCHECK(u < out_owner_mask_.size());
    return out_owner_mask_[u];
  }
  /// Bitmask of machines owning at least one in-edge (*, u).
  [[nodiscard]] std::uint64_t in_edge_owners(VertexId u) const {
    SNAPLE_DCHECK(u < in_owner_mask_.size());
    return in_owner_mask_[u];
  }

  /// Average number of replicas per vertex — THE vertex-cut quality metric.
  [[nodiscard]] double replication_factor() const;

  /// Number of edges assigned to each machine (load balance metric).
  [[nodiscard]] const std::vector<EdgeIndex>& edges_per_machine()
      const noexcept {
    return edge_load_;
  }

 private:
  template <typename Graph>
  [[nodiscard]] static Partitioning create_impl(const Graph& g,
                                                std::size_t machines,
                                                PartitionStrategy strategy,
                                                std::uint64_t seed,
                                                ThreadPool* pool);
  template <typename Graph>
  [[nodiscard]] static Partitioning from_edges_impl(
      const Graph& g, std::size_t machines,
      std::vector<MachineId> edge_machine, ThreadPool* pool);
  /// Derives everything but edge_machine_ from it (partition.cpp).
  template <typename Graph>
  void finalize(const Graph& g, std::uint64_t seed, ThreadPool* pool);

  std::size_t machines_ = 1;
  std::vector<MachineId> edge_machine_;  // size E
  std::vector<MachineId> master_;        // size V
  std::vector<ReplicaSet> replicas_;     // size V
  std::vector<std::uint64_t> out_owner_mask_;  // size V
  std::vector<std::uint64_t> in_owner_mask_;   // size V
  std::vector<EdgeIndex> edge_load_;     // size machines
};

}  // namespace snaple::gas
