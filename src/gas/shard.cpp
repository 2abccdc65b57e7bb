#include "gas/shard.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "util/thread_pool.hpp"

namespace snaple::gas {

VertexId Shard::local_id(VertexId global) const {
  const auto it =
      std::lower_bound(vertices_.begin(), vertices_.end(), global);
  SNAPLE_CHECK_MSG(it != vertices_.end() && *it == global,
                   "vertex is not replicated on this shard");
  return static_cast<VertexId>(it - vertices_.begin());
}

void Shard::compress_local() {
  // Serial encode: this runs inside the per-machine build pass, and a
  // nested parallel_for on the same pool is rejected.
  out_comp_ = CompressedAdjacency::encode_serial(out_offsets_, out_targets_);
  in_comp_ = CompressedAdjacency::encode_serial(in_offsets_, in_sources_);
  out_offsets_ = {};
  out_targets_ = {};
  in_offsets_ = {};
  in_sources_ = {};
  compressed_ = true;
}

std::span<const VertexId> Shard::decode_row(const CompressedAdjacency& adj,
                                            int side, VertexId local) const {
  // Shard rows get their own per-thread scratch (distinct from
  // CompressedCsrGraph's) so a sharded step over a compressed graph can
  // interleave graph-row and shard-row decodes freely. One buffer per
  // side: the engine's kAll gather walks out- then in-rows of the same
  // vertex and both spans must stay valid across the switch.
  thread_local std::vector<VertexId> scratch[2];
  std::vector<VertexId>& buf = scratch[side];
  const std::size_t degree = adj.degree(local);
  if (buf.size() < degree) buf.resize(std::max<std::size_t>(degree, 256));
  adj.decode_row(local, buf.data());
  return {buf.data(), degree};
}

template <typename Graph>
ShardTopology ShardTopology::build_impl(const Graph& g, const Partitioning& p,
                                        ThreadPool* pool,
                                        bool compress_slices) {
  ThreadPool& tp = pool != nullptr ? *pool : default_pool();
  const std::size_t machines = p.num_machines();
  const std::size_t n = g.num_vertices();
  ShardTopology topo;
  topo.shards_.resize(machines);
  std::vector<Shard>& shards = topo.shards_;

  // Every pass walks the same fixed vertex blocks. A shard lists its
  // vertices in ascending global id and its edges in global CSR order,
  // so a block's items on machine m start where the earlier blocks' items
  // on m end: per-(block, machine) counts turn into write offsets by a
  // prefix sum, and the block size does not change the result.
  const std::size_t block =
      std::max<std::size_t>(1024, (n + 8 * tp.slot_count() - 1) /
                                      (8 * tp.slot_count()));
  const std::size_t blocks = (n + block - 1) / block;
  auto block_range = [&](std::size_t b) {
    return std::pair<VertexId, VertexId>(
        static_cast<VertexId>(b * block),
        static_cast<VertexId>(std::min(n, (b + 1) * block)));
  };
  struct Counts {
    EdgeIndex vertices = 0;
    EdgeIndex masters = 0;
    EdgeIndex edges = 0;
  };
  std::vector<Counts> at(blocks * machines);  // counts, then offsets
  // replica_base[u]: where u's local ids start in `local_of`, which holds
  // one entry per replica of u, ascending by machine — the local id of u
  // on machine m sits at its rank among u's replica machines.
  std::vector<EdgeIndex> replica_base(n);
  std::vector<EdgeIndex> block_replicas(blocks, 0);
  auto rank_of = [](const ReplicaSet& reps, MachineId m) {
    return static_cast<EdgeIndex>(
        __builtin_popcountll(reps.bits() & ((std::uint64_t{1} << m) - 1)));
  };

  // Pass 1: count vertices, masters and owned out-edges per block and
  // machine (a vertex masters on m only if it is replicated there).
  tp.parallel_for(0, blocks, [&](std::size_t b, std::size_t) {
    Counts* c = &at[b * machines];
    const auto [begin, end] = block_range(b);
    EdgeIndex replicas = 0;
    for (VertexId u = begin; u < end; ++u) {
      const ReplicaSet& reps = p.replicas(u);
      reps.for_each([&](MachineId m) { ++c[m].vertices; });
      if (reps.contains(p.master(u))) ++c[p.master(u)].masters;
      replicas += static_cast<EdgeIndex>(reps.count());
    }
    // The block's out-edges are one contiguous run of edge indices.
    const EdgeIndex last = end < n ? g.out_offset(end) : g.num_edges();
    for (EdgeIndex e = g.out_offset(begin); e < last; ++e) {
      ++c[p.edge_machine(e)].edges;
    }
    block_replicas[b] = replicas;
  }, /*grain=*/1);

  // Prefix sums over blocks, per machine, and shard array sizing.
  EdgeIndex replicas_total = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const EdgeIndex r = block_replicas[b];
    block_replicas[b] = replicas_total;
    replicas_total += r;
  }
  for (std::size_t m = 0; m < machines; ++m) {
    Counts total;
    for (std::size_t b = 0; b < blocks; ++b) {
      Counts& c = at[b * machines + m];
      const Counts here = c;
      c = total;
      total.vertices += here.vertices;
      total.masters += here.masters;
      total.edges += here.edges;
    }
    SNAPLE_DCHECK(total.edges == p.edges_per_machine()[m]);
    Shard& s = shards[m];
    s.machine_ = static_cast<MachineId>(m);
    s.vertices_.resize(total.vertices);
    s.is_master_.assign(total.vertices, 0);
    s.masters_.resize(total.masters);
    s.out_offsets_.assign(total.vertices + 1, 0);
    s.out_targets_.resize(total.edges);
  }
  std::vector<VertexId> local_of(replicas_total);

  // Pass 2: scatter each block's vertices and masters into its slots,
  // recording every replica's local id.
  tp.parallel_for(0, blocks, [&](std::size_t b, std::size_t) {
    std::array<EdgeIndex, 64> vertex_at{};
    std::array<EdgeIndex, 64> master_at{};
    for (std::size_t m = 0; m < machines; ++m) {
      vertex_at[m] = at[b * machines + m].vertices;
      master_at[m] = at[b * machines + m].masters;
    }
    const auto [begin, end] = block_range(b);
    EdgeIndex next = block_replicas[b];
    for (VertexId u = begin; u < end; ++u) {
      replica_base[u] = next;
      const MachineId master = p.master(u);
      p.replicas(u).for_each([&](MachineId m) {
        Shard& s = shards[m];
        const auto l = static_cast<VertexId>(vertex_at[m]++);
        s.vertices_[l] = u;
        local_of[next++] = l;
        if (m == master) {
          s.is_master_[l] = 1;
          s.masters_[master_at[m]++] = l;
        }
      });
    }
  }, /*grain=*/1);

  // Pass 3: scatter each block's out-edges into the owning shards' local
  // out-CSRs, targets as local ids, and close every local row.
  tp.parallel_for(0, blocks, [&](std::size_t b, std::size_t) {
    std::array<EdgeIndex, 64> edge_at{};
    for (std::size_t m = 0; m < machines; ++m) {
      edge_at[m] = at[b * machines + m].edges;
    }
    const auto [begin, end] = block_range(b);
    for (VertexId u = begin; u < end; ++u) {
      const EdgeIndex base = g.out_offset(u);
      const auto nbrs = g.out_neighbors(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const MachineId m = p.edge_machine(base + i);
        const VertexId v = nbrs[i];
        shards[m].out_targets_[edge_at[m]++] =
            local_of[replica_base[v] + rank_of(p.replicas(v), m)];
      }
      EdgeIndex at_replica = replica_base[u];
      p.replicas(u).for_each([&](MachineId m) {
        shards[m].out_offsets_[local_of[at_replica++] + 1] = edge_at[m];
      });
    }
  }, /*grain=*/1);

  // Pass 4, one task per machine: the local in-CSR, the sync fan-out and
  // the optional slice compression.
  tp.parallel_for(0, machines, [&](std::size_t mi, std::size_t) {
    const auto m = static_cast<MachineId>(mi);
    Shard& s = shards[mi];
    const std::size_t n_local = s.vertices_.size();
    s.sync_fanout_.assign(machines, 0);
    for (const VertexId l : s.masters_) {
      p.replicas(s.vertices_[l]).for_each([&](MachineId r) {
        if (r != m) ++s.sync_fanout_[r];
      });
    }

    // Local in-CSR by scattering the out slice: walking local sources in
    // ascending order appends each target's in-sources in ascending
    // global source order — the same order CsrGraph::in_neighbors yields
    // after filtering to this machine's edges.
    s.in_offsets_.assign(n_local + 1, 0);
    for (const VertexId t : s.out_targets_) ++s.in_offsets_[t + 1];
    for (std::size_t l = 1; l <= n_local; ++l) {
      s.in_offsets_[l] += s.in_offsets_[l - 1];
    }
    s.in_sources_.resize(s.out_targets_.size());
    std::vector<EdgeIndex> cursor(s.in_offsets_.begin(),
                                  s.in_offsets_.end() - 1);
    for (VertexId l = 0; l < n_local; ++l) {
      for (const VertexId t : s.out_neighbors(l)) {
        s.in_sources_[cursor[t]++] = l;
      }
    }

    // Local rows are ascending (local id order mirrors global order), so
    // they delta-compress exactly like global rows do.
    if (compress_slices) s.compress_local();
  });

  return topo;
}

ShardTopology ShardTopology::build(const CsrGraph& g, const Partitioning& p,
                                   ThreadPool* pool, bool compress_slices) {
  return build_impl(g, p, pool, compress_slices);
}

ShardTopology ShardTopology::build(const CompressedCsrGraph& g,
                                   const Partitioning& p, ThreadPool* pool,
                                   bool compress_slices) {
  return build_impl(g, p, pool, compress_slices);
}

}  // namespace snaple::gas
