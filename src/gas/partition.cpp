#include "gas/partition.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "graph/compressed_csr.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace snaple::gas {

namespace {

MachineId least_loaded(const std::vector<EdgeIndex>& load,
                       std::uint64_t candidates) {
  MachineId best = 0;
  EdgeIndex best_load = std::numeric_limits<EdgeIndex>::max();
  std::uint64_t rest = candidates;
  while (rest != 0) {
    const int m = __builtin_ctzll(rest);
    rest &= rest - 1;
    if (load[m] < best_load) {
      best_load = load[m];
      best = static_cast<MachineId>(m);
    }
  }
  return best;
}

}  // namespace

std::vector<VertexRange> split_weighted_ranges(
    std::span<const std::uint64_t> prefix_weight, std::size_t parts) {
  SNAPLE_CHECK_MSG(!prefix_weight.empty() && prefix_weight.front() == 0,
                   "prefix weights must start at 0 (size n+1)");
  SNAPLE_CHECK_MSG(parts >= 1, "need at least one range");
  const auto n = static_cast<VertexId>(prefix_weight.size() - 1);
  SNAPLE_CHECK_MSG(std::is_sorted(prefix_weight.begin(), prefix_weight.end()),
                   "prefix weights must be monotone");
  const std::uint64_t total = prefix_weight.back();

  std::vector<VertexRange> ranges(parts);
  VertexId cursor = 0;
  for (std::size_t i = 0; i < parts; ++i) {
    ranges[i].begin = cursor;
    if (i + 1 == parts) {
      cursor = n;
    } else {
      // Ideal boundary i+1 sits at weight total·(i+1)/parts; take the
      // vertex boundary whose prefix weight is closest (ties cut low,
      // via lower_bound), clamped so ranges stay sorted.
      const std::uint64_t target = static_cast<std::uint64_t>(
          (static_cast<__uint128_t>(total) * (i + 1)) / parts);
      auto it = std::lower_bound(prefix_weight.begin(), prefix_weight.end(),
                                 target);
      if (it != prefix_weight.begin() &&
          (it == prefix_weight.end() ||
           *it - target > target - *(it - 1))) {
        --it;
      }
      auto at = static_cast<VertexId>(it - prefix_weight.begin());
      cursor = std::clamp(at, cursor, n);
    }
    ranges[i].end = cursor;
  }
  return ranges;
}

std::size_t range_owner(std::span<const VertexRange> ranges, VertexId u) {
  SNAPLE_CHECK_MSG(!ranges.empty() && u < ranges.back().end,
                   "vertex outside every range");
  // First range whose end exceeds u; empty ranges have end <= u and are
  // skipped naturally.
  const auto it = std::upper_bound(
      ranges.begin(), ranges.end(), u,
      [](VertexId key, const VertexRange& r) { return key < r.end; });
  return static_cast<std::size_t>(it - ranges.begin());
}

MachineId edge_local_machine(VertexId u, VertexId v, std::size_t machines,
                             std::uint64_t seed) noexcept {
  // Keyed by the endpoint pair alone (plus a constant that decorrelates
  // it from the step-1 truncation hash, which keys the same way on the
  // run seed). Modulo bias at machines <= 64 is negligible, and the
  // rule's value is determinism, not perfect uniformity.
  SplitMix64 sm(seed ^ 0xed6e'10ca'1b1a'5edbULL ^
                ((static_cast<std::uint64_t>(u) << 32) | v));
  return static_cast<MachineId>(sm.next() % machines);
}

/// The shared epilogue: derives replica sets, owner masks, loads and
/// masters from the complete per-edge assignment, in two parallel passes
/// over vertex blocks. Graph is CsrGraph or CompressedCsrGraph (identical
/// rows and edge indices, so the result cannot differ).
///
///  1. Scatter: every out-edge (u, v) on machine m bumps in_tally[v][m]
///     (relaxed atomics — many u share a v) and its block's machine load.
///  2. Gather, per vertex u: out-tallies from u's own slice of the
///     assignment, in-tallies from pass 1. The owner masks are the
///     machines with a nonzero tally on each side, the replica set is
///     their union, and the master is the replica holding the most of u's
///     edges, ties to the lowest machine id. Isolated vertices get hash
///     placement.
///
/// Every output is a pure function of the assignment, so the result is
/// identical for any pool size. The transient in_tally holds `machines`
/// counters per vertex.
template <typename Graph>
void Partitioning::finalize(const Graph& g, std::uint64_t seed,
                            ThreadPool* pool_or_null) {
  ThreadPool& pool = pool_or_null != nullptr ? *pool_or_null : default_pool();
  const VertexId n = g.num_vertices();
  const std::size_t machines = machines_;
  constexpr std::size_t kMinBlock = 1024;
  master_.assign(n, 0);
  replicas_.assign(n, ReplicaSet{});
  out_owner_mask_.assign(n, 0);
  in_owner_mask_.assign(n, 0);
  edge_load_.assign(machines, 0);

  std::vector<std::uint32_t> in_tally(std::size_t{n} * machines, 0);
  std::vector<EdgeIndex> slot_load(pool.slot_count() * machines, 0);
  pool.parallel_blocks(
      0, n,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        EdgeIndex* load = slot_load.data() + worker * machines;
        for (std::size_t u = begin; u < end; ++u) {
          EdgeIndex e = g.out_offset(static_cast<VertexId>(u));
          for (const VertexId v : g.out_neighbors(static_cast<VertexId>(u))) {
            const MachineId m = edge_machine_[e++];
            SNAPLE_DCHECK(m < machines);
            ++load[m];
            std::atomic_ref<std::uint32_t>(
                in_tally[std::size_t{v} * machines + m])
                .fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      kMinBlock);
  for (std::size_t w = 0; w < pool.slot_count(); ++w) {
    for (std::size_t m = 0; m < machines; ++m) {
      edge_load_[m] += slot_load[w * machines + m];
    }
  }

  pool.parallel_blocks(
      0, n,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        EdgeIndex tally[64];
        for (std::size_t u = begin; u < end; ++u) {
          std::fill(tally, tally + machines, 0);
          std::uint64_t out_mask = 0;
          const EdgeIndex first = g.out_offset(static_cast<VertexId>(u));
          const EdgeIndex last =
              first + g.out_degree(static_cast<VertexId>(u));
          for (EdgeIndex e = first; e < last; ++e) {
            ++tally[edge_machine_[e]];
            out_mask |= std::uint64_t{1} << edge_machine_[e];
          }
          std::uint64_t in_mask = 0;
          const std::uint32_t* in = in_tally.data() + u * machines;
          for (std::size_t m = 0; m < machines; ++m) {
            if (in[m] == 0) continue;
            in_mask |= std::uint64_t{1} << m;
            tally[m] += in[m];
          }
          out_owner_mask_[u] = out_mask;
          in_owner_mask_[u] = in_mask;
          const std::uint64_t hosts = out_mask | in_mask;
          if (hosts == 0) {
            const auto m = static_cast<MachineId>(
                SplitMix64(seed ^ u).next() % machines);
            replicas_[u].add(m);
            master_[u] = m;
            continue;
          }
          MachineId best = 0;
          EdgeIndex best_count = 0;
          for (std::uint64_t rest = hosts; rest != 0; rest &= rest - 1) {
            const auto m = static_cast<MachineId>(__builtin_ctzll(rest));
            replicas_[u].add(m);
            if (tally[m] > best_count) {
              best_count = tally[m];
              best = m;
            }
          }
          master_[u] = best;
        }
      },
      kMinBlock);
}

template <typename Graph>
Partitioning Partitioning::from_edges_impl(
    const Graph& g, std::size_t machines,
    std::vector<MachineId> edge_machine, ThreadPool* pool) {
  SNAPLE_CHECK_MSG(machines >= 1 && machines <= 64,
                   "vertex-cut replica sets are 64-bit masks");
  SNAPLE_CHECK_MSG(edge_machine.size() == g.num_edges(),
                   "need one machine per CSR edge");
  // Validate the whole assignment up front with a pinpointing error:
  // an out-of-range id must never reach the replica/load bookkeeping
  // (ReplicaSet masks are 64-bit and edge_load_ has `machines` slots).
  for (EdgeIndex e = 0; e < edge_machine.size(); ++e) {
    SNAPLE_CHECK_MSG(edge_machine[e] < machines,
                     "edge_machine[" + std::to_string(e) + "] = " +
                         std::to_string(edge_machine[e]) +
                         " but the partitioning has only " +
                         std::to_string(machines) + " machines");
  }
  Partitioning p;
  p.machines_ = machines;
  p.edge_machine_ = std::move(edge_machine);
  p.finalize(g, /*seed=*/7, pool);
  return p;
}

template <typename Graph>
Partitioning Partitioning::create_impl(const Graph& g, std::size_t machines,
                                       PartitionStrategy strategy,
                                       std::uint64_t seed,
                                       ThreadPool* pool) {
  SNAPLE_CHECK_MSG(machines >= 1 && machines <= 64,
                   "vertex-cut replica sets are 64-bit masks");
  Partitioning p;
  p.machines_ = machines;
  p.edge_machine_.resize(g.num_edges());
  p.replicas_.assign(g.num_vertices(), ReplicaSet{});
  p.edge_load_.assign(machines, 0);

  Rng rng(seed);
  const std::uint64_t all_mask =
      machines == 64 ? ~std::uint64_t{0}
                     : ((std::uint64_t{1} << machines) - 1);

  EdgeIndex e = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.out_neighbors(u)) {
      MachineId m;
      if (strategy == PartitionStrategy::kEdgeLocal) {
        m = edge_local_machine(u, v, machines, seed);
      } else if (strategy == PartitionStrategy::kHash || machines == 1) {
        m = static_cast<MachineId>(rng.next_below(machines));
      } else {
        // Oblivious greedy (PowerGraph): intersection of the endpoints'
        // replica sets first, then their union, then global least-loaded.
        const std::uint64_t au = p.replicas_[u].bits();
        const std::uint64_t av = p.replicas_[v].bits();
        std::uint64_t candidates = au & av;
        if (candidates == 0) candidates = au | av;
        if (candidates == 0) candidates = all_mask;
        m = least_loaded(p.edge_load_, candidates);
        // Balance guard: pure locality preference can snowball the whole
        // graph onto one machine (each new vertex inherits its anchor's
        // placement). If the locality pick is clearly overloaded, spill
        // to the global least-loaded machine, as PowerGraph's balanced
        // greedy does.
        const EdgeIndex average = e / machines + 1;
        if (p.edge_load_[m] > 2 * average + 8) {
          m = least_loaded(p.edge_load_, all_mask);
        }
      }
      p.edge_machine_[e] = m;
      ++p.edge_load_[m];
      p.replicas_[u].add(m);
      p.replicas_[v].add(m);
      ++e;
    }
  }

  // The incremental replica/load bookkeeping above only served the
  // greedy placement decisions; the shared epilogue rebuilds them and
  // derives the masters.
  p.finalize(g, seed, pool);
  return p;
}

Partitioning Partitioning::from_edge_assignment(
    const CsrGraph& g, std::size_t machines,
    std::vector<MachineId> edge_machine, ThreadPool* pool) {
  return from_edges_impl(g, machines, std::move(edge_machine), pool);
}

Partitioning Partitioning::from_edge_assignment(
    const CompressedCsrGraph& g, std::size_t machines,
    std::vector<MachineId> edge_machine, ThreadPool* pool) {
  return from_edges_impl(g, machines, std::move(edge_machine), pool);
}

Partitioning Partitioning::create(const CsrGraph& g, std::size_t machines,
                                  PartitionStrategy strategy,
                                  std::uint64_t seed, ThreadPool* pool) {
  return create_impl(g, machines, strategy, seed, pool);
}

Partitioning Partitioning::create(const CompressedCsrGraph& g,
                                  std::size_t machines,
                                  PartitionStrategy strategy,
                                  std::uint64_t seed, ThreadPool* pool) {
  return create_impl(g, machines, strategy, seed, pool);
}

double Partitioning::replication_factor() const {
  if (replicas_.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& r : replicas_) total += r.count();
  return static_cast<double>(total) / static_cast<double>(replicas_.size());
}

}  // namespace snaple::gas
