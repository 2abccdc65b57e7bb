// Synchronous Gather-Apply-Scatter engine over a simulated cluster.
//
// Programming model (following the paper's §2.3 / PowerGraph):
//   * every vertex u has mutable data Du (template parameter VD);
//   * a superstep gathers over u's adjacent edges, folding contributions
//     into an accumulator with a commutative-associative sum, then applies
//     the accumulated value to Du.
// We fuse the user's gather() and sum() into one callback that folds
// directly into the accumulator — semantically identical (the fold of the
// mapped values) and it avoids a temporary per edge:
//
//   GatherSumFn: (VertexId u, VertexId v, const VD& du, const VD& dv,
//                 Acc& acc) -> std::size_t
//     Folds the contribution of edge (u,v) into acc; returns the *wire
//     size in bytes* of that contribution (0 = no contribution; the
//     accumulator must be left untouched in that case). The fold must be
//     commutative and associative across a vertex's edges.
//   MergeFn: (Acc& into, std::span<E> from) -> void
//     Folds another partial of the same vertex into `into` — PowerGraph's
//     sum() — used when a vertex's edges live on several machines. `from`
//     is that partial as an element run (E is PartialRun<Acc>::Elem,
//     possibly const; exchange.hpp): a received outbox record in sharded
//     mode, a view of the local partial in flat mode. The merge may move
//     from the elements. The default merge calls Acc::merge(Acc&&) on a
//     value accumulator's single element, or appends a container's
//     elements.
//   ApplyFn: (VertexId u, VD& du, Acc& acc, std::size_t contributions)
//
// The scatter phase is omitted: the paper's Algorithm 2 "do[es] not use
// any scatter phase" (§4), and neither does the BASELINE; per-edge state
// is unused by every program in this repository.
//
// Two execution modes (docs/ARCHITECTURE.md §Sharded execution):
//
//   kFlat — one global CSR and one global VD array; distribution is
//     accounted: each contribution is charged to the machine owning its
//     edge, partial sums crossing to the master and master->mirror syncs
//     are tallied as network traffic, and the per-machine memory audit is
//     computed from the partitioning.
//
//   kSharded — each machine truly owns its slice: a per-machine Shard
//     (local CSR + global→local remap, shard.hpp) and a replica-local VD
//     array. A superstep runs one task per shard on the ThreadPool in
//     three barrier-separated phases: (A) gather over shard-local edges
//     into shard-local accumulators, appending mirror→master partial-sum
//     runs to flat MessageBuffers; (B) masters drain the buffers, merge
//     partials in ascending machine order, apply, and build master→mirror
//     vertex-data sync buffers; (C) mirrors drain the syncs into their
//     replica arrays. net_bytes/messages are *measured* from the buffers that
//     were actually built (exchange.hpp), not tallied.
//
// Both modes fold a vertex's edges grouped by owning machine (CSR order
// within a machine, machines merged ascending), so their results are
// bit-identical — a property test pins this for every program in the
// repository — and both produce identical accounting. Per-machine work,
// bytes, accumulator memory and replicated vertex-data memory feed a
// configured memory budget that turns into a ResourceExhausted throw —
// the mechanism behind the paper's "BASELINE fails by exhausting the
// available memory" (§5.3).
//
// Synchronous semantics: within a superstep every gather observes the
// vertex data from *before* the step. The default two_phase mode enforces
// this in kFlat by materializing all accumulators before any apply runs
// (this is also what makes the sync engine memory-hungry, faithfully).
// Programs whose apply only writes fields no gather of the same step
// reads can opt into fused mode (gather+apply per vertex in one pass) —
// all programs in this repository qualify and say so explicitly. In
// kSharded the phase barriers make every step strictly synchronous, so
// the two apply modes coincide there.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gas/byte_size.hpp"
#include "gas/cluster.hpp"
#include "gas/exchange.hpp"
#include "gas/network_model.hpp"
#include "gas/partition.hpp"
#include "gas/shard.hpp"
#include "graph/csr_graph.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace snaple::gas {

enum class EdgeDir { kOut, kIn, kAll };

enum class ApplyMode {
  /// Materialize every accumulator, then apply — strict sync semantics.
  kTwoPhase,
  /// Apply immediately after each vertex's gather. Only valid when apply
  /// does not mutate state that other vertices' gathers read this step.
  kFused,
};

enum class ExecutionMode {
  /// One address space; distribution accounted through the partitioning.
  kFlat,
  /// Per-machine shards with replica-local data and explicit exchange.
  kSharded,
};

struct StepOptions {
  std::string name = "step";
  EdgeDir dir = EdgeDir::kOut;
  ApplyMode mode = ApplyMode::kTwoPhase;
  /// parallel_for grain for the flat gather/apply passes. 0 auto-derives
  /// from the graph's mean degree (edges / vertices) so a chunk carries
  /// ~4K gathered edges regardless of how skewed the degree histogram is.
  std::size_t grain = 0;
};

struct StepStats {
  std::string name;
  double wall_s = 0.0;             // measured on the host
  SimTimeBreakdown sim;            // simulated cluster time
  std::size_t net_bytes = 0;       // total bytes crossing machines
  std::size_t messages = 0;        // partial-sum + sync messages
  std::size_t gather_calls = 0;    // edges visited
  std::size_t contributions = 0;   // edges that contributed
  std::size_t accumulator_bytes_peak = 0;  // max machine accumulator memory
  std::size_t vertex_data_bytes_peak = 0;  // max machine replicated VD
  /// Sharded mode only: where the superstep's wall time went.
  ExchangeBreakdown exchange;
};

struct EngineReport {
  std::vector<StepStats> steps;

  [[nodiscard]] double total_wall_s() const {
    double t = 0.0;
    for (const auto& s : steps) t += s.wall_s;
    return t;
  }
  [[nodiscard]] double total_sim_s() const {
    double t = 0.0;
    for (const auto& s : steps) t += s.sim.total();
    return t;
  }
  [[nodiscard]] std::size_t total_net_bytes() const {
    std::size_t b = 0;
    for (const auto& s : steps) b += s.net_bytes;
    return b;
  }
};

namespace detail {

template <typename>
inline constexpr bool kAlwaysFalse = false;

/// Default partial-accumulator merge over a PartialRun: Acc::merge(Acc&&)
/// on a value accumulator's single element, container append for
/// vector-like accumulators. Programs whose merge needs runtime state
/// (e.g. a configurable ⊕pre) pass an explicit merge callable to step()
/// instead.
struct DefaultAccMerge {
  template <typename Acc, typename E>
  void operator()(Acc& into, std::span<E> from) const {
    if constexpr (requires { into.merge(std::move(from.front())); }) {
      SNAPLE_DCHECK(from.size() == 1);
      into.merge(std::move(from.front()));
    } else if constexpr (requires {
                           into.insert(into.end(),
                                       std::make_move_iterator(from.begin()),
                                       std::make_move_iterator(from.end()));
                         }) {
      into.insert(into.end(), std::make_move_iterator(from.begin()),
                  std::make_move_iterator(from.end()));
    } else {
      static_assert(kAlwaysFalse<Acc>,
                    "Acc needs a merge(Acc&&) member (or be a container); "
                    "alternatively pass a merge callable to Engine::step");
    }
  }
};

}  // namespace detail

/// `Graph` is any CSR-shaped adjacency the engine can gather over:
/// CsrGraph (the default) or CompressedCsrGraph, whose row accessors
/// decode into per-thread scratch. The engine only ever consumes
/// num_vertices/num_edges, out_neighbors/out_offset, in_neighbors and
/// edge_index(v, u) — all exact and identically ordered across the two
/// representations, which is what makes compressed execution
/// bit-identical to flat (scores and accounting alike).
template <typename VD, typename Graph = CsrGraph>
class Engine {
 public:
  /// `vd_size` reports the wire/storage size of a vertex datum; it prices
  /// both mirror synchronization and the per-machine memory audit.
  /// `topology` optionally injects a pre-built shard layout for sharded
  /// execution (it must have been built from the same graph and
  /// partitioning) — shard construction is placement preprocessing, so
  /// callers running several jobs on one partitioning build it once,
  /// exactly like reusing a Partitioning across predictions. When null,
  /// the first sharded step builds it.
  Engine(const Graph& graph, const Partitioning& partitioning,
         ClusterConfig cluster,
         std::function<std::size_t(const VD&)> vd_size,
         ThreadPool* pool = nullptr,
         ExecutionMode exec = ExecutionMode::kFlat,
         std::shared_ptr<const ShardTopology> topology = nullptr)
      : graph_(graph),
        part_(partitioning),
        cluster_(std::move(cluster)),
        vd_size_(std::move(vd_size)),
        pool_(pool != nullptr ? pool : &default_pool()),
        exec_(exec),
        data_(graph.num_vertices()),
        topo_(std::move(topology)) {
    SNAPLE_CHECK(part_.num_machines() == cluster_.num_machines);
    SNAPLE_CHECK(vd_size_ != nullptr);
    SNAPLE_CHECK_MSG(topo_ == nullptr ||
                         topo_->num_machines() == part_.num_machines(),
                     "injected topology was built for another partitioning");
  }

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const Partitioning& partitioning() const noexcept {
    return part_;
  }
  [[nodiscard]] const ClusterConfig& cluster() const noexcept {
    return cluster_;
  }
  [[nodiscard]] ExecutionMode execution_mode() const noexcept {
    return exec_;
  }
  [[nodiscard]] const EngineReport& report() const noexcept { return report_; }

  /// The canonical host-side view of all vertex data. In flat mode this
  /// is the single array the engine computes on. In sharded mode the
  /// truth lives in the per-shard replica arrays; this accessor lazily
  /// collects the masters' values back (and the mutable overload marks
  /// the shards stale so the next step re-scatters) — a host-side
  /// convenience for initialization and result extraction, not machine
  /// memory (the audit counts only the replica arrays).
  [[nodiscard]] std::vector<VD>& data() {
    sync_host_from_shards();
    shards_fresh_ = false;
    host_written_ = true;
    return data_;
  }
  [[nodiscard]] const std::vector<VD>& data() const {
    const_cast<Engine*>(this)->sync_host_from_shards();
    return data_;
  }

  /// Shard layout (built on first use; usable in either mode for
  /// inspection). Sharded steps build it implicitly.
  [[nodiscard]] const ShardTopology& topology() {
    ensure_topology();
    return *topo_;
  }

  /// Visits every vertex's authoritative datum in place — the master
  /// replica in sharded mode, the host array in flat mode — without the
  /// full host-array collection data() performs. fn(u, VD&) runs once
  /// per vertex, in unspecified order. Intended for end-of-run result
  /// extraction (fn may move fields out); in sharded mode, running
  /// further steps after mutating data through the visitor is
  /// unsupported — mirrors would not see the mutation until the next
  /// sync. Use data() for read-modify-continue workflows.
  template <typename Fn>
  void visit_vertices(Fn&& fn) {
    if (exec_ == ExecutionMode::kFlat || replica_.empty()) {
      for (VertexId u = 0; u < graph_.num_vertices(); ++u) {
        fn(u, data_[u]);
      }
      return;
    }
    for (std::size_t m = 0; m < replica_.size(); ++m) {
      const Shard& sh = topo_->shard(m);
      for (const VertexId l : sh.masters()) {
        fn(sh.global_id(l), replica_[m][l]);
      }
    }
    host_fresh_ = false;  // fn may have mutated the authoritative copies
  }

  /// Runs one synchronous GAS superstep with the default accumulator
  /// merge (Acc::merge or container append). Acc must be
  /// default-constructible, movable, and clear() must restore a usable
  /// empty state (also after being moved from); one instance per worker
  /// is reused across vertices. Returns the step's stats (also appended
  /// to report()).
  template <typename Acc, typename GatherSumFn, typename ApplyFn>
  StepStats step(const StepOptions& opt, GatherSumFn&& gather_sum,
                 ApplyFn&& apply) {
    return step<Acc>(opt, std::forward<GatherSumFn>(gather_sum),
                     detail::DefaultAccMerge{},
                     std::forward<ApplyFn>(apply));
  }

  /// As above with an explicit partial-accumulator merge (PowerGraph's
  /// sum()): merge(Acc& into, std::span<E> from) folds another partial's
  /// element run into `into` (see the header comment). Partials are
  /// always merged in ascending machine-id order, identically in both
  /// execution modes.
  template <typename Acc, typename GatherSumFn, typename MergeFn,
            typename ApplyFn>
  StepStats step(const StepOptions& opt, GatherSumFn&& gather_sum,
                 MergeFn&& merge, ApplyFn&& apply) {
    if (exec_ == ExecutionMode::kSharded) {
      return step_sharded<Acc>(opt, gather_sum, merge, apply);
    }
    return step_flat<Acc>(opt, gather_sum, merge, apply);
  }

 private:
  static constexpr std::size_t kAccumulatorHeaderBytes = 16;

  // ------------------------------------------------------------------
  // Flat execution: global arrays, accounted distribution.
  // ------------------------------------------------------------------
  template <typename Acc, typename GatherSumFn, typename MergeFn,
            typename ApplyFn>
  StepStats step_flat(const StepOptions& opt, GatherSumFn& gather_sum,
                      MergeFn& merge, ApplyFn& apply) {
    const VertexId n = graph_.num_vertices();
    const std::size_t machines = part_.num_machines();
    const std::size_t slots = pool_->slot_count();
    const std::size_t grain = resolve_grain(opt);
    using Run = PartialRun<Acc>;

    struct WorkerState {
      Acc acc{};
      // One partial accumulator per machine, reused across vertices
      // (cleared after each merge). Sized from the partitioning, not a
      // fixed cap: the only machine limit left is ReplicaSet's 64-bit
      // mask, asserted where Partitioning is constructed.
      std::vector<Acc> partials;
      std::vector<std::size_t> partial_bytes;
      std::vector<MachineId> touched;
      std::vector<MachineLoad> loads;
      std::vector<std::size_t> acc_bytes;  // accumulator memory per machine
      std::size_t net_bytes = 0;
      std::size_t messages = 0;
      std::size_t gather_calls = 0;
      std::size_t contributions = 0;
    };
    std::vector<WorkerState> workers(slots);
    for (auto& w : workers) {
      w.partials.resize(machines);
      w.partial_bytes.assign(machines, 0);
      w.loads.resize(machines);
      w.acc_bytes.assign(machines, 0);
      w.touched.reserve(machines);
    }

    // The sync engine keeps every master's accumulator alive through the
    // gather/exchange phase, so accumulator memory is charged for the
    // whole step. This cluster-wide running total triggers an early abort
    // as soon as the budget is certainly exceeded somewhere (by
    // pigeonhole: total > machines × budget ⇒ some machine is over); the
    // precise per-machine audit below still runs for steps that finish.
    std::atomic<std::size_t> live_acc_bytes{0};
    const std::size_t cluster_budget =
        cluster_.machine.memory_bytes > 0
            ? cluster_.machine.memory_bytes * machines
            : 0;

    // Gathers the edges of u into per-machine partials, merges them into
    // ws.acc (ascending machine id), and accounts traffic and memory.
    // Returns the contribution count.
    auto gather_vertex = [&](VertexId u, WorkerState& ws) -> std::size_t {
      const VD& du = data_[u];
      const MachineId master = part_.master(u);
      std::size_t contribs = 0;
      std::size_t total_bytes = 0;

      auto fold_edge = [&](VertexId v, EdgeIndex e) {
        ++ws.gather_calls;
        const MachineId m = part_.edge_machine(e);
        const std::size_t bytes =
            gather_sum(u, v, du, data_[v], ws.partials[m]);
        if (bytes == 0) return;
        ++contribs;
        total_bytes += bytes;
        ws.loads[m].work_units += 1.0 + static_cast<double>(bytes) / 16.0;
        if (ws.partial_bytes[m] == 0) ws.touched.push_back(m);
        ws.partial_bytes[m] += bytes;
      };

      if (opt.dir == EdgeDir::kOut || opt.dir == EdgeDir::kAll) {
        const EdgeIndex base = graph_.out_offset(u);
        const auto nbrs = graph_.out_neighbors(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          fold_edge(nbrs[i], base + i);
        }
      }
      if (opt.dir == EdgeDir::kIn || opt.dir == EdgeDir::kAll) {
        for (VertexId v : graph_.in_neighbors(u)) {
          fold_edge(v, graph_.edge_index(v, u));
        }
      }

      // Ship partial sums from mirror machines to the master, and merge
      // all partials in ascending machine order — the canonical fold the
      // sharded exchange reproduces with real buffers.
      std::sort(ws.touched.begin(), ws.touched.end());
      ws.acc.clear();
      bool first = true;
      for (const MachineId m : ws.touched) {
        if (m != master) {
          const std::size_t b = ws.partial_bytes[m] + kMessageHeaderBytes;
          ws.net_bytes += b;
          ws.messages += 1;
          ws.loads[m].bytes_out += b;
          ws.loads[master].bytes_in += b;
        }
        if (first) {
          std::swap(ws.acc, ws.partials[m]);
          first = false;
        } else {
          merge(ws.acc, Run::view(ws.partials[m]));
        }
        ws.partials[m].clear();
        ws.partial_bytes[m] = 0;
      }
      ws.touched.clear();

      // Audit accumulator memory on the master machine (empty
      // accumulators are free — no contribution, no state to keep).
      if (total_bytes > 0) {
        ws.acc_bytes[master] += total_bytes + kAccumulatorHeaderBytes;
      }
      ws.contributions += contribs;
      if (cluster_budget > 0 && total_bytes > 0) {
        const std::size_t now = live_acc_bytes.fetch_add(
                                    total_bytes, std::memory_order_relaxed) +
                                total_bytes;
        if (now > cluster_budget) {
          throw ResourceExhausted(
              "gather accumulators reached " + std::to_string(now) +
              " bytes in step '" + opt.name + "', exceeding the cluster's " +
              std::to_string(cluster_budget) + "-byte budget");
        }
      }
      return contribs;
    };

    // Applies du and accounts the master->mirror synchronization.
    auto apply_vertex = [&](VertexId u, WorkerState& ws, Acc& acc,
                            std::size_t contribs) {
      VD& du = data_[u];
      apply(u, du, acc, contribs);
      const MachineId master = part_.master(u);
      const int mirrors = part_.replicas(u).count() - 1;
      ws.loads[master].work_units +=
          1.0 + static_cast<double>(contribs) * 0.25;
      if (mirrors > 0) {
        const std::size_t sz = vd_size_(du) + kMessageHeaderBytes;
        const std::size_t total = sz * static_cast<std::size_t>(mirrors);
        ws.net_bytes += total;
        ws.messages += static_cast<std::size_t>(mirrors);
        ws.loads[master].bytes_out += total;
        part_.replicas(u).for_each([&](MachineId m) {
          if (m != master) ws.loads[m].bytes_in += sz;
        });
      }
    };

    WallTimer timer;
    if (opt.mode == ApplyMode::kFused) {
      pool_->parallel_for(
          0, n,
          [&](std::size_t i, std::size_t slot) {
            auto& ws = workers[slot];
            const auto u = static_cast<VertexId>(i);
            const std::size_t contribs = gather_vertex(u, ws);
            apply_vertex(u, ws, ws.acc, contribs);
          },
          grain);
    } else {
      // Strict sync semantics: all accumulators exist before any apply.
      std::vector<Acc> accs(n);
      std::vector<std::uint32_t> contrib_counts(n);
      pool_->parallel_for(
          0, n,
          [&](std::size_t i, std::size_t slot) {
            auto& ws = workers[slot];
            const auto u = static_cast<VertexId>(i);
            contrib_counts[u] =
                static_cast<std::uint32_t>(gather_vertex(u, ws));
            std::swap(ws.acc, accs[u]);  // park the merged accumulator
          },
          grain);
      pool_->parallel_for(
          0, n,
          [&](std::size_t i, std::size_t slot) {
            auto& ws = workers[slot];
            const auto u = static_cast<VertexId>(i);
            apply_vertex(u, ws, accs[u], contrib_counts[u]);
          },
          grain);
    }
    const double wall = timer.seconds();

    // Merge worker tallies.
    StepStats stats;
    stats.name = opt.name;
    stats.wall_s = wall;
    std::vector<MachineLoad> loads(machines);
    std::vector<std::size_t> acc_bytes(machines, 0);
    for (const auto& w : workers) {
      stats.net_bytes += w.net_bytes;
      stats.messages += w.messages;
      stats.gather_calls += w.gather_calls;
      stats.contributions += w.contributions;
      for (std::size_t m = 0; m < machines; ++m) {
        loads[m].work_units += w.loads[m].work_units;
        loads[m].bytes_in += w.loads[m].bytes_in;
        loads[m].bytes_out += w.loads[m].bytes_out;
        acc_bytes[m] += w.acc_bytes[m];
      }
    }

    std::vector<std::size_t> vd_bytes(machines, 0);
    audit_vertex_data_flat(vd_bytes);
    finalize_stats(stats, opt, loads, acc_bytes, vd_bytes,
                   wall * static_cast<double>(slots));
    return stats;
  }

  // ------------------------------------------------------------------
  // Sharded execution: one task per shard, explicit message exchange.
  // ------------------------------------------------------------------
  template <typename Acc, typename GatherSumFn, typename MergeFn,
            typename ApplyFn>
  StepStats step_sharded(const StepOptions& opt, GatherSumFn& gather_sum,
                         MergeFn& merge, ApplyFn& apply) {
    ensure_shards_fresh();
    const std::size_t machines = part_.num_machines();
    const ShardTopology& topo = *topo_;
    using Run = PartialRun<Acc>;

    struct ShardScratch {
      // Partial accumulators for *deferred* masters (those that may
      // receive remote partial sums), indexed by deferred rank and held
      // across the exchange barrier — the sync engine's memory appetite,
      // now physically per machine. Masters whose edges (for this step's
      // direction) all live locally take the fast path instead: in fused
      // mode they are merged and applied inline during phase A with a
      // reusable scratch accumulator, exactly like the flat engine.
      std::vector<Acc> own_partial;
      std::vector<std::uint32_t> own_bytes;
      std::vector<std::uint32_t> own_contribs;
      std::vector<MachineLoad> loads;
      std::size_t acc_bytes = 0;
      std::size_t vd_bytes = 0;  // masters' post-apply vertex data
      std::size_t gather_calls = 0;
      std::size_t contributions = 0;
    };

    StepStats stats;
    stats.name = opt.name;
    std::vector<MachineLoad> loads(machines);
    std::vector<std::size_t> acc_bytes(machines, 0);
    std::vector<std::size_t> vd_bytes(machines, 0);

    std::atomic<std::size_t> live_acc_bytes{0};
    const std::size_t cluster_budget =
        cluster_.machine.memory_bytes > 0
            ? cluster_.machine.memory_bytes * machines
            : 0;
    const bool fused = opt.mode == ApplyMode::kFused;

    // Machines that can contribute partials for vertex u this step.
    auto contributor_mask = [&](VertexId u) {
      std::uint64_t owners = 0;
      if (opt.dir == EdgeDir::kOut || opt.dir == EdgeDir::kAll) {
        owners |= part_.out_edge_owners(u);
      }
      if (opt.dir == EdgeDir::kIn || opt.dir == EdgeDir::kAll) {
        owners |= part_.in_edge_owners(u);
      }
      return owners;
    };

    // Folds vertex l's shard-local edges into `acc`, tallying per-edge
    // gather accounting on the owning shard.
    auto gather_local = [&](const Shard& sh, const std::vector<VD>& repl,
                            ShardScratch& sc, std::size_t mi, VertexId l,
                            VertexId u, Acc& acc, std::uint32_t& contribs,
                            std::size_t& bytes) {
      const VD& du = repl[l];
      auto fold_local = [&](VertexId lv) {
        ++sc.gather_calls;
        const std::size_t b =
            gather_sum(u, sh.global_id(lv), du, repl[lv], acc);
        if (b == 0) return;
        ++contribs;
        bytes += b;
        sc.loads[mi].work_units += 1.0 + static_cast<double>(b) / 16.0;
      };
      if (opt.dir == EdgeDir::kOut || opt.dir == EdgeDir::kAll) {
        for (const VertexId lv : sh.out_neighbors(l)) fold_local(lv);
      }
      if (opt.dir == EdgeDir::kIn || opt.dir == EdgeDir::kAll) {
        for (const VertexId lv : sh.in_neighbors(l)) fold_local(lv);
      }
    };

    // The step's wall time runs from its first buffer allocation to the
    // release of its last one: the scratch and both grids live in this
    // block, so their teardown is inside the measured step.
    WallTimer timer;
    {
      std::vector<ShardScratch> scratch(machines);
      ExchangeGrid<typename Run::Elem> partial_grid(machines);
      // Sync payloads are pointers into the sending master's replica array
      // (stable for the whole step): the wire size is still the vertex
      // datum's modeled encoding, but the in-process hand-off is zero-copy
      // until the drain, where the copy-assignment reuses whatever heap
      // capacity the mirror's previous value already owned — the
      // shared-memory-transport equivalent of writing into a pinned
      // receive buffer.
      ExchangeGrid<const VD*> sync_grid(machines);

      // Accounts and applies one finished master vertex (shared between
      // the phase-A fast path and the phase-B deferred path; both run in
      // shard d's task, so the outboxes stay single-writer).
      auto finish_master = [&](std::size_t di, std::vector<VD>& repl,
                               ShardScratch& sc, VertexId l, VertexId u,
                               Acc& merged, std::size_t total_bytes,
                               std::size_t contribs) {
        if (total_bytes > 0) {
          sc.acc_bytes += total_bytes + kAccumulatorHeaderBytes;
          if (cluster_budget > 0) {
            const std::size_t now =
                live_acc_bytes.fetch_add(total_bytes,
                                         std::memory_order_relaxed) +
                total_bytes;
            if (now > cluster_budget) {
              throw ResourceExhausted(
                  "gather accumulators reached " + std::to_string(now) +
                  " bytes in step '" + opt.name +
                  "', exceeding the cluster's " +
                  std::to_string(cluster_budget) + "-byte budget");
            }
          }
        }
        apply(u, repl[l], merged, contribs);
        sc.loads[di].work_units +=
            1.0 + static_cast<double>(contribs) * 0.25;
        // Post-apply vertex-data size: this master's share of the audit
        // (mirrors are audited from the sync payload sizes they receive).
        const std::size_t sz = vd_size_(repl[l]);
        sc.vd_bytes += sz;
        // Re-synchronize Du to every mirror through real sync buffers.
        if (part_.replicas(u).count() > 1) {
          part_.replicas(u).for_each([&](MachineId r) {
            if (r != static_cast<MachineId>(di)) {
              sync_grid.outbox(di, r).push(
                  u, static_cast<std::uint32_t>(sz), 0, &repl[l]);
            }
          });
        }
      };

      // ---- Phase A: shard-local gather + partial-sum buffer build. ----
      // Mirrors always gather here (their partials must cross the
      // barrier). Masters gather here only in two-phase mode, into
      // per-vertex accumulators held until phase B — materializing every
      // accumulator is exactly what two-phase semantics (and its memory
      // appetite) mean. In fused mode masters gather lazily in phase B
      // with reusable scratch instead: the fused contract (apply writes
      // nothing gathers read) makes interleaved same-shard applies safe,
      // and it keeps the per-vertex allocation profile identical to the
      // flat engine's.
      WallTimer phase_timer;
      pool_->parallel_for(0, machines, [&](std::size_t mi, std::size_t) {
        const Shard& sh = topo.shard(mi);
        std::vector<VD>& repl = replica_[mi];
        ShardScratch& sc = scratch[mi];
        sc.loads.resize(machines);
        if (!fused) {
          sc.own_partial.resize(sh.num_masters());
          sc.own_bytes.assign(sh.num_masters(), 0);
          sc.own_contribs.assign(sh.num_masters(), 0);
        }

        // Reused across mirror vertices: its partial is appended straight
        // onto the outbox, so it keeps its capacity.
        Acc mirror_acc{};
        std::size_t rank = 0;
        const auto n_local = static_cast<VertexId>(sh.num_local());
        for (VertexId l = 0; l < n_local; ++l) {
          const bool owned = sh.owns(l);
          if (owned && fused) continue;  // gathered in phase B
          Acc* acc;
          if (owned) {
            acc = &sc.own_partial[rank];
          } else {
            mirror_acc.clear();
            acc = &mirror_acc;
          }
          const VertexId u = sh.global_id(l);
          std::uint32_t contribs = 0;
          std::size_t bytes = 0;
          gather_local(sh, repl, sc, mi, l, u, *acc, contribs, bytes);
          sc.contributions += contribs;
          if (owned) {
            sc.own_bytes[rank] = static_cast<std::uint32_t>(bytes);
            sc.own_contribs[rank] = contribs;
            ++rank;
          } else if (bytes > 0) {
            // Mirror with contributions: ship the partial to the master.
            partial_grid.outbox(mi, part_.master(u))
                .append(u, static_cast<std::uint32_t>(bytes), contribs,
                        [&](auto& elems) { Run::append(mirror_acc, elems); });
          }
        }
      });
      stats.exchange.gather_build_s = phase_timer.seconds();

      // Measured partial-sum traffic: the size of the buffers just built.
      for (std::size_t s = 0; s < machines; ++s) {
        for (std::size_t d = 0; d < machines; ++d) {
          if (s == d) continue;
          const std::size_t wire = partial_grid.outbox(s, d).wire_bytes();
          if (wire > 0) charge_transfer(loads, s, d, wire);
        }
      }
      stats.net_bytes += partial_grid.wire_bytes();
      stats.messages += partial_grid.message_count();

      // ---- Phase B: masters merge partials (ascending machine order),
      // apply, and build the vertex-data sync buffers. ----
      phase_timer.restart();
      pool_->parallel_for(0, machines, [&](std::size_t di, std::size_t) {
        const Shard& sh = topo.shard(di);
        std::vector<VD>& repl = replica_[di];
        ShardScratch& sc = scratch[di];

        // The sync fan-out is known from the topology — reserve the
        // outboxes so pushes never reallocate mid-phase.
        for (std::size_t r = 0; r < machines; ++r) {
          if (r != di && sh.sync_fanout()[r] > 0) {
            sync_grid.outbox(di, r).reserve(sh.sync_fanout()[r],
                                            sh.sync_fanout()[r]);
          }
        }

        // Every inbox is ordered by ascending global vertex id (shards
        // walk local vertices in ascending global order), so a cursor per
        // source machine turns the merge into one synchronized sweep.
        std::vector<std::size_t> cursor(machines, 0);
        Acc merged{};
        Acc local_partial{};  // fused mode: reusable master gather scratch
        std::size_t rank = 0;
        for (const VertexId l : sh.masters()) {
          const VertexId u = sh.global_id(l);
          std::uint32_t own_contribs = 0;
          std::size_t own_bytes = 0;
          Acc* own = nullptr;
          if (fused) {
            local_partial.clear();
            gather_local(sh, repl, sc, di, l, u, local_partial,
                         own_contribs, own_bytes);
            sc.contributions += own_contribs;
            own = &local_partial;
          } else {
            own_bytes = sc.own_bytes[rank];
            own_contribs = sc.own_contribs[rank];
            own = &sc.own_partial[rank];
            ++rank;
          }

          // Merge the contributing machines' partials ascending by id —
          // only machines owning edges of u (for this direction) can have
          // contributed, so walk that bitmask instead of all machines. The
          // first partial becomes `merged` (a received run is folded into
          // its reused memory), later ones go through the program's merge
          // straight from their runs.
          merged.clear();
          std::size_t total_bytes = 0;
          std::size_t contribs = 0;
          bool first = true;
          std::uint64_t rest = contributor_mask(u);
          while (rest != 0) {
            const auto s = static_cast<std::size_t>(__builtin_ctzll(rest));
            rest &= rest - 1;
            if (s == di) {
              if (own_bytes > 0) {
                total_bytes += own_bytes;
                contribs += own_contribs;
                if (first) {
                  std::swap(merged, *own);
                  first = false;
                } else {
                  merge(merged, Run::view(*own));
                }
              }
              continue;
            }
            auto& box = partial_grid.inbox(di, s);
            if (cursor[s] < box.size() && box[cursor[s]].vertex == u) {
              const auto msg = box[cursor[s]++];
              total_bytes += msg.payload_bytes;
              contribs += msg.contributions;
              if (first) {
                Run::adopt(merged, msg.payload);
                first = false;
              } else {
                merge(merged, msg.payload);
              }
            }
          }
          finish_master(di, repl, sc, l, u, merged, total_bytes, contribs);
        }
      });
      stats.exchange.merge_apply_s = phase_timer.seconds();

      for (std::size_t s = 0; s < machines; ++s) {
        for (std::size_t d = 0; d < machines; ++d) {
          if (s == d) continue;
          const std::size_t wire = sync_grid.outbox(s, d).wire_bytes();
          if (wire > 0) charge_transfer(loads, s, d, wire);
        }
      }
      stats.net_bytes += sync_grid.wire_bytes();
      stats.messages += sync_grid.message_count();

      // ---- Phase C: mirrors drain the sync buffers into their
      // replicas. ----
      phase_timer.restart();
      pool_->parallel_for(0, machines, [&](std::size_t ri, std::size_t) {
        const Shard& sh = topo.shard(ri);
        std::vector<VD>& repl = replica_[ri];
        const auto& ids = sh.vertices();
        for (std::size_t s = 0; s < machines; ++s) {
          if (s == ri) continue;
          // Messages arrive ascending by vertex id, so resume each lookup
          // where the previous one ended instead of bisecting from
          // scratch.
          const auto& box = sync_grid.inbox(ri, s);
          auto hint = ids.begin();
          for (std::size_t i = 0; i < box.size(); ++i) {
            const auto msg = box[i];
            hint = std::lower_bound(hint, ids.end(), msg.vertex);
            SNAPLE_DCHECK(hint != ids.end() && *hint == msg.vertex);
            repl[static_cast<std::size_t>(hint - ids.begin())] =
                *msg.payload.front();
          }
        }
      });
      stats.exchange.sync_drain_s = phase_timer.seconds();

      for (std::size_t m = 0; m < machines; ++m) {
        stats.gather_calls += scratch[m].gather_calls;
        stats.contributions += scratch[m].contributions;
        acc_bytes[m] = scratch[m].acc_bytes;
        for (std::size_t o = 0; o < machines; ++o) {
          loads[o].work_units += scratch[m].loads[o].work_units;
          loads[o].bytes_in += scratch[m].loads[o].bytes_in;
          loads[o].bytes_out += scratch[m].loads[o].bytes_out;
        }
      }

      // Replicated-VD memory, measured without an extra pass: masters were
      // sized at apply time, and every mirror's post-step datum is exactly
      // the sync payload it just received — whose modeled size is already
      // recorded in the buffers.
      for (std::size_t r = 0; r < machines; ++r) {
        vd_bytes[r] = scratch[r].vd_bytes;
        for (std::size_t s = 0; s < machines; ++s) {
          if (s == r) continue;
          const auto& box = sync_grid.inbox(r, s);
          vd_bytes[r] += box.wire_bytes() - box.size() * kMessageHeaderBytes;
        }
      }
    }
    const double wall = timer.seconds();

    host_fresh_ = false;  // masters changed; data() re-collects on demand

    stats.wall_s = wall;
    const std::size_t active = std::min(machines, pool_->slot_count());
    finalize_stats(stats, opt, loads, acc_bytes, vd_bytes,
                   wall * static_cast<double>(active));
    return stats;
  }

  // Shared epilogue: simulated time, memory audit, report bookkeeping.
  void finalize_stats(StepStats& stats, const StepOptions& opt,
                      const std::vector<MachineLoad>& loads,
                      const std::vector<std::size_t>& acc_bytes,
                      const std::vector<std::size_t>& vd_bytes,
                      double cpu_seconds) {
    const std::size_t machines = part_.num_machines();
    stats.sim = simulate_step_time(cluster_, loads, cpu_seconds);

    // Memory audit: replicated vertex data + live accumulators + the
    // machine's share of the graph structure.
    for (std::size_t m = 0; m < machines; ++m) {
      stats.accumulator_bytes_peak =
          std::max(stats.accumulator_bytes_peak, acc_bytes[m]);
      stats.vertex_data_bytes_peak =
          std::max(stats.vertex_data_bytes_peak, vd_bytes[m]);
      if (cluster_.machine.memory_bytes > 0) {
        const std::size_t structure =
            part_.edges_per_machine()[m] * 2 * sizeof(VertexId);
        const std::size_t total = acc_bytes[m] + vd_bytes[m] + structure;
        if (total > cluster_.machine.memory_bytes) {
          report_.steps.push_back(stats);
          throw ResourceExhausted(
              "machine " + std::to_string(m) + " needs " +
              std::to_string(total) + " bytes in step '" + opt.name +
              "' (budget " +
              std::to_string(cluster_.machine.memory_bytes) + ")");
        }
      }
    }
    report_.steps.push_back(stats);
  }

  [[nodiscard]] std::size_t resolve_grain(const StepOptions& opt) const {
    if (opt.grain != 0) return opt.grain;
    // Auto grain: size chunks by expected gathered edges, not vertex
    // count, so power-law rows still balance — ~4K edges per chunk,
    // derived from the partitioned edge total over the vertex count.
    const auto n = static_cast<double>(
        std::max<VertexId>(graph_.num_vertices(), 1));
    const double avg_deg = static_cast<double>(graph_.num_edges()) / n;
    const double g = 4096.0 / std::max(avg_deg, 0.25);
    return static_cast<std::size_t>(
        std::clamp(g, 16.0, 16384.0));
  }

  void audit_vertex_data_flat(std::vector<std::size_t>& vd_bytes) const {
    // Per-worker tallies merged at the end; replicas(u).count() copies of
    // Du exist cluster-wide (master + mirrors).
    const std::size_t machines = part_.num_machines();
    const std::size_t slots = pool_->slot_count();
    std::vector<std::vector<std::size_t>> per_worker(
        slots, std::vector<std::size_t>(machines, 0));
    pool_->parallel_for(
        0, graph_.num_vertices(), [&](std::size_t i, std::size_t slot) {
          const auto u = static_cast<VertexId>(i);
          const std::size_t sz = vd_size_(data_[u]);
          part_.replicas(u).for_each(
              [&](MachineId m) { per_worker[slot][m] += sz; });
        });
    for (const auto& w : per_worker) {
      for (std::size_t m = 0; m < machines; ++m) vd_bytes[m] += w[m];
    }
  }

  void ensure_topology() {
    if (topo_ == nullptr) {
      topo_ = std::make_shared<const ShardTopology>(
          ShardTopology::build(graph_, part_, pool_));
    }
  }

  /// Builds shards + replica arrays on first sharded step and re-scatters
  /// the host array whenever it was mutated through data().
  void ensure_shards_fresh() {
    ensure_topology();
    if (replica_.empty()) {
      replica_.resize(part_.num_machines());
      for (std::size_t m = 0; m < replica_.size(); ++m) {
        replica_[m].resize(topo_->shard(m).num_local());
      }
    }
    if (shards_fresh_) return;
    // The scatter only matters once the host array has actually been
    // written: fresh replicas and a fresh host array are both
    // default-constructed, so programs that never touch data() before
    // stepping (e.g. run_snaple) skip the copy entirely.
    if (host_written_) {
      pool_->parallel_for(
          0, replica_.size(), [&](std::size_t mi, std::size_t) {
            const Shard& sh = topo_->shard(mi);
            for (VertexId l = 0; l < sh.num_local(); ++l) {
              replica_[mi][l] = data_[sh.global_id(l)];
            }
          });
    }
    shards_fresh_ = true;
  }

  /// Collects masters' values back into the host array (sharded mode).
  void sync_host_from_shards() {
    if (host_fresh_) return;
    pool_->parallel_for(
        0, replica_.size(), [&](std::size_t mi, std::size_t) {
          const Shard& sh = topo_->shard(mi);
          for (const VertexId l : sh.masters()) {
            data_[sh.global_id(l)] = replica_[mi][l];
          }
        });
    host_fresh_ = true;
  }

  const Graph& graph_;
  const Partitioning& part_;
  ClusterConfig cluster_;
  std::function<std::size_t(const VD&)> vd_size_;
  ThreadPool* pool_;
  ExecutionMode exec_;
  std::vector<VD> data_;
  std::shared_ptr<const ShardTopology> topo_;
  std::vector<std::vector<VD>> replica_;  // per machine, per local id
  bool shards_fresh_ = false;  // replica arrays mirror data_
  bool host_fresh_ = true;     // data_ mirrors the master replicas
  bool host_written_ = false;  // data_ was ever handed out mutably
  EngineReport report_;
};

}  // namespace snaple::gas
