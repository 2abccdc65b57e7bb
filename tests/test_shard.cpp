// Tests for true sharded execution: shard topology construction, the
// explicit message-exchange buffers, and the flat-vs-sharded equivalence
// property — every program must produce bit-identical vertex data and
// identical accounting in both execution modes, for any partitioning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>

#include "baseline/gas_baseline.hpp"
#include "core/snaple_program.hpp"
#include "gas/engine.hpp"
#include "gas/exchange.hpp"
#include "gas/programs/components.hpp"
#include "gas/programs/kcore.hpp"
#include "gas/programs/pagerank.hpp"
#include "gas/programs/sssp.hpp"
#include "gas/programs/triangles.hpp"
#include "gas/shard.hpp"
#include "graph/builder.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/gen/generators.hpp"
#include "util/score_map.hpp"
#include "util/thread_pool.hpp"

namespace snaple::gas {
namespace {

// ---------------------------------------------------------------------
// Shard topology structure
// ---------------------------------------------------------------------

TEST(ShardTopology, EdgesPartitionExactlyAcrossShards) {
  const CsrGraph g = gen::erdos_renyi(300, 2500, 7);
  for (const auto strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kGreedy}) {
    const auto p = Partitioning::create(g, 8, strategy);
    const auto topo = ShardTopology::build(g, p);
    ASSERT_EQ(topo.num_machines(), 8u);

    EdgeIndex total = 0;
    std::vector<std::size_t> seen(g.num_edges(), 0);
    for (const Shard& sh : topo.shards()) {
      total += sh.num_local_edges();
      EXPECT_EQ(sh.num_local_edges(),
                p.edges_per_machine()[sh.machine()]);
      // Every local edge maps back to a global edge owned by this shard.
      for (VertexId l = 0; l < sh.num_local(); ++l) {
        const VertexId u = sh.global_id(l);
        for (const VertexId lt : sh.out_neighbors(l)) {
          const VertexId v = sh.global_id(lt);
          const EdgeIndex e = g.edge_index(u, v);
          ASSERT_LT(e, g.num_edges());
          EXPECT_EQ(p.edge_machine(e), sh.machine());
          ++seen[e];
        }
      }
    }
    EXPECT_EQ(total, g.num_edges());
    // ... and each global edge lives in exactly one shard.
    for (EdgeIndex e = 0; e < g.num_edges(); ++e) EXPECT_EQ(seen[e], 1u);
  }
}

TEST(ShardTopology, ReplicasAndMastersMatchPartitioning) {
  const CsrGraph g = gen::erdos_renyi(200, 1500, 3);
  const auto p = Partitioning::create(g, 4, PartitionStrategy::kGreedy);
  const auto topo = ShardTopology::build(g, p);

  std::vector<int> mastered(g.num_vertices(), 0);
  for (const Shard& sh : topo.shards()) {
    const MachineId m = sh.machine();
    // Local vertex set == replicas containing m, ascending.
    VertexId l = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      if (!p.replicas(u).contains(m)) continue;
      ASSERT_LT(l, sh.num_local());
      EXPECT_EQ(sh.global_id(l), u);
      EXPECT_EQ(sh.local_id(u), l);
      EXPECT_EQ(sh.owns(l), p.master(u) == m);
      if (sh.owns(l)) ++mastered[u];
      ++l;
    }
    EXPECT_EQ(l, sh.num_local());
    EXPECT_EQ(sh.num_masters() + sh.num_mirrors(), sh.num_local());
    EXPECT_GT(sh.memory_bytes(), 0u);
  }
  // Every vertex is mastered on exactly one shard.
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_EQ(mastered[u], 1) << "vertex " << u;
  }
}

TEST(ShardTopology, LocalAdjacencyMatchesFilteredGlobal) {
  const CsrGraph g = gen::erdos_renyi(150, 1200, 11);
  const auto p = Partitioning::create(g, 4, PartitionStrategy::kHash);
  const auto topo = ShardTopology::build(g, p);
  for (const Shard& sh : topo.shards()) {
    const MachineId m = sh.machine();
    for (VertexId l = 0; l < sh.num_local(); ++l) {
      const VertexId u = sh.global_id(l);
      // Out-neighbors: the global list filtered to this machine's edges,
      // order preserved.
      std::vector<VertexId> expect_out;
      const EdgeIndex base = g.out_offset(u);
      const auto nbrs = g.out_neighbors(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (p.edge_machine(base + i) == m) expect_out.push_back(nbrs[i]);
      }
      std::vector<VertexId> got_out;
      for (const VertexId lt : sh.out_neighbors(l)) {
        got_out.push_back(sh.global_id(lt));
      }
      EXPECT_EQ(got_out, expect_out) << "vertex " << u;

      // In-neighbors likewise (ascending global source order).
      std::vector<VertexId> expect_in;
      for (const VertexId v : g.in_neighbors(u)) {
        if (p.edge_machine(g.edge_index(v, u)) == m) expect_in.push_back(v);
      }
      std::vector<VertexId> got_in;
      for (const VertexId ls : sh.in_neighbors(l)) {
        got_in.push_back(sh.global_id(ls));
      }
      EXPECT_EQ(got_in, expect_in) << "vertex " << u;
    }
  }
}

TEST(ShardTopology, SingleMachineShardIsTheWholeGraph) {
  const CsrGraph g = gen::erdos_renyi(100, 700, 5);
  const auto p = Partitioning::create(g, 1, PartitionStrategy::kGreedy);
  const auto topo = ShardTopology::build(g, p);
  ASSERT_EQ(topo.num_machines(), 1u);
  const Shard& sh = topo.shard(0);
  EXPECT_EQ(sh.num_local(), g.num_vertices());
  EXPECT_EQ(sh.num_masters(), g.num_vertices());
  EXPECT_EQ(sh.num_mirrors(), 0u);
  EXPECT_EQ(sh.num_local_edges(), g.num_edges());
}

TEST(ShardTopology, IsolatedVerticesLandOnTheirMasterShard) {
  GraphBuilder b(12);
  b.add_edge(0, 1);  // vertices 2..11 isolated
  const CsrGraph g = b.build();
  const auto p = Partitioning::create(g, 4, PartitionStrategy::kGreedy);
  const auto topo = ShardTopology::build(g, p);
  std::size_t replicas_total = 0;
  for (const Shard& sh : topo.shards()) replicas_total += sh.num_local();
  // Each isolated vertex has exactly one replica (its master).
  std::size_t expected = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    expected += static_cast<std::size_t>(p.replicas(u).count());
  }
  EXPECT_EQ(replicas_total, expected);
  for (VertexId u = 2; u < 12; ++u) {
    const Shard& sh = topo.shard(p.master(u));
    const VertexId l = sh.local_id(u);
    EXPECT_TRUE(sh.owns(l));
    EXPECT_TRUE(sh.out_neighbors(l).empty());
    EXPECT_TRUE(sh.in_neighbors(l).empty());
  }
}

// The reference build: the original per-machine scan, one full pass over
// the graph per machine. The one-pass build must reproduce it field by
// field.
struct ReferenceShard {
  std::vector<VertexId> vertices;
  std::vector<std::uint8_t> is_master;
  std::vector<VertexId> masters;
  std::vector<EdgeIndex> sync_fanout;
  std::vector<EdgeIndex> out_offsets;
  std::vector<VertexId> out_targets;
  std::vector<EdgeIndex> in_offsets;
  std::vector<VertexId> in_sources;
};

ReferenceShard reference_shard(const CsrGraph& g, const Partitioning& p,
                               MachineId m) {
  ReferenceShard s;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (p.replicas(u).contains(m)) s.vertices.push_back(u);
  }
  const std::size_t n_local = s.vertices.size();
  s.is_master.assign(n_local, 0);
  s.sync_fanout.assign(p.num_machines(), 0);
  for (VertexId l = 0; l < n_local; ++l) {
    const VertexId u = s.vertices[l];
    if (p.master(u) != m) continue;
    s.is_master[l] = 1;
    s.masters.push_back(l);
    p.replicas(u).for_each([&](MachineId r) {
      if (r != m) ++s.sync_fanout[r];
    });
  }
  s.out_offsets.assign(n_local + 1, 0);
  for (VertexId l = 0; l < n_local; ++l) {
    const VertexId u = s.vertices[l];
    const EdgeIndex base = g.out_offset(u);
    const auto nbrs = g.out_neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (p.edge_machine(base + i) != m) continue;
      const auto it =
          std::lower_bound(s.vertices.begin(), s.vertices.end(), nbrs[i]);
      s.out_targets.push_back(static_cast<VertexId>(it - s.vertices.begin()));
    }
    s.out_offsets[l + 1] = s.out_targets.size();
  }
  s.in_offsets.assign(n_local + 1, 0);
  for (const VertexId t : s.out_targets) ++s.in_offsets[t + 1];
  for (std::size_t l = 1; l <= n_local; ++l) {
    s.in_offsets[l] += s.in_offsets[l - 1];
  }
  s.in_sources.resize(s.out_targets.size());
  std::vector<EdgeIndex> cursor(s.in_offsets.begin(), s.in_offsets.end() - 1);
  for (VertexId l = 0; l < n_local; ++l) {
    for (EdgeIndex e = s.out_offsets[l]; e < s.out_offsets[l + 1]; ++e) {
      s.in_sources[cursor[s.out_targets[e]]++] = l;
    }
  }
  return s;
}

void expect_shard_equals_reference(const Shard& sh, const ReferenceShard& ref,
                                   MachineId m, bool compressed) {
  EXPECT_EQ(sh.machine(), m);
  EXPECT_EQ(sh.compressed(), compressed);
  ASSERT_EQ(sh.vertices(), ref.vertices);
  EXPECT_EQ(sh.masters(), ref.masters);
  EXPECT_EQ(sh.sync_fanout(), ref.sync_fanout);
  EXPECT_EQ(sh.num_local_edges(), ref.out_targets.size());
  for (VertexId l = 0; l < ref.vertices.size(); ++l) {
    EXPECT_EQ(sh.owns(l), ref.is_master[l] != 0) << "local " << l;
    const auto out = sh.out_neighbors(l);
    EXPECT_TRUE(std::equal(out.begin(), out.end(),
                           ref.out_targets.begin() + ref.out_offsets[l],
                           ref.out_targets.begin() + ref.out_offsets[l + 1]))
        << "out row " << l;
    const auto in = sh.in_neighbors(l);
    EXPECT_TRUE(std::equal(in.begin(), in.end(),
                           ref.in_sources.begin() + ref.in_offsets[l],
                           ref.in_sources.begin() + ref.in_offsets[l + 1]))
        << "in row " << l;
  }
  // The resident footprint pins the array sizes (offsets included).
  const std::size_t adjacency =
      compressed
          ? CompressedAdjacency::encode_serial(ref.out_offsets,
                                               ref.out_targets)
                    .memory_bytes() +
                CompressedAdjacency::encode_serial(ref.in_offsets,
                                                   ref.in_sources)
                    .memory_bytes()
          : (ref.out_offsets.size() + ref.in_offsets.size()) *
                    sizeof(EdgeIndex) +
                (ref.out_targets.size() + ref.in_sources.size()) *
                    sizeof(VertexId);
  EXPECT_EQ(sh.memory_bytes(),
            ref.vertices.size() * sizeof(VertexId) +
                ref.is_master.size() * sizeof(std::uint8_t) +
                ref.masters.size() * sizeof(VertexId) + adjacency);
}

// A graph spanning several build blocks, with vertices that have no
// out-edges (every seventh vertex only receives edges) and a tail of
// isolated vertices.
CsrGraph graph_with_holes() {
  const CsrGraph er = gen::erdos_renyi(4500, 30000, 21);
  GraphBuilder b(5000);
  for (VertexId u = 0; u < er.num_vertices(); ++u) {
    if (u % 7 == 0) continue;
    for (const VertexId v : er.out_neighbors(u)) b.add_edge(u, v);
  }
  return b.build();
}

TEST(ShardTopology, OnePassBuildMatchesPerMachineScanOracle) {
  const CsrGraph g = graph_with_holes();
  ASSERT_EQ(g.num_vertices(), 5000u);
  const CompressedCsrGraph cg = CompressedCsrGraph::from_graph(g);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const std::size_t workers : {1ul, 2ul, 3ul, 8ul}) {
    pools.push_back(std::make_unique<ThreadPool>(workers));
  }
  for (const auto strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kGreedy,
        PartitionStrategy::kEdgeLocal}) {
    for (const std::size_t machines : {1ul, 2ul, 3ul, 8ul}) {
      const auto p = Partitioning::create(g, machines, strategy, 5);
      std::vector<ReferenceShard> ref;
      for (std::size_t m = 0; m < machines; ++m) {
        ref.push_back(reference_shard(g, p, static_cast<MachineId>(m)));
      }
      for (const auto& pool : pools) {
        SCOPED_TRACE("strategy " + std::to_string(static_cast<int>(strategy)) +
                     " machines " + std::to_string(machines) + " workers " +
                     std::to_string(pool->worker_count()));
        const auto flat = ShardTopology::build(g, p, pool.get());
        const auto packed =
            ShardTopology::build(cg, p, pool.get(), /*compress_slices=*/true);
        ASSERT_EQ(flat.num_machines(), machines);
        ASSERT_EQ(packed.num_machines(), machines);
        for (std::size_t m = 0; m < machines; ++m) {
          const auto mid = static_cast<MachineId>(m);
          expect_shard_equals_reference(flat.shard(m), ref[m], mid, false);
          expect_shard_equals_reference(packed.shard(m), ref[m], mid, true);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Message buffers
// ---------------------------------------------------------------------

TEST(Exchange, WireBytesAreHeaderPlusPayload) {
  MessageBuffer<VertexId> buf;
  EXPECT_EQ(buf.wire_bytes(), 0u);
  buf.append(3, 12, 3, [](std::vector<VertexId>& elems) {
    elems.insert(elems.end(), {1, 2, 3});
  });
  buf.push(9, 4, 1, 7);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.wire_bytes(), 2 * kMessageHeaderBytes + 12 + 4);
  std::vector<VertexId> order;
  for (std::size_t i = 0; i < buf.size(); ++i) order.push_back(buf[i].vertex);
  EXPECT_EQ(order, (std::vector<VertexId>{3, 9}));
  buf.clear();
  EXPECT_EQ(buf.wire_bytes(), 0u);
}

TEST(Exchange, RecordsAreRunsOfOneContiguousElementArray) {
  MessageBuffer<VertexId> buf;
  buf.append(3, 12, 3, [](std::vector<VertexId>& elems) {
    elems.insert(elems.end(), {1, 2, 3});
  });
  buf.append(4, 0, 0, [](std::vector<VertexId>&) {});  // empty run
  buf.push(9, 4, 1, 7);
  ASSERT_EQ(buf.size(), 3u);
  const auto a = buf[0];
  const auto b = buf[1];
  const auto c = buf[2];
  EXPECT_EQ(a.contributions, 3u);
  EXPECT_EQ(std::vector<VertexId>(a.payload.begin(), a.payload.end()),
            (std::vector<VertexId>{1, 2, 3}));
  EXPECT_TRUE(b.payload.empty());
  ASSERT_EQ(c.payload.size(), 1u);
  EXPECT_EQ(c.payload.front(), 7u);
  // Runs are adjacent in one array, in record order.
  EXPECT_EQ(a.payload.data() + 3, c.payload.data());
}

TEST(Exchange, PartialRunsRoundTripEveryAccumulatorShape) {
  // A vector travels as its elements; the scratch keeps its capacity.
  std::vector<std::pair<VertexId, float>> list{{4, 0.5f}, {2, 0.25f}};
  const auto* storage = list.data();
  std::vector<std::pair<VertexId, float>> elems;
  PartialRun<decltype(list)>::append(list, elems);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.data(), storage);
  std::vector<std::pair<VertexId, float>> adopted;
  PartialRun<decltype(list)>::adopt(adopted, elems);
  EXPECT_EQ(adopted,
            (std::vector<std::pair<VertexId, float>>{{4, 0.5f}, {2, 0.25f}}));

  // A value accumulator travels as one element, itself.
  struct Count {
    int n = 0;
    void clear() { n = 0; }
    void merge(Count&& o) { n += o.n; }
  };
  Count c{5};
  std::vector<Count> counts;
  PartialRun<Count>::append(c, counts);
  EXPECT_EQ(c.n, 0);
  ASSERT_EQ(counts.size(), 1u);
  Count into{};
  PartialRun<Count>::adopt(into, counts);
  EXPECT_EQ(into.n, 5);
  detail::DefaultAccMerge{}(into, std::span<Count>(counts));
  EXPECT_EQ(into.n, 10);

  // A ScoreMap travels as its sealed slot run and is adopted sealed.
  ScoreMap m;
  auto plus = [](float x, float y) { return x + y; };
  for (std::uint32_t k = 0; k < 30; ++k) m.accumulate(k, 1.0f, 1, plus);
  std::vector<ScoreMap::Slot> slots;
  PartialRun<ScoreMap>::append(m, slots);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(slots.size(), 30u);
  ScoreMap sealed;
  PartialRun<ScoreMap>::adopt(sealed, slots);
  EXPECT_EQ(sealed.size(), 30u);
}

TEST(Exchange, GridMeasuresOnlyCrossMachineTraffic) {
  ExchangeGrid<int> grid(3);
  grid.outbox(0, 1).push(5, 8, 1, 42);
  grid.outbox(2, 2).push(6, 100, 1, 7);  // diagonal: local, free
  EXPECT_EQ(grid.wire_bytes(), kMessageHeaderBytes + 8);
  EXPECT_EQ(grid.message_count(), 1u);
  // inbox(d, s) aliases outbox(s, d).
  EXPECT_EQ(grid.inbox(1, 0).size(), 1u);
  EXPECT_EQ(grid.inbox(1, 0)[0].payload.front(), 42);
}

// ---------------------------------------------------------------------
// Flat vs sharded equivalence (the acceptance property)
// ---------------------------------------------------------------------

template <typename T>
void expect_bit_identical(const std::vector<T>& flat,
                          const std::vector<T>& sharded,
                          const char* what) {
  ASSERT_EQ(flat.size(), sharded.size()) << what;
  if constexpr (std::is_trivially_copyable_v<T>) {
    EXPECT_EQ(std::memcmp(flat.data(), sharded.data(),
                          flat.size() * sizeof(T)),
              0)
        << what;
  } else {
    EXPECT_EQ(flat, sharded) << what;
  }
}

void expect_reports_equal(const EngineReport& flat,
                          const EngineReport& sharded) {
  ASSERT_EQ(flat.steps.size(), sharded.steps.size());
  for (std::size_t i = 0; i < flat.steps.size(); ++i) {
    const StepStats& a = flat.steps[i];
    const StepStats& b = sharded.steps[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.net_bytes, b.net_bytes) << a.name;
    EXPECT_EQ(a.messages, b.messages) << a.name;
    EXPECT_EQ(a.gather_calls, b.gather_calls) << a.name;
    EXPECT_EQ(a.contributions, b.contributions) << a.name;
    EXPECT_EQ(a.accumulator_bytes_peak, b.accumulator_bytes_peak) << a.name;
    EXPECT_EQ(a.vertex_data_bytes_peak, b.vertex_data_bytes_peak) << a.name;
  }
}

struct Config {
  std::uint64_t seed;
  PartitionStrategy strategy;
  std::size_t machines;
};

std::vector<Config> equivalence_matrix() {
  std::vector<Config> configs;
  for (const std::uint64_t seed : {3ull, 17ull, 99ull}) {
    for (const auto strategy :
         {PartitionStrategy::kHash, PartitionStrategy::kGreedy}) {
      for (const std::size_t machines : {1ul, 2ul, 8ul}) {
        configs.push_back({seed, strategy, machines});
      }
    }
  }
  return configs;
}

std::string describe(const Config& c) {
  return "seed=" + std::to_string(c.seed) + " strategy=" +
         (c.strategy == PartitionStrategy::kHash ? "hash" : "greedy") +
         " machines=" + std::to_string(c.machines);
}

TEST(FlatShardedEquivalence, PageRank) {
  for (const Config& c : equivalence_matrix()) {
    SCOPED_TRACE(describe(c));
    const CsrGraph g = gen::erdos_renyi(250, 2000, c.seed);
    const auto p = Partitioning::create(g, c.machines, c.strategy, c.seed);
    const auto cluster = ClusterConfig::type_i(c.machines);
    PageRankOptions opt;
    opt.max_iterations = 8;
    const auto flat = pagerank(g, p, cluster, opt, nullptr,
                               ExecutionMode::kFlat);
    const auto sharded = pagerank(g, p, cluster, opt, nullptr,
                                  ExecutionMode::kSharded);
    EXPECT_EQ(flat.iterations, sharded.iterations);
    expect_bit_identical(flat.ranks, sharded.ranks, "ranks");
    expect_reports_equal(flat.report, sharded.report);
  }
}

TEST(FlatShardedEquivalence, ConnectedComponents) {
  for (const Config& c : equivalence_matrix()) {
    SCOPED_TRACE(describe(c));
    const CsrGraph g = gen::erdos_renyi(250, 1200, c.seed);
    const auto p = Partitioning::create(g, c.machines, c.strategy, c.seed);
    const auto cluster = ClusterConfig::type_i(c.machines);
    const auto flat = connected_components(g, p, cluster, nullptr,
                                           ExecutionMode::kFlat);
    const auto sharded = connected_components(g, p, cluster, nullptr,
                                              ExecutionMode::kSharded);
    EXPECT_EQ(flat.iterations, sharded.iterations);
    expect_bit_identical(flat.labels, sharded.labels, "labels");
    expect_reports_equal(flat.report, sharded.report);
  }
}

TEST(FlatShardedEquivalence, Sssp) {
  for (const Config& c : equivalence_matrix()) {
    SCOPED_TRACE(describe(c));
    const CsrGraph g = gen::erdos_renyi(250, 1800, c.seed);
    const auto p = Partitioning::create(g, c.machines, c.strategy, c.seed);
    const auto cluster = ClusterConfig::type_i(c.machines);
    const auto flat = shortest_paths(g, 0, p, cluster, nullptr,
                                     ExecutionMode::kFlat);
    const auto sharded = shortest_paths(g, 0, p, cluster, nullptr,
                                        ExecutionMode::kSharded);
    EXPECT_EQ(flat.iterations, sharded.iterations);
    expect_bit_identical(flat.distances, sharded.distances, "distances");
    expect_reports_equal(flat.report, sharded.report);
  }
}

TEST(FlatShardedEquivalence, KCore) {
  for (const Config& c : equivalence_matrix()) {
    SCOPED_TRACE(describe(c));
    const CsrGraph g = gen::barabasi_albert(250, 4, c.seed);
    const auto p = Partitioning::create(g, c.machines, c.strategy, c.seed);
    const auto cluster = ClusterConfig::type_i(c.machines);
    const auto flat =
        k_core(g, 3, p, cluster, nullptr, ExecutionMode::kFlat);
    const auto sharded =
        k_core(g, 3, p, cluster, nullptr, ExecutionMode::kSharded);
    EXPECT_EQ(flat.iterations, sharded.iterations);
    EXPECT_EQ(flat.core_size, sharded.core_size);
    EXPECT_EQ(flat.in_core, sharded.in_core);
    expect_reports_equal(flat.report, sharded.report);
  }
}

TEST(FlatShardedEquivalence, Triangles) {
  for (const Config& c : equivalence_matrix()) {
    SCOPED_TRACE(describe(c));
    const CsrGraph g = gen::barabasi_albert(200, 3, c.seed);
    const auto p = Partitioning::create(g, c.machines, c.strategy, c.seed);
    const auto cluster = ClusterConfig::type_i(c.machines);
    const auto flat =
        count_triangles(g, p, cluster, nullptr, ExecutionMode::kFlat);
    const auto sharded =
        count_triangles(g, p, cluster, nullptr, ExecutionMode::kSharded);
    EXPECT_EQ(flat.total_triangles, sharded.total_triangles);
    expect_bit_identical(flat.triangles_per_vertex,
                         sharded.triangles_per_vertex, "triangles");
    expect_reports_equal(flat.report, sharded.report);
  }
}

void expect_snaple_equal(const SnapleResult& flat,
                         const SnapleResult& sharded) {
  ASSERT_EQ(flat.predictions.size(), sharded.predictions.size());
  EXPECT_EQ(flat.predictions, sharded.predictions);
  ASSERT_EQ(flat.scored.size(), sharded.scored.size());
  for (std::size_t u = 0; u < flat.scored.size(); ++u) {
    ASSERT_EQ(flat.scored[u].size(), sharded.scored[u].size());
    for (std::size_t i = 0; i < flat.scored[u].size(); ++i) {
      EXPECT_EQ(flat.scored[u][i].first, sharded.scored[u][i].first);
      // Bit-level float comparison: the merge order is pinned, so even
      // the accumulated similarity scores must agree exactly.
      EXPECT_EQ(std::memcmp(&flat.scored[u][i].second,
                            &sharded.scored[u][i].second, sizeof(float)),
                0)
          << "vertex " << u;
    }
  }
  expect_reports_equal(flat.report, sharded.report);
}

TEST(FlatShardedEquivalence, RunSnaple) {
  for (const Config& c : equivalence_matrix()) {
    SCOPED_TRACE(describe(c));
    const CsrGraph g = gen::erdos_renyi(200, 1600, c.seed);
    const auto p = Partitioning::create(g, c.machines, c.strategy, c.seed);
    const auto cluster = ClusterConfig::type_i(c.machines);
    snaple::SnapleConfig cfg;
    cfg.k_local = 10;
    cfg.thr_gamma = 50;
    cfg.seed = c.seed;
    const auto flat =
        run_snaple(g, cfg, p, cluster, nullptr, ApplyMode::kFused,
                   ExecutionMode::kFlat);
    const auto sharded =
        run_snaple(g, cfg, p, cluster, nullptr, ApplyMode::kFused,
                   ExecutionMode::kSharded);
    expect_snaple_equal(flat, sharded);
  }
}

TEST(FlatShardedEquivalence, RunSnapleTwoPhaseAndKHops3) {
  const CsrGraph g = gen::erdos_renyi(150, 1100, 23);
  const auto p = Partitioning::create(g, 4, PartitionStrategy::kGreedy, 23);
  const auto cluster = ClusterConfig::type_i(4);
  snaple::SnapleConfig cfg;
  cfg.k_local = 8;
  cfg.k_hops = 3;
  const auto flat = run_snaple(g, cfg, p, cluster, nullptr,
                               ApplyMode::kTwoPhase, ExecutionMode::kFlat);
  const auto sharded =
      run_snaple(g, cfg, p, cluster, nullptr, ApplyMode::kTwoPhase,
                 ExecutionMode::kSharded);
  expect_snaple_equal(flat, sharded);
}

TEST(FlatShardedEquivalence, BaselineProgram) {
  const CsrGraph g = gen::erdos_renyi(120, 800, 31);
  const auto p = Partitioning::create(g, 4, PartitionStrategy::kHash, 31);
  const auto cluster = ClusterConfig::type_i(4);
  baseline::BaselineConfig cfg;
  const auto flat = baseline::run_baseline(g, cfg, p, cluster, nullptr,
                                           ExecutionMode::kFlat);
  const auto sharded = baseline::run_baseline(g, cfg, p, cluster, nullptr,
                                              ExecutionMode::kSharded);
  EXPECT_EQ(flat.predictions, sharded.predictions);
  expect_reports_equal(flat.report, sharded.report);
}

// ---------------------------------------------------------------------
// Sharded engine behavior
// ---------------------------------------------------------------------

struct Scalar {
  double value = 0.0;
};

struct SumAcc {
  double total = 0.0;
  void clear() { total = 0.0; }
  void merge(SumAcc&& other) { total += other.total; }
};

// The flat engine's hand-verified 44-byte scenario, replayed sharded:
// the measured buffers must carry exactly the bytes the tally predicted
// (see Engine.ByteAccountingMatchesHandComputation in test_engine.cpp).
TEST(ShardedEngine, MeasuredBuffersMatchHandComputedBytes) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  const CsrGraph g = b.build();
  const auto p = Partitioning::from_edge_assignment(g, 2, {0, 1});
  Engine<Scalar> engine(
      g, p, ClusterConfig::type_i(2),
      [](const Scalar&) { return std::size_t{4}; }, nullptr,
      ExecutionMode::kSharded);
  StepOptions opt{.name = "hand", .dir = EdgeDir::kOut};
  const auto stats = engine.step<SumAcc>(
      opt,
      [](VertexId, VertexId, const Scalar&, const Scalar&, SumAcc& acc) {
        acc.total += 1.0;
        return std::size_t{8};
      },
      [](VertexId, Scalar& du, SumAcc& acc, std::size_t) {
        du.value = acc.total;
      });
  EXPECT_EQ(stats.net_bytes, 44u);
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.gather_calls, 2u);
  EXPECT_EQ(stats.contributions, 2u);
  EXPECT_DOUBLE_EQ(engine.data()[0].value, 2.0);
}

TEST(ShardedEngine, MirrorsObserveAppliedValuesNextStep) {
  // Step 1 writes each vertex's id; step 2 gathers neighbor values —
  // which reach remote shards only through the sync buffers.
  const CsrGraph g = gen::erdos_renyi(100, 800, 13);
  const auto p = Partitioning::create(g, 4, PartitionStrategy::kHash, 13);
  Engine<Scalar> engine(
      g, p, ClusterConfig::type_i(4),
      [](const Scalar&) { return sizeof(double); }, nullptr,
      ExecutionMode::kSharded);
  StepOptions init{.name = "init", .dir = EdgeDir::kOut};
  engine.step<SumAcc>(
      init,
      [](VertexId, VertexId, const Scalar&, const Scalar&, SumAcc&) {
        return std::size_t{0};
      },
      [](VertexId u, Scalar& du, SumAcc&, std::size_t) {
        du.value = static_cast<double>(u);
      });
  StepOptions sum{.name = "sum", .dir = EdgeDir::kOut};
  engine.step<SumAcc>(
      sum,
      [](VertexId, VertexId, const Scalar&, const Scalar& dv, SumAcc& acc) {
        acc.total += dv.value;
        return sizeof(double);
      },
      [](VertexId, Scalar& du, SumAcc& acc, std::size_t) {
        du.value = acc.total;
      });
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    double expect = 0.0;
    for (const VertexId v : g.out_neighbors(u)) {
      expect += static_cast<double>(v);
    }
    EXPECT_DOUBLE_EQ(engine.data()[u].value, expect) << "vertex " << u;
  }
}

TEST(ShardedEngine, HostDataRoundTripsThroughShards) {
  // Mutating data() between sharded steps re-scatters to the shards.
  const CsrGraph g = gen::erdos_renyi(60, 300, 5);
  const auto p = Partitioning::create(g, 2, PartitionStrategy::kGreedy);
  Engine<Scalar> engine(
      g, p, ClusterConfig::type_i(2),
      [](const Scalar&) { return sizeof(double); }, nullptr,
      ExecutionMode::kSharded);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    engine.data()[u].value = 100.0 + u;
  }
  StepOptions opt{.name = "echo", .dir = EdgeDir::kOut};
  engine.step<SumAcc>(
      opt,
      [](VertexId, VertexId, const Scalar&, const Scalar&, SumAcc&) {
        return std::size_t{0};
      },
      [](VertexId, Scalar& du, SumAcc&, std::size_t) { du.value += 1.0; });
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_DOUBLE_EQ(engine.data()[u].value, 101.0 + u);
  }
}

TEST(ShardedEngine, MemoryBudgetTriggersResourceExhausted) {
  const CsrGraph g = gen::erdos_renyi(500, 8000, 33);
  const auto p = Partitioning::create(g, 4, PartitionStrategy::kHash);
  Engine<Scalar> engine(
      g, p, ClusterConfig::type_i(4, 100),
      [](const Scalar&) { return sizeof(double); }, nullptr,
      ExecutionMode::kSharded);
  StepOptions opt{.name = "boom", .dir = EdgeDir::kOut};
  EXPECT_THROW(
      engine.step<SumAcc>(
          opt,
          [](VertexId, VertexId, const Scalar&, const Scalar&, SumAcc& acc) {
            acc.total += 1.0;
            return sizeof(double);
          },
          [](VertexId, Scalar& du, SumAcc& acc, std::size_t) {
            du.value = acc.total;
          }),
      ResourceExhausted);
}

TEST(ShardedEngine, DeterministicAcrossPoolSizes) {
  const CsrGraph g = gen::erdos_renyi(200, 1600, 41);
  const auto p = Partitioning::create(g, 8, PartitionStrategy::kGreedy, 41);
  const auto cluster = ClusterConfig::type_i(8);
  snaple::SnapleConfig cfg;
  cfg.k_local = 10;
  ThreadPool one(1);
  ThreadPool many(4);
  const auto a = run_snaple(g, cfg, p, cluster, &one, ApplyMode::kFused,
                            ExecutionMode::kSharded);
  const auto b = run_snaple(g, cfg, p, cluster, &many, ApplyMode::kFused,
                            ExecutionMode::kSharded);
  expect_snaple_equal(a, b);
}

TEST(Engine, ExplicitGrainMatchesAutoGrainResults) {
  const CsrGraph g = gen::erdos_renyi(300, 2400, 9);
  const auto p = Partitioning::create(g, 4, PartitionStrategy::kGreedy);
  std::vector<double> values[2];
  std::size_t net[2];
  int i = 0;
  for (const std::size_t grain : {0ul, 7ul}) {
    Engine<Scalar> engine(g, p, ClusterConfig::type_i(4),
                          [](const Scalar&) { return sizeof(double); });
    StepOptions opt{.name = "deg", .dir = EdgeDir::kOut, .grain = grain};
    const auto stats = engine.step<SumAcc>(
        opt,
        [](VertexId, VertexId, const Scalar&, const Scalar&, SumAcc& acc) {
          acc.total += 1.0;
          return sizeof(double);
        },
        [](VertexId, Scalar& du, SumAcc& acc, std::size_t) {
          du.value = acc.total;
        });
    for (const auto& d : engine.data()) values[i].push_back(d.value);
    net[i] = stats.net_bytes;
    ++i;
  }
  EXPECT_EQ(values[0], values[1]);
  EXPECT_EQ(net[0], net[1]);
}

}  // namespace
}  // namespace snaple::gas
