// Tests for the vertex-cut partitioner.
#include <gtest/gtest.h>

#include "gas/partition.hpp"
#include "graph/builder.hpp"
#include "graph/compressed_csr.hpp"
#include "graph/gen/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace snaple::gas {
namespace {

CsrGraph test_graph() { return gen::erdos_renyi(300, 3000, 5); }

class PartitionStrategies
    : public ::testing::TestWithParam<PartitionStrategy> {};

INSTANTIATE_TEST_SUITE_P(Both, PartitionStrategies,
                         ::testing::Values(PartitionStrategy::kHash,
                                           PartitionStrategy::kGreedy),
                         [](const auto& info) {
                           return info.param == PartitionStrategy::kHash
                                      ? "hash"
                                      : "greedy";
                         });

TEST_P(PartitionStrategies, EveryEdgeAssignedWithinRange) {
  const CsrGraph g = test_graph();
  const auto p = Partitioning::create(g, 8, GetParam());
  EdgeIndex total = 0;
  for (EdgeIndex e = 0; e < g.num_edges(); ++e) {
    EXPECT_LT(p.edge_machine(e), 8);
  }
  for (const auto load : p.edges_per_machine()) total += load;
  EXPECT_EQ(total, g.num_edges());
}

TEST_P(PartitionStrategies, ReplicasCoverEdgeEndpoints) {
  const CsrGraph g = test_graph();
  const auto p = Partitioning::create(g, 8, GetParam());
  EdgeIndex e = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for ([[maybe_unused]] VertexId v : g.out_neighbors(u)) {
      const MachineId m = p.edge_machine(e);
      EXPECT_TRUE(p.replicas(u).contains(m));
      EXPECT_TRUE(p.replicas(g.edge_target(e)).contains(m));
      ++e;
    }
  }
}

TEST_P(PartitionStrategies, MasterIsAReplica) {
  const CsrGraph g = test_graph();
  const auto p = Partitioning::create(g, 8, GetParam());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_TRUE(p.replicas(u).contains(p.master(u)));
    EXPECT_GE(p.replicas(u).count(), 1);
  }
}

TEST_P(PartitionStrategies, ReplicationFactorBounds) {
  const CsrGraph g = test_graph();
  const auto p = Partitioning::create(g, 8, GetParam());
  EXPECT_GE(p.replication_factor(), 1.0);
  EXPECT_LE(p.replication_factor(), 8.0);
}

TEST_P(PartitionStrategies, Deterministic) {
  const CsrGraph g = test_graph();
  const auto a = Partitioning::create(g, 4, GetParam(), 9);
  const auto b = Partitioning::create(g, 4, GetParam(), 9);
  for (EdgeIndex e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(a.edge_machine(e), b.edge_machine(e));
  }
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_EQ(a.master(u), b.master(u));
  }
}

TEST(Partitioning, SingleMachineTrivial) {
  const CsrGraph g = test_graph();
  const auto p = Partitioning::create(g, 1, PartitionStrategy::kGreedy);
  EXPECT_DOUBLE_EQ(p.replication_factor(), 1.0);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_EQ(p.master(u), 0);
  }
}

TEST(Partitioning, GreedyBeatsHashOnReplication) {
  // The greedy heuristic's whole point (PowerGraph §4): fewer replicas on
  // power-law graphs. Compare on a BA graph.
  const CsrGraph g = gen::barabasi_albert(2000, 5, 7);
  const auto hash = Partitioning::create(g, 16, PartitionStrategy::kHash);
  const auto greedy =
      Partitioning::create(g, 16, PartitionStrategy::kGreedy);
  EXPECT_LT(greedy.replication_factor(), hash.replication_factor());
}

TEST(Partitioning, GreedyBalancesLoad) {
  const CsrGraph g = test_graph();
  const auto p = Partitioning::create(g, 8, PartitionStrategy::kGreedy);
  const auto& loads = p.edges_per_machine();
  const EdgeIndex expected = g.num_edges() / 8;
  for (const auto load : loads) {
    EXPECT_GT(load, expected / 3);
    EXPECT_LT(load, expected * 3);
  }
}

TEST(Partitioning, IsolatedVerticesGetPlacement) {
  GraphBuilder b(10);
  b.add_edge(0, 1);  // vertices 2..9 isolated
  const CsrGraph g = b.build();
  const auto p = Partitioning::create(g, 4, PartitionStrategy::kGreedy);
  for (VertexId u = 2; u < 10; ++u) {
    EXPECT_EQ(p.replicas(u).count(), 1);
    EXPECT_TRUE(p.replicas(u).contains(p.master(u)));
  }
}

TEST(Partitioning, RejectsTooManyMachines) {
  const CsrGraph g = test_graph();
  EXPECT_THROW(Partitioning::create(g, 65, PartitionStrategy::kHash),
               CheckError);
  EXPECT_THROW(Partitioning::create(g, 0, PartitionStrategy::kHash),
               CheckError);
}

TEST(Partitioning, SixtyFourMachinesSupported) {
  const CsrGraph g = test_graph();
  const auto p = Partitioning::create(g, 64, PartitionStrategy::kHash);
  EXPECT_EQ(p.num_machines(), 64u);
}

// ---------- from_edge_assignment edge cases ----------

TEST(FromEdgeAssignment, RejectsOutOfRangeMachineWithClearError) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const CsrGraph g = b.build();
  try {
    const auto p = Partitioning::from_edge_assignment(g, 4, {0, 9});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    // The error names the offending index, value and machine count —
    // nothing may be indexed before validation runs.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("edge_machine[1] = 9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4 machines"), std::string::npos) << msg;
  }
  // Boundary: machine id == machines is already out of range.
  EXPECT_THROW(Partitioning::from_edge_assignment(g, 2, {0, 2}),
               CheckError);
}

TEST(FromEdgeAssignment, IsolatedVerticesGetDeterministicPlacement) {
  GraphBuilder b(8);
  b.add_edge(0, 1);  // vertices 2..7 isolated
  const CsrGraph g = b.build();
  const auto p = Partitioning::from_edge_assignment(g, 4, {2});
  EXPECT_EQ(p.master(0), 2);
  EXPECT_EQ(p.master(1), 2);
  for (VertexId u = 2; u < 8; ++u) {
    EXPECT_EQ(p.replicas(u).count(), 1);
    EXPECT_TRUE(p.replicas(u).contains(p.master(u)));
    EXPECT_LT(p.master(u), 4);
  }
  const auto q = Partitioning::from_edge_assignment(g, 4, {2});
  for (VertexId u = 0; u < 8; ++u) EXPECT_EQ(p.master(u), q.master(u));
}

TEST(FromEdgeAssignment, SingleMachineIsTrivial) {
  const CsrGraph g = test_graph();
  const std::vector<MachineId> all_zero(g.num_edges(), 0);
  const auto p = Partitioning::from_edge_assignment(g, 1, all_zero);
  EXPECT_DOUBLE_EQ(p.replication_factor(), 1.0);
  EXPECT_EQ(p.edges_per_machine()[0], g.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_EQ(p.master(u), 0);
  }
}

TEST(FromEdgeAssignment, AllEdgesOnOneMachineOfMany) {
  const CsrGraph g = test_graph();
  const std::vector<MachineId> all_three(g.num_edges(), 3);
  const auto p = Partitioning::from_edge_assignment(g, 8, all_three);
  EXPECT_EQ(p.edges_per_machine()[3], g.num_edges());
  for (std::size_t m = 0; m < 8; ++m) {
    if (m != 3) {
      EXPECT_EQ(p.edges_per_machine()[m], 0u);
    }
  }
  // Every connected vertex lives (and is mastered) on machine 3 only.
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (g.out_degree(u) + g.in_degree(u) == 0) continue;
    EXPECT_EQ(p.replicas(u).count(), 1);
    EXPECT_EQ(p.master(u), 3);
  }
  EXPECT_DOUBLE_EQ(p.replication_factor(), 1.0);
}

TEST(FromEdgeAssignment, SixtyFourMachinesRoundRobin) {
  const CsrGraph g = gen::erdos_renyi(300, 3000, 21);
  std::vector<MachineId> assign(g.num_edges());
  for (EdgeIndex e = 0; e < g.num_edges(); ++e) {
    assign[e] = static_cast<MachineId>(e % 64);
  }
  const auto p = Partitioning::from_edge_assignment(g, 64, assign);
  EXPECT_EQ(p.num_machines(), 64u);
  EdgeIndex total = 0;
  for (const auto load : p.edges_per_machine()) total += load;
  EXPECT_EQ(total, g.num_edges());
  for (EdgeIndex e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(p.edge_machine(e), e % 64);
  }
  // Machine 64 would be one past the mask.
  assign[0] = 64;
  EXPECT_THROW(Partitioning::from_edge_assignment(g, 64, assign),
               CheckError);
}

// ---------- the parallel epilogue against the serial oracle ----------

/// Everything the epilogue derives from an edge assignment.
struct Derived {
  std::vector<MachineId> master;
  std::vector<std::uint64_t> replicas;
  std::vector<std::uint64_t> out_owners;
  std::vector<std::uint64_t> in_owners;
  std::vector<EdgeIndex> load;
};

/// The serial epilogue the parallel one replaced, kept as the oracle:
/// one pass over the edges for replicas, masks and loads, then per
/// vertex a tally over its out-edges and (by edge_index lookups) its
/// in-edges; the master is the replica holding most of them, ties to
/// the lowest machine id, and isolated vertices are hash-placed.
Derived serial_epilogue(const CsrGraph& g, const Partitioning& p,
                        std::uint64_t seed) {
  const std::size_t machines = p.num_machines();
  const VertexId n = g.num_vertices();
  Derived d{std::vector<MachineId>(n, 0), std::vector<std::uint64_t>(n, 0),
            std::vector<std::uint64_t>(n, 0),
            std::vector<std::uint64_t>(n, 0),
            std::vector<EdgeIndex>(machines, 0)};
  EdgeIndex e = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : g.out_neighbors(u)) {
      const std::uint64_t bit = std::uint64_t{1} << p.edge_machine(e);
      ++d.load[p.edge_machine(e)];
      d.replicas[u] |= bit;
      d.replicas[v] |= bit;
      d.out_owners[u] |= bit;
      d.in_owners[v] |= bit;
      ++e;
    }
  }
  std::vector<EdgeIndex> tally(machines);
  for (VertexId u = 0; u < n; ++u) {
    if (d.replicas[u] == 0) {
      const auto m =
          static_cast<MachineId>(SplitMix64(seed ^ u).next() % machines);
      d.replicas[u] = std::uint64_t{1} << m;
      d.master[u] = m;
      continue;
    }
    std::fill(tally.begin(), tally.end(), 0);
    const EdgeIndex begin = g.out_offset(u);
    for (EdgeIndex i = begin; i < begin + g.out_degree(u); ++i) {
      ++tally[p.edge_machine(i)];
    }
    for (const VertexId v : g.in_neighbors(u)) {
      ++tally[p.edge_machine(g.edge_index(v, u))];
    }
    int best = -1;
    for (std::size_t m = 0; m < machines; ++m) {
      if (((d.replicas[u] >> m) & 1u) == 0) continue;
      if (best < 0 || tally[m] > tally[static_cast<std::size_t>(best)]) {
        best = static_cast<int>(m);
      }
    }
    d.master[u] = static_cast<MachineId>(best);
  }
  return d;
}

void expect_matches_oracle(const CsrGraph& g, const Partitioning& p,
                           std::uint64_t seed) {
  const Derived want = serial_epilogue(g, p, seed);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    ASSERT_EQ(p.master(u), want.master[u]) << "vertex " << u;
    ASSERT_EQ(p.replicas(u).bits(), want.replicas[u]) << "vertex " << u;
    ASSERT_EQ(p.out_edge_owners(u), want.out_owners[u]) << "vertex " << u;
    ASSERT_EQ(p.in_edge_owners(u), want.in_owners[u]) << "vertex " << u;
  }
  EXPECT_EQ(p.edges_per_machine(), want.load);
}

/// A skewed directed graph with hubs, a multi-block vertex count and
/// trailing isolated vertices.
CsrGraph epilogue_graph() {
  const CsrGraph base =
      gen::orient(gen::barabasi_albert(6000, 4, 11), 0.5, 12);
  GraphBuilder b(base.num_vertices() + 40);
  for (VertexId u = 0; u < base.num_vertices(); ++u) {
    for (const VertexId v : base.out_neighbors(u)) b.add_edge(u, v);
  }
  return b.build();
}

TEST(PartitionEpilogue, MatchesSerialOracleForEveryStrategyAndPoolSize) {
  const CsrGraph g = epilogue_graph();
  const auto cg = CompressedCsrGraph::from_graph(g);
  constexpr std::uint64_t kSeed = 21;
  for (const std::size_t workers : {1, 2, 3, 8}) {
    ThreadPool pool(workers);
    for (const auto strategy :
         {PartitionStrategy::kHash, PartitionStrategy::kGreedy,
          PartitionStrategy::kEdgeLocal}) {
      SCOPED_TRACE(::testing::Message()
                   << "workers " << workers << " strategy "
                   << static_cast<int>(strategy));
      const auto p = Partitioning::create(g, 8, strategy, kSeed, &pool);
      expect_matches_oracle(g, p, kSeed);
      // The compressed graph decodes rows per thread; same partitioning.
      const auto pc = Partitioning::create(cg, 8, strategy, kSeed, &pool);
      for (EdgeIndex e = 0; e < g.num_edges(); ++e) {
        ASSERT_EQ(pc.edge_machine(e), p.edge_machine(e));
      }
      expect_matches_oracle(g, pc, kSeed);
    }
  }
}

TEST(PartitionEpilogue, FromEdgeAssignmentMatchesOracleOnAnyPool) {
  const CsrGraph g = epilogue_graph();
  const auto cg = CompressedCsrGraph::from_graph(g);
  std::vector<MachineId> assign(g.num_edges());
  Rng rng(5);
  for (auto& m : assign) m = static_cast<MachineId>(rng.next_below(64));
  for (const std::size_t workers : {1, 2, 3, 8}) {
    ThreadPool pool(workers);
    SCOPED_TRACE(::testing::Message() << "workers " << workers);
    const auto p = Partitioning::from_edge_assignment(g, 64, assign, &pool);
    expect_matches_oracle(g, p, /*seed=*/7);
    const auto pc =
        Partitioning::from_edge_assignment(cg, 64, assign, &pool);
    expect_matches_oracle(g, pc, /*seed=*/7);
  }
}

TEST(ReplicaSet, BitOperations) {
  ReplicaSet r;
  EXPECT_TRUE(r.empty());
  r.add(0);
  r.add(63);
  r.add(0);  // idempotent
  EXPECT_EQ(r.count(), 2);
  EXPECT_TRUE(r.contains(0));
  EXPECT_TRUE(r.contains(63));
  EXPECT_FALSE(r.contains(5));
  std::vector<int> seen;
  r.for_each([&](MachineId m) { seen.push_back(m); });
  EXPECT_EQ(seen, (std::vector<int>{0, 63}));
}

}  // namespace
}  // namespace snaple::gas
