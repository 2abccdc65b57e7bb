// Live update plane for the sharded serving tier (ISSUE 9 + ISSUE 10).
//
// The load-bearing property lifts DynamicModel's contract across the
// machine line: after ANY insert/remove interleaving fanned through the
// UpdateRouter — every batch crossing a byte transport to every shard,
// every shard recomputing only its OWNED stale rows — a ServingCluster
// answers every query BIT-identical (ids AND float scores, EXPECT_EQ
// never EXPECT_NEAR) to LinkPredictor::fit on the live graph
// (base ∪ inserts − removals), across seeds × shard counts × all three
// transports × cached/uncached × op orders. Queries keep flowing during
// writer bursts: shards publish row-by-row (RCU), no stop-the-world
// anywhere, for removals exactly as for inserts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dynamic_model.hpp"
#include "core/predictor.hpp"
#include "core/query_engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/datasets.hpp"
#include "serve/live_shard.hpp"
#include "serve/model_shard.hpp"
#include "serve/router.hpp"
#include "serve/transport.hpp"

namespace snaple {
namespace {

using serve::ByteChannel;
using serve::ServeOptions;
using serve::ServingCluster;
using serve::TransportError;
using serve::TransportKind;
using serve::UpdateRouter;
using Scored = std::vector<std::pair<VertexId, float>>;

constexpr TransportKind kTransports[] = {TransportKind::kInProcess,
                                         TransportKind::kUnixSocket,
                                         TransportKind::kTcp};

/// Splits `full` into a base graph (same vertex count) and a
/// deterministic sample of ~`want` edges to replay as live inserts —
/// the union of the two is `full` by construction, so the from-scratch
/// reference is a fit on the full graph.
struct Split {
  std::shared_ptr<const CsrGraph> base;
  std::vector<Edge> inserts;
};

Split split_graph(const CsrGraph& full, std::size_t want) {
  const auto all = full.edges();
  const std::size_t stride = std::max<std::size_t>(2, all.size() / want);
  Split out;
  GraphBuilder b(full.num_vertices());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % stride == 1 && out.inserts.size() < want) {
      out.inserts.push_back(all[i]);
    } else {
      b.add_edge(all[i].src, all[i].dst);
    }
  }
  out.base = std::make_shared<const CsrGraph>(b.build());
  return out;
}

/// Fits under the insertion-stable placement LiveShard requires, with
/// cfg.seed partitioning — exactly what the live ctor's defaulted
/// partition seed resolves to.
std::shared_ptr<const PredictorModel> fit_edge_local(
    const CsrGraph& g, const SnapleConfig& cfg, std::size_t machines) {
  const auto part = gas::Partitioning::create(
      g, machines, gas::PartitionStrategy::kEdgeLocal, cfg.seed);
  const auto cluster = machines == 1
                           ? gas::ClusterConfig::single_machine(2)
                           : gas::ClusterConfig::type_i(machines);
  const LinkPredictor predictor(cfg, cluster,
                                gas::PartitionStrategy::kEdgeLocal);
  return std::make_shared<const PredictorModel>(
      predictor.fit_with_partitioning(g, part));
}

ServeOptions live_options(std::size_t shards, TransportKind transport,
                          std::size_t cache_bytes = 0) {
  ServeOptions opt;
  opt.num_shards = shards;
  opt.transport = transport;
  opt.colocate = false;  // live serving fetches; replicas cannot refresh
  opt.cache_bytes = cache_bytes;
  return opt;
}

/// One update-plane operation: a batch of inserts or of removals.
struct EdgeOp {
  bool remove;
  std::vector<Edge> edges;
};

/// Builds a deterministic insert/remove interleaving over `split`:
/// insert batches of the pending live edges, removals of base edges,
/// removals of just-inserted edges, and re-adds of removed edges. Also
/// returns the final live graph for the reference fit.
struct Churn {
  std::vector<EdgeOp> ops;
  CsrGraph live;
  std::size_t total_edges = 0;  // sum of batch sizes == final version
};

Churn make_churn(const Split& split, std::uint64_t seed) {
  std::set<std::pair<VertexId, VertexId>> live;
  for (const Edge& e : split.base->edges()) live.emplace(e.src, e.dst);
  const auto base_edges = split.base->edges();

  Churn out;
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::vector<Edge> removed;
  std::size_t next_insert = 0;
  EdgeOp pending{false, {}};
  const auto flush = [&] {
    if (pending.edges.empty()) return;
    out.total_edges += pending.edges.size();
    out.ops.push_back(std::move(pending));
    pending = EdgeOp{false, {}};
  };
  const auto push = [&](bool remove, Edge e) {
    if (pending.remove != remove || pending.edges.size() >= 5) flush();
    pending.remove = remove;
    pending.edges.push_back(e);
    if (remove) {
      live.erase({e.src, e.dst});
      removed.push_back(e);
    } else {
      live.emplace(e.src, e.dst);
    }
  };
  const auto is_live = [&](const Edge& e) {
    return live.contains({e.src, e.dst});
  };
  const auto in_pending = [&](const Edge& e) {
    return std::find_if(pending.edges.begin(), pending.edges.end(),
                        [&](const Edge& p) {
                          return p.src == e.src && p.dst == e.dst;
                        }) != pending.edges.end();
  };
  for (std::size_t op = 0; op < 70; ++op) {
    switch (rng() % 4) {
      case 0:
      case 1: {  // insert the next pending live edge
        if (next_insert < split.inserts.size()) {
          push(false, split.inserts[next_insert++]);
        }
        break;
      }
      case 2: {  // remove a random currently-live edge (base or delta)
        const Edge e = next_insert > 0 && rng() % 4 == 0
                           ? split.inserts[rng() % next_insert]
                           : base_edges[rng() % base_edges.size()];
        if (is_live(e) && !in_pending(e)) push(true, e);
        break;
      }
      case 3: {  // re-add a previously removed edge
        if (!removed.empty()) {
          const Edge e = removed[rng() % removed.size()];
          if (!is_live(e) && !in_pending(e)) push(false, e);
        }
        break;
      }
    }
  }
  flush();

  GraphBuilder b(split.base->num_vertices());
  for (const auto& [u, v] : live) b.add_edge(u, v);
  out.live = b.build();
  return out;
}

// ---------- the tentpole: live sharded ≡ union refit, bit for bit ----------

TEST(UpdatePlaneEquivalence, BitIdenticalToUnionRefitAcrossTheMatrix) {
  for (const std::uint64_t seed : {3ull, 11ull}) {
    for (const std::size_t k_hops : {2ul, 3ul}) {
      const CsrGraph full = gen::make_dataset("gowalla", 0.02, seed);
      const Split split = split_graph(full, 30);
      ASSERT_GE(split.inserts.size(), 20u);
      SnapleConfig cfg;
      cfg.k_local = 10;
      cfg.k_hops = k_hops;
      cfg.seed = seed;
      const auto base_model = fit_edge_local(*split.base, cfg, 4);
      const auto refit = fit_edge_local(full, cfg, 4);
      const QueryEngine engine(refit);
      const VertexId n = refit->num_vertices();
      std::vector<Scored> want(n);
      for (VertexId u = 0; u < n; ++u) want[u] = engine.topk(u);

      for (const std::size_t shards : {1ul, 2ul, 8ul}) {
        for (const auto transport : kTransports) {
          for (const std::size_t cache : {0ul, 1ul << 20}) {
            ServingCluster cluster(
                base_model, split.base,
                live_options(shards, transport, cache));
            ASSERT_TRUE(cluster.live());
            // Mixed batch sizes, queries interleaved mid-stream: the
            // plane serves while it absorbs.
            std::size_t at = 0;
            while (at < split.inserts.size()) {
              const std::size_t len =
                  std::min<std::size_t>(7, split.inserts.size() - at);
              (void)cluster.update_router().apply(
                  {split.inserts.data() + at, len});
              at += len;
              (void)cluster.router().topk(static_cast<VertexId>(at % n));
            }
            EXPECT_EQ(cluster.update_router().barrier(),
                      split.inserts.size());
            for (VertexId u = 0; u < n; ++u) {
              ASSERT_EQ(cluster.router().topk(u), want[u])
                  << "seed=" << seed << " K=" << k_hops
                  << " shards=" << shards
                  << " transport=" << serve::to_string(transport)
                  << " cache=" << cache << " u=" << u;
            }
          }
        }
      }
    }
  }
}

TEST(UpdatePlaneEquivalence, InsertOrdersAndBatchShapesConverge) {
  // One-by-one, one big batch, and a shuffled chunking must all land on
  // the same served state: each recompute reads the final union graph.
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 7);
  const Split split = split_graph(full, 24);
  SnapleConfig cfg;
  cfg.k_local = 10;
  cfg.k_hops = 3;
  const auto base_model = fit_edge_local(*split.base, cfg, 4);
  const auto refit = fit_edge_local(full, cfg, 4);
  const QueryEngine engine(refit);
  const VertexId n = refit->num_vertices();

  std::vector<Edge> shuffled = split.inserts;
  std::mt19937 rng(21);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  struct Shape {
    const char* name;
    const std::vector<Edge>* edges;
    std::size_t chunk;
  };
  const Shape shapes[] = {
      {"one-by-one", &split.inserts, 1},
      {"one-batch", &split.inserts, split.inserts.size()},
      {"shuffled-chunks", &shuffled, 5},
  };
  for (const Shape& s : shapes) {
    ServingCluster cluster(base_model, split.base,
                           live_options(2, TransportKind::kInProcess));
    for (std::size_t at = 0; at < s.edges->size(); at += s.chunk) {
      const std::size_t len =
          std::min(s.chunk, s.edges->size() - at);
      (void)cluster.update_router().apply({s.edges->data() + at, len});
    }
    EXPECT_EQ(cluster.update_router().barrier(), s.edges->size())
        << s.name;
    for (VertexId u = 0; u < n; ++u) {
      ASSERT_EQ(cluster.router().topk(u), engine.topk(u))
          << s.name << " u=" << u;
    }
  }
}

TEST(UpdatePlaneEquivalence, InsertRemoveInterleavingsMatchLiveRefit) {
  // The removal mirror of the matrix test above: a deterministic churn
  // of insert batches, removals (of base AND just-inserted edges), and
  // re-adds, fanned through the plane as op-4/op-6 batches. At
  // quiescence every served answer equals a fit on the final live
  // graph — flat reference vs sharded live, across shard counts ×
  // transports × cache settings.
  for (const std::uint64_t seed : {3ull, 11ull}) {
    for (const std::size_t k_hops : {2ul, 3ul}) {
      const CsrGraph full = gen::make_dataset("gowalla", 0.02, seed);
      const Split split = split_graph(full, 24);
      const Churn churn = make_churn(split, seed * 10 + k_hops);
      ASSERT_GT(churn.ops.size(), 8u);
      ASSERT_LT(churn.live.num_edges(), full.num_edges());

      SnapleConfig cfg;
      cfg.k_local = 10;
      cfg.k_hops = k_hops;
      cfg.seed = seed;
      const auto base_model = fit_edge_local(*split.base, cfg, 4);
      const auto refit = fit_edge_local(churn.live, cfg, 4);
      const QueryEngine engine(refit);
      const VertexId n = refit->num_vertices();
      std::vector<Scored> want(n);
      for (VertexId u = 0; u < n; ++u) want[u] = engine.topk(u);

      for (const std::size_t shards : {1ul, 2ul, 8ul}) {
        for (const auto transport : kTransports) {
          for (const std::size_t cache : {0ul, 1ul << 20}) {
            ServingCluster cluster(
                base_model, split.base,
                live_options(shards, transport, cache));
            std::size_t at = 0;
            for (const EdgeOp& op : churn.ops) {
              if (op.remove) {
                (void)cluster.update_router().remove(op.edges);
              } else {
                (void)cluster.update_router().apply(op.edges);
              }
              // Interleaved queries: the plane serves while it churns.
              (void)cluster.router().topk(static_cast<VertexId>(at++ % n));
            }
            EXPECT_EQ(cluster.update_router().barrier(),
                      churn.total_edges);
            for (VertexId u = 0; u < n; ++u) {
              ASSERT_EQ(cluster.router().topk(u), want[u])
                  << "seed=" << seed << " K=" << k_hops
                  << " shards=" << shards
                  << " transport=" << serve::to_string(transport)
                  << " cache=" << cache << " u=" << u;
            }
          }
        }
      }
    }
  }
}

template <typename T>
std::vector<T> to_vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

TEST(UpdatePlaneEquivalence, ShardRowsAndVersionsMatchTheFullStore) {
  // The served-answer tests above cannot see the rows or the version
  // tables. Here every per-range LiveShard, fed the same churn as one
  // full-range DynamicModel, must hold that model's Γ̂, sims (ids,
  // scores AND machines) and hop2 rows for every vertex it owns, and
  // agree on row_version for EVERY vertex, owned or not — the cache
  // keys rest on that agreement.
  for (const std::size_t k_hops : {2ul, 3ul}) {
    const CsrGraph full = gen::make_dataset("gowalla", 0.02, 5);
    const Split split = split_graph(full, 24);
    const Churn churn = make_churn(split, 50 + k_hops);
    ASSERT_TRUE(std::any_of(churn.ops.begin(), churn.ops.end(),
                            [](const EdgeOp& op) { return op.remove; }));
    SnapleConfig cfg;
    cfg.k_local = 10;
    cfg.k_hops = k_hops;
    cfg.seed = 5;
    const auto base_model = fit_edge_local(*split.base, cfg, 4);
    const VertexId n = base_model->num_vertices();

    DynamicModel store(base_model, split.base);
    for (const EdgeOp& op : churn.ops) {
      (void)(op.remove ? store.remove_edges(op.edges)
                       : store.add_edges(op.edges));
    }
    ASSERT_EQ(store.version(), churn.total_edges);

    for (const std::size_t shards : {1ul, 2ul, 3ul}) {
      const auto ranges = serve::plan_shard_ranges(*base_model, shards);
      ASSERT_EQ(ranges.size(), shards);
      for (const gas::VertexRange& range : ranges) {
        serve::LiveShard live(base_model, split.base, range);
        for (const EdgeOp& op : churn.ops) {
          (void)(op.remove ? live.remove_edges(op.edges)
                           : live.add_edges(op.edges));
        }
        ASSERT_EQ(live.version(), store.version());
        std::size_t bumped = 0;
        for (VertexId v = 0; v < n; ++v) {
          const std::string where = "K=" + std::to_string(k_hops) +
                                    " shards=" + std::to_string(shards) +
                                    " range=[" +
                                    std::to_string(range.begin) + "," +
                                    std::to_string(range.end) +
                                    ") v=" + std::to_string(v);
          ASSERT_EQ(live.row_version(v), store.row_version(v)) << where;
          if (store.row_version(v) > 0) ++bumped;
          if (!live.owns(v)) continue;
          ASSERT_EQ(to_vec(live.gamma_hat(v)), to_vec(store.gamma_hat(v)))
              << where;
          const auto ls = live.sims(v);
          const auto ds = store.sims(v);
          ASSERT_EQ(to_vec(ls.ids), to_vec(ds.ids)) << where;
          ASSERT_EQ(to_vec(ls.scores), to_vec(ds.scores)) << where;
          ASSERT_EQ(to_vec(ls.machines), to_vec(ds.machines)) << where;
          const auto lh = live.hop2(v);
          const auto dh = store.hop2(v);
          ASSERT_EQ(to_vec(lh.ids), to_vec(dh.ids)) << where;
          ASSERT_EQ(to_vec(lh.scores), to_vec(dh.scores)) << where;
        }
        EXPECT_GT(bumped, 0u);  // the churn really republished rows
      }
    }
  }
}

// ---------- cache coherence across updates ----------

TEST(UpdatePlaneCache, WarmCacheStaysCoherentThroughInserts) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 5);
  const Split split = split_graph(full, 24);
  SnapleConfig cfg;
  cfg.k_local = 10;
  cfg.k_hops = 3;
  cfg.seed = 5;
  const auto base_model = fit_edge_local(*split.base, cfg, 4);
  const auto refit = fit_edge_local(full, cfg, 4);
  const QueryEngine engine(refit);
  const VertexId n = refit->num_vertices();

  ServingCluster cluster(
      base_model, split.base,
      live_options(4, TransportKind::kInProcess, 8ul << 20));
  // Warm every shard's fetch cache on the PRE-update rows...
  for (VertexId u = 0; u < n; ++u) (void)cluster.router().topk(u);
  const auto warm = cluster.cache_stats();
  EXPECT_GT(warm.insertions, 0u);

  // ...then mutate. Republished rows got bumped versions, so warm
  // entries keyed on the old version can never be served again: the
  // lookup misses (version key) or the stale entry is dropped. Either
  // way, every post-update answer matches the union refit exactly.
  (void)cluster.update_router().apply(split.inserts);
  EXPECT_EQ(cluster.update_router().barrier(), split.inserts.size());
  for (VertexId u = 0; u < n; ++u) {
    ASSERT_EQ(cluster.router().topk(u), engine.topk(u)) << "u=" << u;
  }
  const auto after = cluster.cache_stats();
  EXPECT_GT(after.hits, 0u);  // untouched rows keep hitting
  EXPECT_GT(after.misses, warm.misses);  // republished rows re-fetch
}

TEST(UpdatePlaneCache, WarmCacheStaysCoherentThroughRemovals) {
  // A cached row staled by a REMOVAL must miss-and-drop exactly like one
  // staled by an insert: the shard bumps row_version for every stale
  // vertex, so the warm entry's version key can never match again.
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 5);
  const auto g = std::make_shared<const CsrGraph>(full);
  SnapleConfig cfg;
  cfg.k_local = 10;
  cfg.k_hops = 3;
  cfg.seed = 5;
  const auto base_model = fit_edge_local(full, cfg, 4);

  ServingCluster cluster(
      base_model, g, live_options(4, TransportKind::kInProcess, 8ul << 20));
  const VertexId n = base_model->num_vertices();
  // Warm every shard's fetch cache on the PRE-removal rows...
  for (VertexId u = 0; u < n; ++u) (void)cluster.router().topk(u);
  const auto warm = cluster.cache_stats();
  EXPECT_GT(warm.insertions, 0u);

  // ...then remove a spread of base edges and check every answer
  // against a fit on the shrunken graph.
  const auto all = full.edges();
  std::vector<Edge> victims;
  const std::size_t stride = std::max<std::size_t>(2, all.size() / 16);
  for (std::size_t i = 0; i < all.size() && victims.size() < 16;
       i += stride) {
    victims.push_back(all[i]);
  }
  (void)cluster.update_router().remove(victims);
  EXPECT_EQ(cluster.update_router().barrier(), victims.size());

  GraphBuilder b(full.num_vertices());
  std::set<std::pair<VertexId, VertexId>> dropped;
  for (const Edge& e : victims) dropped.emplace(e.src, e.dst);
  for (const Edge& e : all) {
    if (!dropped.contains({e.src, e.dst})) b.add_edge(e.src, e.dst);
  }
  const CsrGraph shrunk = b.build();
  const auto refit = fit_edge_local(shrunk, cfg, 4);
  const QueryEngine engine(refit);
  for (VertexId u = 0; u < n; ++u) {
    ASSERT_EQ(cluster.router().topk(u), engine.topk(u)) << "u=" << u;
  }
  const auto after = cluster.cache_stats();
  EXPECT_GT(after.hits, 0u);             // untouched rows keep hitting
  EXPECT_GT(after.misses, warm.misses);  // republished rows re-fetch
}

// ---------- queries stay live during writer bursts ----------

TEST(UpdatePlaneConcurrency, ReadersNeverBlockOrTearDuringBursts) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.03, 17);
  const Split split = split_graph(full, 64);
  SnapleConfig cfg;
  cfg.k_hops = 3;  // hop2 republishes in the mix too
  cfg.k_local = 10;
  cfg.seed = 17;
  const auto base_model = fit_edge_local(*split.base, cfg, 4);

  ServeOptions opt = live_options(4, TransportKind::kInProcess, 4ul << 20);
  opt.connections_per_shard = 2;
  ServingCluster cluster(base_model, split.base, opt);
  const VertexId n = base_model->num_vertices();

  constexpr std::size_t kThreads = 6;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> bad{0};
  std::atomic<std::size_t> queries{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      VertexId u = static_cast<VertexId>((t * 131) % n);
      while (!done.load(std::memory_order_relaxed)) {
        const Scored got = cluster.router().topk(u);
        // Structural invariants any untorn row state satisfies:
        // bounded size, in-range distinct ids, finite descending
        // scores. (Bit-equality holds only at quiescence — a row may
        // be mid-republish — but a TORN row would break these.)
        bool ok = got.size() <= cfg.k;
        for (std::size_t i = 0; i < got.size() && ok; ++i) {
          ok = got[i].first < n && std::isfinite(got[i].second) &&
               (i == 0 || got[i - 1].second >= got[i].second);
          for (std::size_t j = 0; j < i && ok; ++j) {
            ok = got[j].first != got[i].first;
          }
        }
        if (!ok) bad.fetch_add(1, std::memory_order_relaxed);
        queries.fetch_add(1, std::memory_order_relaxed);
        u = (u + 17) % n;
      }
    });
  }

  // The writer burst: small batches back-to-back, readers in flight the
  // whole time.
  for (std::size_t at = 0; at < split.inserts.size(); at += 4) {
    const std::size_t len =
        std::min<std::size_t>(4, split.inserts.size() - at);
    (void)cluster.update_router().apply({split.inserts.data() + at, len});
  }
  done.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(queries.load(), 0u);

  // Quiescent: every answer equals the union refit.
  EXPECT_EQ(cluster.update_router().barrier(), split.inserts.size());
  const auto refit = fit_edge_local(full, cfg, 4);
  const QueryEngine engine(refit);
  for (VertexId u = 0; u < n; ++u) {
    ASSERT_EQ(cluster.router().topk(u), engine.topk(u)) << "u=" << u;
  }
}

TEST(UpdatePlaneConcurrency, ReadersNeverBlockOrTearDuringMixedChurn) {
  // The mixed insert+remove mirror of the burst test: tombstone
  // republication rides the same RCU slab path, so readers must stay
  // untorn through interleaved op-4/op-6 batches too (TSan-covered).
  const CsrGraph full = gen::make_dataset("gowalla", 0.03, 17);
  const Split split = split_graph(full, 48);
  SnapleConfig cfg;
  cfg.k_hops = 3;
  cfg.k_local = 10;
  cfg.seed = 17;
  const auto base_model = fit_edge_local(*split.base, cfg, 4);
  const Churn churn = make_churn(split, 17);

  ServeOptions opt = live_options(4, TransportKind::kInProcess, 4ul << 20);
  opt.connections_per_shard = 2;
  ServingCluster cluster(base_model, split.base, opt);
  const VertexId n = base_model->num_vertices();

  constexpr std::size_t kThreads = 6;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> bad{0};
  std::atomic<std::size_t> queries{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      VertexId u = static_cast<VertexId>((t * 131) % n);
      while (!done.load(std::memory_order_relaxed)) {
        const Scored got = cluster.router().topk(u);
        bool ok = got.size() <= cfg.k;
        for (std::size_t i = 0; i < got.size() && ok; ++i) {
          ok = got[i].first < n && std::isfinite(got[i].second) &&
               (i == 0 || got[i - 1].second >= got[i].second);
          for (std::size_t j = 0; j < i && ok; ++j) {
            ok = got[j].first != got[i].first;
          }
        }
        if (!ok) bad.fetch_add(1, std::memory_order_relaxed);
        queries.fetch_add(1, std::memory_order_relaxed);
        u = (u + 17) % n;
      }
    });
  }

  for (const EdgeOp& op : churn.ops) {
    if (op.remove) {
      (void)cluster.update_router().remove(op.edges);
    } else {
      (void)cluster.update_router().apply(op.edges);
    }
  }
  done.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(queries.load(), 0u);

  // Quiescent: every answer equals the live-graph refit.
  EXPECT_EQ(cluster.update_router().barrier(), churn.total_edges);
  const auto refit = fit_edge_local(churn.live, cfg, 4);
  const QueryEngine engine(refit);
  for (VertexId u = 0; u < n; ++u) {
    ASSERT_EQ(cluster.router().topk(u), engine.topk(u)) << "u=" << u;
  }
}

// ---------- rejection: atomic, cross-wire, plane survives ----------

TEST(UpdatePlaneRejection, BadBatchesThrowChangeNothingAndPlaneLives) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 13);
  const Split split = split_graph(full, 8);
  SnapleConfig cfg;
  cfg.seed = 13;
  const auto base_model = fit_edge_local(*split.base, cfg, 4);
  ASSERT_GE(split.inserts.size(), 4u);

  for (const auto transport : kTransports) {
    ServingCluster cluster(base_model, split.base,
                           live_options(2, transport));
    UpdateRouter& plane = cluster.update_router();
    const VertexId n = base_model->num_vertices();
    const Edge existing = split.base->edges().front();

    // One good batch first; snapshot a served answer the rejects below
    // must leave untouched.
    (void)plane.apply({split.inserts.data(), 1});
    const Scored want0 = cluster.router().topk(0);
    const std::uint64_t version = plane.barrier();

    const auto expect_reject = [&](std::vector<Edge> batch) {
      EXPECT_THROW((void)plane.apply(batch), CheckError);
    };
    expect_reject({{3, 3}});                          // self-loop
    expect_reject({{n, 0}});                          // src out of range
    expect_reject({{0, static_cast<VertexId>(n + 7)}});  // dst range
    expect_reject({existing});                        // base duplicate
    expect_reject({split.inserts[0]});                // insert duplicate
    // One bad edge rejects the whole batch on EVERY shard: atomic.
    expect_reject({split.inserts[1], split.inserts[2], {7, 7}});
    expect_reject({split.inserts[3], split.inserts[3]});  // intra-batch dup

    EXPECT_EQ(plane.barrier(), version);
    EXPECT_EQ(cluster.router().topk(0), want0);

    // The plane survives rejection: a clean batch still applies.
    (void)plane.apply({split.inserts.data() + 1, 2});
    EXPECT_EQ(plane.barrier(), version + 2)
        << serve::to_string(transport);
  }
}

TEST(UpdatePlaneRejection, BadRemoveBatchesThrowChangeNothingAndPlaneLives) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 13);
  const Split split = split_graph(full, 8);
  SnapleConfig cfg;
  cfg.seed = 13;
  const auto base_model = fit_edge_local(*split.base, cfg, 4);
  const auto base_edges = split.base->edges();

  for (const auto transport : kTransports) {
    ServingCluster cluster(base_model, split.base,
                           live_options(2, transport));
    UpdateRouter& plane = cluster.update_router();
    const VertexId n = base_model->num_vertices();

    // One good removal first; snapshot a served answer the rejects
    // below must leave untouched.
    const Edge gone = base_edges.front();
    (void)plane.remove({&gone, 1});
    const Scored want0 = cluster.router().topk(0);
    const std::uint64_t version = plane.barrier();
    ASSERT_EQ(version, 1u);

    const auto expect_reject = [&](std::vector<Edge> batch) {
      EXPECT_THROW((void)plane.remove(batch), CheckError);
    };
    expect_reject({{3, 3}});                             // self-loop
    expect_reject({{n, 0}});                             // src out of range
    expect_reject({{0, static_cast<VertexId>(n + 7)}});  // dst range
    expect_reject({gone});                               // already removed
    expect_reject({split.inserts[0]});                   // never was live
    // One bad removal rejects the whole batch on EVERY shard: atomic.
    expect_reject({base_edges[1], base_edges[2], gone});
    expect_reject({base_edges[3], base_edges[3]});  // intra-batch dup

    EXPECT_EQ(plane.barrier(), version);
    EXPECT_EQ(cluster.router().topk(0), want0);

    // The plane survives rejection: a clean removal still applies, and
    // the tombstoned edge is re-insertable (insert validator agrees).
    (void)plane.remove({base_edges.data() + 1, 2});
    (void)plane.apply({&gone, 1});
    EXPECT_EQ(plane.barrier(), version + 3)
        << serve::to_string(transport);
  }
}

TEST(UpdatePlaneRejection, StaticShardsAndClustersRefuseUpdates) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 3);
  SnapleConfig cfg;
  const LinkPredictor predictor(cfg);
  const auto model =
      std::make_shared<const PredictorModel>(predictor.fit(full));

  // A static cluster has no write plane at all.
  ServeOptions opt;
  opt.num_shards = 2;
  ServingCluster cluster(*model, opt);
  EXPECT_FALSE(cluster.live());
  EXPECT_THROW((void)cluster.update_router(), CheckError);

  // And a static shard wired to an UpdateRouter by hand rejects op 4 as
  // an error RESPONSE (CheckError here, connection intact) — not a
  // protocol wedge.
  const VertexId n = model->num_vertices();
  serve::ShardServer server(
      serve::ModelShard::build(*model, {0, n}, true), {{0, n}});
  auto link = serve::make_channel_pair(TransportKind::kInProcess);
  server.serve(std::move(link.server));
  std::vector<std::unique_ptr<ByteChannel>> links;
  links.push_back(std::move(link.client));
  UpdateRouter plane(std::move(links));
  const Edge e{0, 1};
  EXPECT_THROW((void)plane.apply({&e, 1}), CheckError);
  EXPECT_THROW((void)plane.remove({&e, 1}), CheckError);  // op 6 too
  EXPECT_THROW((void)plane.barrier(), CheckError);
  EXPECT_EQ(server.stats().errors, 3u);
}

TEST(UpdatePlaneRejection, LiveClusterRequiresFetchModeAndStableTags) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 3);
  const auto g = std::make_shared<const CsrGraph>(full);
  SnapleConfig cfg;
  const auto ok_model = fit_edge_local(*g, cfg, 4);

  // colocate=true cannot stay fresh (replicated rows never republish).
  ServeOptions colocated;
  colocated.num_shards = 2;
  colocated.colocate = true;
  EXPECT_THROW(ServingCluster(ok_model, g, colocated), CheckError);

  // Position-dependent (greedy) tags cannot be replayed: refused.
  const auto part = gas::Partitioning::create(
      *g, 4, gas::PartitionStrategy::kGreedy, cfg.seed);
  const LinkPredictor greedy(cfg, gas::ClusterConfig::type_i(4));
  const auto wrong = std::make_shared<const PredictorModel>(
      greedy.fit_with_partitioning(*g, part));
  EXPECT_THROW(
      ServingCluster(wrong, g, live_options(2, TransportKind::kInProcess)),
      CheckError);

  EXPECT_THROW(
      ServingCluster(ok_model, nullptr,
                     live_options(2, TransportKind::kInProcess)),
      CheckError);

  // A shard range must lie inside the model.
  const VertexId n = ok_model->num_vertices();
  EXPECT_THROW(serve::LiveShard(ok_model, g, {0, n + 1}), CheckError);
  EXPECT_THROW(serve::LiveShard(ok_model, g, {5, 3}), CheckError);

  // A shard serves only the rows it owns: reads of any other vertex
  // throw instead of quietly answering from the base model.
  const serve::LiveShard half(ok_model, g, {0, n / 2});
  const VertexId other = n - 1;
  ASSERT_FALSE(half.owns(other));
  EXPECT_THROW((void)half.gamma_hat(other), CheckError);
  EXPECT_THROW((void)half.sims(other), CheckError);
  EXPECT_THROW((void)half.hop2(other), CheckError);
  EXPECT_THROW((void)half.topk(other), CheckError);
  EXPECT_THROW((void)half.snapshot_row(other), CheckError);
  EXPECT_NO_THROW((void)half.sims(0));
}

// ---------- version and stats accounting ----------

TEST(UpdatePlaneStats, CountersTrackBatchesRowsAndBytes) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 9);
  const Split split = split_graph(full, 12);
  SnapleConfig cfg;
  cfg.k_hops = 3;
  cfg.seed = 9;
  const auto base_model = fit_edge_local(*split.base, cfg, 4);

  ServingCluster cluster(base_model, split.base,
                         live_options(2, TransportKind::kUnixSocket));
  UpdateRouter& plane = cluster.update_router();
  ASSERT_EQ(plane.num_shards(), 2u);

  const auto r1 = plane.apply({split.inserts.data(), 4});
  EXPECT_EQ(r1.version, 4u);
  EXPECT_GE(r1.gamma_rows, 4u);  // ≥ one gamma row per distinct source
  EXPECT_GE(r1.sims_rows, r1.gamma_rows);  // {src} ∪ in(src) ⊇ {src}
  const auto r2 = plane.apply({split.inserts.data() + 4, 3});
  EXPECT_EQ(r2.version, 7u);

  // A removal is one more operation on the shared version counter and
  // lands in its own batch/edge counters.
  const Edge victim = split.base->edges().front();
  const auto r3 = plane.remove({&victim, 1});
  EXPECT_EQ(r3.version, 8u);
  EXPECT_GE(r3.gamma_rows, 1u);  // the severed source republishes

  const auto us = plane.stats();
  EXPECT_EQ(us.batches, 2u);
  EXPECT_EQ(us.edges, 7u);
  EXPECT_EQ(us.remove_batches, 1u);
  EXPECT_EQ(us.removals, 1u);
  EXPECT_EQ(us.version, 8u);
  EXPECT_EQ(us.gamma_rows, r1.gamma_rows + r2.gamma_rows + r3.gamma_rows);
  EXPECT_EQ(us.sims_rows, r1.sims_rows + r2.sims_rows + r3.sims_rows);
  EXPECT_EQ(us.hop2_rows, r1.hop2_rows + r2.hop2_rows + r3.hop2_rows);
  EXPECT_GT(us.bytes_sent, 0u);
  EXPECT_GT(us.bytes_received, 0u);

  // Shard-side mirror: every shard saw every batch; the owned republish
  // counts partition the global ones (ranges partition the vertices).
  std::uint64_t batches = 0, edges = 0, gamma = 0, sims = 0, hop2 = 0,
                overlay = 0;
  for (const auto& s : cluster.stats()) {
    EXPECT_EQ(s.update_batches, 2u);
    EXPECT_EQ(s.remove_batches, 1u);
    EXPECT_EQ(s.remove_edges, 1u);
    batches += s.update_batches;
    edges += s.update_edges;
    gamma += s.gamma_republished;
    sims += s.sims_republished;
    hop2 += s.hop2_republished;
    overlay += s.overlay_bytes;
  }
  EXPECT_EQ(batches, 2u * plane.num_shards());
  EXPECT_EQ(edges, 7u * plane.num_shards());  // every shard inserts all
  EXPECT_EQ(gamma, us.gamma_rows);
  EXPECT_EQ(sims, us.sims_rows);
  EXPECT_EQ(hop2, us.hop2_rows);
  EXPECT_GT(overlay, 0u);

  EXPECT_EQ(plane.barrier(), 8u);
  EXPECT_EQ(plane.stats().version, 8u);
}

// ---------- fail-stop: a dead link kills the whole plane ----------

TEST(UpdatePlaneFailure, TornFanOutGoesDeadInsteadOfHalfApplying) {
  const CsrGraph full = gen::make_dataset("gowalla", 0.02, 11);
  const Split split = split_graph(full, 8);
  SnapleConfig cfg;
  cfg.seed = 11;
  const auto base_model = fit_edge_local(*split.base, cfg, 1);
  const VertexId n = base_model->num_vertices();

  // Hand-assemble a 2-"shard" plane where the second link's server end
  // is dropped immediately: the fan-out tears mid-batch.
  auto live = std::make_shared<serve::LiveShard>(
      base_model, split.base, gas::VertexRange{0, n});
  serve::ShardServer server(live, {{0, n}});
  auto good = serve::make_channel_pair(TransportKind::kInProcess);
  auto broken = serve::make_channel_pair(TransportKind::kInProcess);
  server.serve(std::move(good.server));
  broken.server.reset();  // peer gone before the first byte
  std::vector<std::unique_ptr<ByteChannel>> links;
  links.push_back(std::move(good.client));
  links.push_back(std::move(broken.client));
  UpdateRouter plane(std::move(links));

  EXPECT_THROW((void)plane.apply({split.inserts.data(), 2}),
               TransportError);
  // Dead means dead: no later call can half-apply on the live shard.
  EXPECT_THROW((void)plane.apply({split.inserts.data() + 2, 1}),
               TransportError);
  EXPECT_THROW((void)plane.barrier(), TransportError);
}

}  // namespace
}  // namespace snaple
