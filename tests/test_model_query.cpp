// Serving API: PredictorModel (fit artifact + binary format) and
// QueryEngine (on-demand single-vertex prediction).
//
// The load-bearing property: QueryEngine::topk(u) is BIT-identical —
// predictions and float scores — to the batch path run_snaple for every
// vertex, across seeds, flat/sharded-built models and K=2/K=3. Floats
// make this strict: the query replays step 3's machine-grouped ⊕pre fold
// exactly (model.hpp), so EXPECT_EQ on (id, score) pairs is the right
// assertion, not EXPECT_NEAR.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "core/dynamic_model.hpp"
#include "core/model.hpp"
#include "core/predictor.hpp"
#include "core/query_engine.hpp"
#include "core/row_recompute.hpp"
#include "core/snaple_program.hpp"
#include "graph/builder.hpp"
#include "graph/gen/datasets.hpp"
#include "graph/io.hpp"

namespace snaple {
namespace {

using Scored = std::vector<std::pair<VertexId, float>>;

struct BatchAndModel {
  SnapleResult batch;
  std::shared_ptr<const PredictorModel> model;
};

/// Runs the batch primitive and fits a model on the SAME partitioning /
/// cluster / execution mode, so the two sides see identical float folds.
BatchAndModel batch_and_model(const CsrGraph& g, const SnapleConfig& cfg,
                              std::size_t machines,
                              gas::ExecutionMode exec) {
  const auto part = gas::Partitioning::create(
      g, machines, gas::PartitionStrategy::kGreedy, cfg.seed);
  const auto cluster = machines == 1 ? gas::ClusterConfig::single_machine(2)
                                     : gas::ClusterConfig::type_i(machines);
  BatchAndModel out;
  out.batch = run_snaple(g, cfg, part, cluster, nullptr,
                         gas::ApplyMode::kFused, exec);
  const LinkPredictor predictor(cfg, cluster,
                                gas::PartitionStrategy::kGreedy, exec);
  out.model = std::make_shared<const PredictorModel>(
      predictor.fit_with_partitioning(g, part));
  return out;
}

// ---------- query ≡ batch equivalence (the tentpole property) ----------

TEST(QueryEquivalence, BitIdenticalToBatchAcrossSeedsModesAndK) {
  for (const std::uint64_t seed : {3ull, 5ull, 11ull}) {
    const CsrGraph g = gen::make_dataset("gowalla", 0.02, seed);
    for (const std::size_t k_hops : {2ul, 3ul}) {
      for (const auto exec :
           {gas::ExecutionMode::kFlat, gas::ExecutionMode::kSharded}) {
        const std::size_t machines =
            exec == gas::ExecutionMode::kSharded ? 4 : 1;
        SnapleConfig cfg;
        cfg.k_local = 10;
        cfg.k_hops = k_hops;
        cfg.seed = seed;
        const auto [batch, model] = batch_and_model(g, cfg, machines, exec);
        const QueryEngine server(model);
        for (VertexId u = 0; u < g.num_vertices(); ++u) {
          const Scored got = server.topk(u);
          ASSERT_EQ(got, batch.scored[u])
              << "seed=" << seed << " K=" << k_hops << " machines="
              << machines << " u=" << u;
        }
      }
    }
  }
}

TEST(QueryEquivalence, UnlimitedKBatchEqualsQueryForEveryVertex) {
  // k = kUnlimited ranks every candidate. The batch step 3 must not try
  // to reserve kUnlimited slots, and its full ranking must equal the
  // query path's, flat and sharded.
  const CsrGraph g = gen::make_dataset("gowalla", 0.02, 19);
  for (const auto exec :
       {gas::ExecutionMode::kFlat, gas::ExecutionMode::kSharded}) {
    const std::size_t machines =
        exec == gas::ExecutionMode::kSharded ? 4 : 1;
    SnapleConfig cfg;
    cfg.k = kUnlimited;
    cfg.k_local = 10;
    cfg.seed = 19;
    BatchAndModel both;
    ASSERT_NO_THROW(both = batch_and_model(g, cfg, machines, exec));
    const QueryEngine server(both.model);
    std::size_t ranked = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      ASSERT_EQ(server.topk(u, kUnlimited), both.batch.scored[u])
          << "machines=" << machines << " u=" << u;
      ranked += both.batch.scored[u].size();
    }
    // Far more than the default k = 5 per vertex came back.
    EXPECT_GT(ranked, 5 * static_cast<std::size_t>(g.num_vertices()));
  }
}

TEST(QueryEquivalence, MultiMachineFlatFoldReplayed) {
  // Flat multi-machine accounting groups step-3 folds by edge machine;
  // the model's per-edge tags must replay that grouping (float sums are
  // order-sensitive, so a wrong grouping shows up as score mismatches).
  const CsrGraph g = gen::make_dataset("livejournal", 0.02, 7);
  SnapleConfig cfg;
  cfg.k_local = 20;
  const auto [batch, model] =
      batch_and_model(g, cfg, 8, gas::ExecutionMode::kFlat);
  EXPECT_EQ(model->num_machines(), 8u);
  const QueryEngine server(model);
  const auto all = server.topk_all();
  ASSERT_EQ(all.size(), batch.scored.size());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    ASSERT_EQ(all[u], batch.scored[u]) << "u=" << u;
  }
}

TEST(QueryEquivalence, EveryScoreKindShardedOnEightMachines) {
  // Every aggregator (Sum, Mean, Geom) under every combinator, K=2 and
  // K=3 (with and without the 2b pruning threshold), on 8 machines so
  // vertices fold several machine groups. Geom's ⊕pre = × and Mean's use
  // of the path count n are where a cross-group merge-order slip would
  // show. The step-2b replay (rows::recompute_hop2_row, the incremental
  // update path) is pinned against the fitted hop2 rows the same way.
  const CsrGraph g = gen::make_dataset("gowalla", 0.02, 13);
  struct Hops {
    std::size_t k_hops;
    double hop2_min_score;
  };
  for (const ScoreKind kind : all_score_kinds()) {
    for (const Hops hops : {Hops{2, 0.0}, Hops{3, 0.0}, Hops{3, 0.05}}) {
      SnapleConfig cfg;
      cfg.score = kind;
      cfg.k_local = 10;
      cfg.k_hops = hops.k_hops;
      cfg.hop2_min_score = hops.hop2_min_score;
      cfg.seed = 13;
      const auto [batch, model] =
          batch_and_model(g, cfg, 8, gas::ExecutionMode::kSharded);
      const QueryEngine server(model);
      const auto all = server.topk_all();
      ASSERT_EQ(all.size(), batch.scored.size());
      for (VertexId u = 0; u < g.num_vertices(); ++u) {
        ASSERT_EQ(all[u], batch.scored[u])
            << score_name(kind) << " K=" << hops.k_hops
            << " hop2min=" << hops.hop2_min_score << " u=" << u;
      }
      if (hops.k_hops != 3) continue;
      const ScoreConfig score = cfg.resolve_score();
      const bool zero_skip = rows::hop2_zero_skip(cfg, score);
      rows::PathFoldMap fold;
      for (VertexId u = 0; u < g.num_vertices(); ++u) {
        const auto row =
            rows::recompute_hop2_row(*model, score, zero_skip, u, fold);
        const auto want = model->hop2(u);
        ASSERT_TRUE(std::ranges::equal(row->ids, want.ids) &&
                    std::ranges::equal(row->scores, want.scores))
            << score_name(kind) << " hop2min=" << hops.hop2_min_score
            << " u=" << u;
      }
    }
  }
}

TEST(QueryEquivalence, PredictIsFitPlusServe) {
  // The sugar path: LinkPredictor::predict == run_snaple predictions.
  const CsrGraph g = gen::make_dataset("gowalla", 0.03, 9);
  SnapleConfig cfg;
  const auto part = gas::Partitioning::create(
      g, 4, gas::PartitionStrategy::kGreedy, cfg.seed);
  const auto cluster = gas::ClusterConfig::type_i(4);
  const auto batch = run_snaple(g, cfg, part, cluster);
  const LinkPredictor predictor(cfg, cluster);
  const auto run = predictor.predict_with_partitioning(g, part);
  EXPECT_EQ(run.predictions, batch.predictions);
  // Report: the fit steps plus the serve pass (no network bytes there).
  ASSERT_EQ(run.report.steps.size(), 3u);
  EXPECT_EQ(run.report.steps.back().name, "3:recommend (serve)");
  EXPECT_EQ(run.report.steps.back().net_bytes, 0u);
  EXPECT_GT(run.network_bytes, 0u);
}

TEST(QueryEngineApi, TopkBatchAndArbitraryK) {
  const CsrGraph g = gen::make_dataset("gowalla", 0.02, 5);
  SnapleConfig cfg;
  const LinkPredictor predictor(cfg);
  const auto model =
      std::make_shared<const PredictorModel>(predictor.fit(g));
  const QueryEngine server(model);

  const std::vector<VertexId> users = {0, 3, 3, 7};
  const auto batch = server.topk_batch(users);
  ASSERT_EQ(batch.size(), users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(batch[i], server.topk(users[i]));
  }

  // k=1 is a prefix of the configured k; a huge k returns the whole
  // candidate tail without truncation artifacts.
  for (const VertexId u : users) {
    const auto five = server.topk(u);
    const auto one = server.topk(u, 1);
    ASSERT_EQ(one.size(), std::min<std::size_t>(1, five.size()));
    if (!five.empty()) {
      EXPECT_EQ(one[0], five[0]);
    }
    const auto many = server.topk(u, 1000);
    EXPECT_GE(many.size(), five.size());
    for (std::size_t i = 0; i + 1 < many.size(); ++i) {
      EXPECT_GE(many[i].second, many[i + 1].second);  // best first
    }
    // An absurd k means "everything" — it must clamp, not let the
    // bounded heap try to reserve SIZE_MAX slots.
    EXPECT_EQ(server.topk(u, kUnlimited), many);
  }

  EXPECT_THROW((void)server.topk(g.num_vertices()), CheckError);
}

TEST(QueryEngineApi, ConcurrentCallersAgree) {
  const CsrGraph g = gen::make_dataset("livejournal", 0.02, 13);
  SnapleConfig cfg;
  cfg.k_hops = 3;  // exercise the hop2 read path under concurrency too
  cfg.k_local = 10;
  const LinkPredictor predictor(cfg);
  const auto model =
      std::make_shared<const PredictorModel>(predictor.fit(g));
  const QueryEngine server(model);

  // Reference answers computed single-threaded.
  std::vector<Scored> want(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) want[u] = server.topk(u);

  constexpr std::size_t kThreads = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread sweeps every vertex from a different starting point,
      // so all threads hammer overlapping queries simultaneously.
      const VertexId n = server.model().num_vertices();
      for (VertexId i = 0; i < n; ++i) {
        const auto u = static_cast<VertexId>((i + t * 37) % n);
        if (server.topk(u) != want[u]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---------- model serialization ----------

TEST(ModelFormat, SaveLoadRoundTripsExactly) {
  const CsrGraph g = gen::make_dataset("gowalla", 0.02, 5);
  for (const std::size_t k_hops : {2ul, 3ul}) {
    SnapleConfig cfg;
    cfg.k_hops = k_hops;
    cfg.k_local = 15;
    cfg.hop2_min_score = k_hops == 3 ? 0.01 : 0.0;
    // Multi-machine so the round trip covers nontrivial machine tags.
    const LinkPredictor predictor(cfg, gas::ClusterConfig::type_i(4));
    const PredictorModel model = predictor.fit(g);

    std::stringstream buf;
    model.save(buf);
    const PredictorModel loaded = PredictorModel::load(buf);
    EXPECT_TRUE(model == loaded) << "K=" << k_hops;
    EXPECT_EQ(loaded.config(), cfg);
    EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
    EXPECT_EQ(loaded.num_machines(), 4u);
    EXPECT_EQ(loaded.graph(), nullptr);
    EXPECT_TRUE(loaded.fit_report().steps.empty());

    // A loaded model serves identical answers — no graph needed.
    const QueryEngine a(std::make_shared<const PredictorModel>(model));
    const QueryEngine b(std::make_shared<const PredictorModel>(loaded));
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      ASSERT_EQ(a.topk(u), b.topk(u)) << "u=" << u;
    }
  }
}

TEST(ModelFormat, TruncatedAndCorruptFilesAreRejected) {
  const CsrGraph g = gen::make_dataset("gowalla", 0.02, 3);
  SnapleConfig cfg;
  const LinkPredictor predictor(cfg, gas::ClusterConfig::type_i(2));
  std::stringstream buf;
  predictor.fit(g).save(buf);
  const std::string bytes = buf.str();

  // Truncation anywhere — inside the magic, the header, or the arrays —
  // must throw IoError, never crash or return a half-read model.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{12}, std::size_t{60},
        bytes.size() / 2, bytes.size() - 1}) {
    std::stringstream cut(bytes.substr(0, keep));
    EXPECT_THROW((void)PredictorModel::load(cut), IoError) << keep;
  }

  // Wrong magic.
  std::string wrong = bytes;
  wrong[7] = '9';
  std::stringstream bad_magic(wrong);
  EXPECT_THROW((void)PredictorModel::load(bad_magic), IoError);

  // Corrupt version field.
  std::string bad_version = bytes;
  bad_version[8] = 0x7f;
  std::stringstream bad_ver(bad_version);
  EXPECT_THROW((void)PredictorModel::load(bad_ver), IoError);
}

TEST(ModelFormat, UnsortedRowsAreRejected) {
  // The query path binary-searches gamma rows; a model whose rows lost
  // their ordering must be rejected at load, not serve wrong answers.
  const CsrGraph g = gen::make_dataset("gowalla", 0.02, 3);
  SnapleConfig cfg;
  const LinkPredictor predictor(cfg);
  const PredictorModel model = predictor.fit(g);
  std::stringstream buf;
  model.save(buf);
  std::string bytes = buf.str();

  // Serialized layout: 8 magic + 4 version + 4 machines + 8 V +
  // 64 config + 24 counts = 112 bytes of header, then gamma_offsets
  // ((V+1) × u64) and gamma_ids (u32 each). Swap the first two ids of
  // some vertex's Γ̂ row of size ≥ 2: strictly-ascending becomes
  // descending, which load() must reject.
  const std::size_t gamma_ids_base =
      112 + (static_cast<std::size_t>(g.num_vertices()) + 1) * 8;
  bool corrupted = false;
  for (VertexId u = 0; u < g.num_vertices() && !corrupted; ++u) {
    const auto row = model.gamma_hat(u);
    if (row.size() < 2) continue;
    const std::size_t at =
        gamma_ids_base +
        static_cast<std::size_t>(row.data() -
                                 model.gamma_hat(0).data()) *
            sizeof(VertexId);
    for (std::size_t b = 0; b < sizeof(VertexId); ++b) {
      std::swap(bytes[at + b], bytes[at + sizeof(VertexId) + b]);
    }
    corrupted = true;
  }
  ASSERT_TRUE(corrupted);
  std::stringstream cut(bytes);
  EXPECT_THROW((void)PredictorModel::load(cut), IoError);
}

TEST(ModelFormat, FileRoundTripAndMemoryAccounting) {
  const CsrGraph g = gen::make_dataset("gowalla", 0.02, 7);
  SnapleConfig cfg;
  const LinkPredictor predictor(cfg);
  const PredictorModel model = predictor.fit(g);
  const std::string path = ::testing::TempDir() + "snaple_model.bin";
  model.save_file(path);
  const PredictorModel loaded = PredictorModel::load_file(path);
  EXPECT_TRUE(model == loaded);
  EXPECT_GT(model.memory_bytes(), 0u);
  EXPECT_EQ(model.memory_bytes(), loaded.memory_bytes());
  std::remove(path.c_str());
}

TEST(ModelApi, FitKeepsSharedGraphAndReport) {
  const auto g = std::make_shared<const CsrGraph>(
      gen::make_dataset("gowalla", 0.02, 5));
  SnapleConfig cfg;
  const LinkPredictor predictor(cfg);
  const PredictorModel model = predictor.fit(g);
  EXPECT_EQ(model.graph(), g);
  // K=2 fit ran exactly the two model-building steps.
  ASSERT_EQ(model.fit_report().steps.size(), 2u);
  EXPECT_EQ(model.fit_report().steps[0].name, "1:sample-neighborhood");
  EXPECT_EQ(model.fit_report().steps[1].name, "2:similarities");

  cfg.k_hops = 3;
  const LinkPredictor p3(cfg);
  const PredictorModel m3 = p3.fit(*g);
  EXPECT_EQ(m3.graph(), nullptr);  // plain-reference fit keeps no graph
  ASSERT_EQ(m3.fit_report().steps.size(), 3u);
  EXPECT_EQ(m3.fit_report().steps[2].name, "2b:hop2-scores");
}

// ---------- K=3 pruning knob (hop2_min_score) ----------

TEST(Hop2Pruning, ZeroThresholdIsBitIdentical) {
  const CsrGraph g = gen::make_dataset("gowalla", 0.02, 11);
  SnapleConfig cfg;
  cfg.k_hops = 3;
  cfg.k_local = 10;
  SnapleConfig zero = cfg;
  zero.hop2_min_score = 0.0;  // explicit off == default off

  const LinkPredictor a(cfg);
  const LinkPredictor b(zero);
  const PredictorModel ma = a.fit(g);
  const PredictorModel mb = b.fit(g);
  EXPECT_TRUE(ma == mb);

  const auto ra = a.predict(g);
  const auto rb = b.predict(g);
  EXPECT_EQ(ra.predictions, rb.predictions);
}

TEST(Hop2Pruning, PositiveThresholdOnlyRemovesBelowThresholdCandidates) {
  const CsrGraph g = gen::make_dataset("gowalla", 0.03, 7);
  SnapleConfig cfg;
  cfg.k_hops = 3;
  cfg.k_local = kUnlimited;  // no selection cut: pruning is the only
                             // difference, so exact set algebra holds
  const LinkPredictor unpruned(cfg);
  const PredictorModel full = unpruned.fit(g);

  // Pick a threshold that actually bites: the median retained 2-hop
  // score across the model.
  std::vector<float> scores;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto h = full.hop2(u);
    scores.insert(scores.end(), h.scores.begin(), h.scores.end());
  }
  ASSERT_FALSE(scores.empty());
  std::sort(scores.begin(), scores.end());
  const double thr = scores[scores.size() / 2];
  ASSERT_GT(thr, 0.0);

  SnapleConfig pruned_cfg = cfg;
  pruned_cfg.hop2_min_score = thr;
  const LinkPredictor pruner(pruned_cfg);
  const PredictorModel pruned = pruner.fit(g);

  bool removed_any = false;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto f = full.hop2(u);
    const auto p = pruned.hop2(u);
    // Exactly the >= threshold subset survives, order preserved.
    std::size_t pi = 0;
    for (std::size_t fi = 0; fi < f.ids.size(); ++fi) {
      if (f.scores[fi] < thr) {
        removed_any = true;
        continue;
      }
      ASSERT_LT(pi, p.ids.size()) << "u=" << u;
      EXPECT_EQ(p.ids[pi], f.ids[fi]);
      EXPECT_EQ(p.scores[pi], f.scores[fi]);
      ++pi;
    }
    EXPECT_EQ(pi, p.ids.size()) << "u=" << u;
    for (const float s : p.scores) EXPECT_GE(s, thr);
  }
  EXPECT_TRUE(removed_any);  // the threshold did prune something

  // Γ̂ and sims are untouched by 2b pruning.
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto gf = full.gamma_hat(u);
    const auto gp = pruned.gamma_hat(u);
    ASSERT_TRUE(std::equal(gf.begin(), gf.end(), gp.begin(), gp.end()));
  }
}

// ---------- format fuzzing: every truncation, systematic bit flips ----------

/// Small fit whose serialized form covers every section of the format:
/// K=3 (hop2 arrays present), 2 machines (nontrivial tags).
std::string tiny_model_bytes() {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 1);
  b.add_edge(2, 3);
  b.add_edge(3, 1);
  SnapleConfig cfg;
  cfg.k_hops = 3;
  const LinkPredictor predictor(cfg, gas::ClusterConfig::type_i(2));
  std::stringstream buf;
  predictor.fit(b.build()).save(buf);
  return buf.str();
}

TEST(ModelFormatFuzz, TruncationAtEveryByteOffsetIsRejected) {
  const std::string bytes = tiny_model_bytes();
  ASSERT_GT(bytes.size(), 112u);  // header + all sections present
  // The format has no padding or optional tail: EVERY strict prefix is
  // a truncation and must throw IoError — not crash, not hand back a
  // model built from half the arrays.
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::stringstream cut(bytes.substr(0, keep));
    EXPECT_THROW((void)PredictorModel::load(cut), IoError) << keep;
  }
  std::stringstream whole(bytes);
  EXPECT_NO_THROW((void)PredictorModel::load(whole));
}

TEST(ModelFormatFuzz, HeaderAndOffsetByteFlipsNeverCrashOrHalfLoad) {
  const std::string bytes = tiny_model_bytes();
  // Corruption target: the full header (112 bytes: magic, version,
  // machines, V, config, counts) plus the gamma offset table right
  // after it — the fields that steer every later read. Each byte takes
  // three flips: low bit, high bit, all bits.
  std::stringstream whole(bytes);
  const PredictorModel reference = PredictorModel::load(whole);
  const std::size_t offsets_end =
      112 + (static_cast<std::size_t>(reference.num_vertices()) + 1) * 8;
  ASSERT_LT(offsets_end, bytes.size());

  for (std::size_t at = 0; at < offsets_end; ++at) {
    for (const unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string mutated = bytes;
      mutated[at] = static_cast<char>(mutated[at] ^ mask);
      std::stringstream in(mutated);
      PredictorModel m;
      try {
        m = PredictorModel::load(in);
      } catch (const IoError&) {
        continue;  // clean rejection — the expected outcome
      }
      // The mutation passed validation (a config field like α or the
      // seed, or an offset shift that still yields consistent rows).
      // Then it must be a COMPLETE model: every vertex serves without
      // crashing and every row accessor stays in bounds.
      ASSERT_EQ(m.num_vertices(), reference.num_vertices())
          << "at=" << at << " mask=" << int(mask);
      const QueryEngine engine(
          std::make_shared<const PredictorModel>(std::move(m)));
      for (VertexId u = 0; u < reference.num_vertices(); ++u) {
        (void)engine.topk(u);
      }
    }
  }

  // The identification fields specifically can never survive a flip.
  for (std::size_t at = 0; at < 12; ++at) {  // magic + version
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x01);
    std::stringstream in(mutated);
    EXPECT_THROW((void)PredictorModel::load(in), IoError) << at;
  }
}

// ---------- topk edge cases, over both serving backends ----------

/// Runs `check` against a QueryEngine over the static model and over a
/// DynamicModel wrap of the same fit — the two serving backends must
/// agree on every edge-case contract.
template <typename Fn>
void for_both_backends(const CsrGraph& g, const SnapleConfig& cfg,
                       Fn&& check) {
  const LinkPredictor predictor(cfg);
  const auto graph = std::make_shared<const CsrGraph>(g);
  const auto model =
      std::make_shared<const PredictorModel>(predictor.fit(*graph));
  check(QueryEngine(model), "static");
  const auto dynamic = std::make_shared<const DynamicModel>(model, graph);
  check(QueryEngine(dynamic), "dynamic");
}

TEST(QueryEdgeCases, IsolatedVertexHasNoRecommendations) {
  // Vertex 4 exists (GraphBuilder pins the vertex count) but has no
  // edges at all: no retained paths, so topk must be empty, not a
  // crash or an out-of-range row read.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  SnapleConfig cfg;
  for_both_backends(b.build(), cfg, [](const QueryEngine& e,
                                       const char* backend) {
    EXPECT_EQ(e.num_vertices(), 5u) << backend;
    EXPECT_TRUE(e.topk(4).empty()) << backend;
    EXPECT_TRUE(e.topk(4, 100).empty()) << backend;
  });
}

TEST(QueryEdgeCases, AllCandidatesSelfOrAlreadyNeighbors) {
  // 0 ↔ 1 only: every 2-hop path from 0 lands back on 0 itself, and
  // every path from 1 lands on 1 — the candidate filter must leave
  // nothing, for both backends.
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  SnapleConfig cfg;
  cfg.k_local = kUnlimited;
  for_both_backends(b.build(), cfg, [](const QueryEngine& e,
                                       const char* backend) {
    EXPECT_TRUE(e.topk(0).empty()) << backend;
    EXPECT_TRUE(e.topk(1).empty()) << backend;
  });
}

TEST(QueryEdgeCases, KZeroMeansConfiguredKOnBothBackends) {
  const CsrGraph g = gen::make_dataset("gowalla", 0.02, 17);
  SnapleConfig cfg;
  cfg.k = 3;
  for_both_backends(g, cfg, [&g](const QueryEngine& e,
                                 const char* backend) {
    for (VertexId u = 0; u < g.num_vertices(); u += 23) {
      const auto dflt = e.topk(u);
      EXPECT_LE(dflt.size(), 3u) << backend << " u=" << u;
      EXPECT_EQ(dflt, e.topk(u, 3)) << backend << " u=" << u;
    }
  });
}

TEST(QueryEdgeCases, KBeyondCandidateSetClampsOnBothBackends) {
  const CsrGraph g = gen::make_dataset("gowalla", 0.02, 17);
  SnapleConfig cfg;
  for_both_backends(g, cfg, [&g](const QueryEngine& e,
                                 const char* backend) {
    for (VertexId u = 0; u < g.num_vertices(); u += 23) {
      const auto all = e.topk(u, kUnlimited);
      // Asking for even more changes nothing — the candidate set is
      // exhausted, not padded.
      EXPECT_EQ(e.topk(u, all.size() + 1000), all)
          << backend << " u=" << u;
      for (std::size_t i = 0; i + 1 < all.size(); ++i) {
        EXPECT_GE(all[i].second, all[i + 1].second)
            << backend << " u=" << u;
      }
    }
  });
}

// ---------- hand-checkable single query ----------

TEST(QueryEngineApi, HandGraphSingleQuery) {
  // Same hand graph as test_snaple: 0→{1,2}, 1→{2,3}, 2→{1,3}, 3→{1}.
  // Candidate for 0 is exactly 3. Jaccard: sim(0,1)=sim(0,2)=1/3,
  // sim(1,3)=0, sim(2,3)=|{1}|/|{1,3}|=1/2. linearSum (α=0.9):
  //   path 0→1→3: 0.9·(1/3)+0.1·0   = 0.3
  //   path 0→2→3: 0.9·(1/3)+0.1·0.5 = 0.35   → score 0.65.
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 1);
  b.add_edge(2, 3);
  b.add_edge(3, 1);
  const CsrGraph g = b.build();
  SnapleConfig cfg;
  cfg.k_local = kUnlimited;
  cfg.thr_gamma = kUnlimited;
  const LinkPredictor predictor(cfg);
  const QueryEngine server(
      std::make_shared<const PredictorModel>(predictor.fit(g)));
  const auto recs = server.topk(0);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].first, 3u);
  EXPECT_NEAR(recs[0].second, 0.65, 1e-6);
}

}  // namespace
}  // namespace snaple
