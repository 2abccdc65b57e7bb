#include "probes.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/query_engine.hpp"
#include "serve/model_shard.hpp"
#include "serve/transport.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace snaple;

namespace {

constexpr std::size_t kProbeUsers = 2000;

/// op 1 request: u8 op | u32 u | u64 k. Reply for k = 5: u8 status |
/// u32 count | 5 x u32 id | 5 x f32 score.
constexpr std::size_t kRequestBytes = 1 + 4 + 8;
constexpr std::size_t kReplyBytes = 1 + 4 + 5 * 8;

double round_trip_p50_us(std::size_t rounds) {
  auto pair = serve::make_channel_pair(serve::TransportKind::kUnixSocket);
  std::thread echo([server = std::move(pair.server)] {
    std::array<std::uint8_t, kRequestBytes> req{};
    std::array<std::uint8_t, kReplyBytes> reply{};
    try {
      for (;;) {
        server->recv(req.data(), req.size());
        reply[1] = req[1];
        server->send(reply.data(), reply.size());
      }
    } catch (const serve::TransportError&) {
      // The client closed its end: the probe is over.
    }
  });
  std::vector<double> us;
  us.reserve(rounds);
  std::array<std::uint8_t, kRequestBytes> req{1};
  std::array<std::uint8_t, kReplyBytes> reply{};
  for (std::size_t i = 0; i < rounds; ++i) {
    req[1] = static_cast<std::uint8_t>(i);
    const double t0 = now_s();
    {
      Span s("serve.ByteChannel::round_trip", i + 1);
      pair.client->send(req.data(), req.size());
      pair.client->recv(reply.data(), reply.size());
    }
    us.push_back((now_s() - t0) * 1e6);
  }
  pair.client->close();
  echo.join();
  return percentile(us, 0.5);
}

}  // namespace

void run_layer_probes(const std::shared_ptr<const PredictorModel>& model,
                      std::span<const VertexId> users, std::size_t shards,
                      Result& out) {
  const auto probe = users.first(std::min(users.size(), kProbeUsers));
  const QueryEngine engine(model);
  std::vector<std::vector<std::pair<VertexId, float>>> reference;
  reference.reserve(probe.size());
  std::vector<double> query_us;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const double t0 = now_s();
    {
      Span s("core.QueryEngine::topk", i + 1);
      reference.push_back(engine.topk(probe[i]));
    }
    query_us.push_back((now_s() - t0) * 1e6);
  }
  out.layer("core.query_us.p50", percentile(query_us, 0.50), "us");
  out.layer("core.query_us.p99", percentile(query_us, 0.99), "us");

  const auto ranges = serve::plan_shard_ranges(*model, shards);
  std::vector<serve::ModelShard> shard_set;
  {
    Span s("serve.ModelShard::build");
    for (const auto& r : ranges) {
      shard_set.push_back(serve::ModelShard::build(*model, r, false));
    }
  }
  std::vector<double> shard_us;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const VertexId u = probe[i];
    const auto& shard = shard_set[gas::range_owner(ranges, u)];
    // Resolve the non-resident rows first, as the serving layer would from
    // its cache or a peer; only the fold and rank are timed.
    std::vector<serve::HotRow> rows;
    serve::RowOverlay overlay;
    overlay.ids = shard.missing_rows(u);
    rows.reserve(overlay.ids.size());
    for (const VertexId v : overlay.ids) {
      const auto sims = model->sims(v);
      const auto hop2 = model->hop2(v);
      rows.push_back({{sims.ids.begin(), sims.ids.end()},
                      {sims.scores.begin(), sims.scores.end()},
                      {hop2.ids.begin(), hop2.ids.end()},
                      {hop2.scores.begin(), hop2.scores.end()}});
    }
    for (const auto& row : rows) overlay.rows.push_back(&row);
    const double t0 = now_s();
    std::vector<std::pair<VertexId, float>> got;
    {
      Span s("serve.ModelShard::topk", i + 1);
      got = shard.topk(u, 0, &overlay);
    }
    shard_us.push_back((now_s() - t0) * 1e6);
    if (got != reference[i]) ++mismatches;
  }
  if (mismatches > 0) {
    out.gate_failed(std::to_string(mismatches) +
                    " ModelShard::topk answers differ from QueryEngine::topk");
  }
  out.layer("serve.shard_topk_us.p50", percentile(shard_us, 0.50), "us");
  out.layer("serve.transport_rtt_us.p50", round_trip_p50_us(probe.size()),
            "us");
}

}  // namespace perfbench
