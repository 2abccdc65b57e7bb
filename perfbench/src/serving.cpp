#include "serving.hpp"

#include <algorithm>
#include <cstdio>

#include "trace.hpp"

namespace perfbench {

using namespace snaple;

serve::ServeOptions serving_options(double scale) {
  serve::ServeOptions so;
  so.num_shards = 4;
  so.transport = serve::TransportKind::kUnixSocket;
  so.colocate = false;
  so.connections_per_shard = 1;
  so.cache_bytes =
      static_cast<std::size_t>(static_cast<double>(16u << 20) * scale);
  return so;
}

ServeCounters snapshot(const serve::ServingCluster& c) {
  ServeCounters out;
  out.cache = c.cache_stats();
  for (const auto& s : c.stats()) {
    out.fetches += s.remote_fetch_requests;
    out.remote_rows += s.remote_rows;
    out.wire_bytes += s.frontend_bytes_in + s.frontend_bytes_out +
                      s.peer_bytes_in + s.peer_bytes_out;
  }
  return out;
}

double hit_ratio(const ServeCounters& before, const ServeCounters& after) {
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double lookups =
      hits + static_cast<double>(after.cache.misses - before.cache.misses);
  return lookups > 0.0 ? hits / lookups : 0.0;
}

void report_serving_layers(serve::ServingCluster& cluster,
                           const ServeCounters& before,
                           const ServeCounters& after, const LoadStats& load,
                           Result& out) {
  const double queries =
      std::max<double>(1.0, static_cast<double>(load.attempted));
  const auto delta = [&](std::uint64_t ServeCounters::*field) {
    return static_cast<double>(after.*field - before.*field) / queries;
  };
  out.layer("serve.router.submit_us.p50", pct(load.submit_us, 0.5), "us");
  out.layer("serve.cache.hit_ratio", hit_ratio(before, after), "ratio");
  out.layer("serve.cache.lookups",
            static_cast<double>((after.cache.hits + after.cache.misses) -
                                (before.cache.hits + before.cache.misses)),
            "count");
  out.layer("serve.fetches_per_query", delta(&ServeCounters::fetches),
            "count");
  out.layer("serve.remote_rows_per_query",
            delta(&ServeCounters::remote_rows), "count");
  out.layer("serve.wire_bytes_per_query", delta(&ServeCounters::wire_bytes),
            "B");
  out.layer("serve.gen_late_p99_us", pct(load.late_us, 0.99), "us");
  out.layer("serve.backlog_max", static_cast<double>(load.backlog_max),
            "count");
  std::printf(
      "serve counters: router max inflight %llu, cache stale drops %llu, "
      "evictions %llu (all cumulative)\n",
      static_cast<unsigned long long>(cluster.router().stats().max_inflight),
      static_cast<unsigned long long>(after.cache.stale_drops),
      static_cast<unsigned long long>(after.cache.evictions));
}

void warm_up(serve::ServingCluster& cluster, std::span<const VertexId> users) {
  Span span("serve.QueryRouter::topk_batch(warm-up)");
  constexpr std::size_t kChunk = 64;
  const std::size_t quarter = std::max<std::size_t>(kChunk, users.size() / 4);
  std::printf("warm-up hit ratio by quarter:");
  for (std::size_t q = 0; q < users.size(); q += quarter) {
    const auto before = snapshot(cluster);
    const std::size_t end = std::min(users.size(), q + quarter);
    for (std::size_t i = q; i < end; i += kChunk) {
      (void)cluster.router().topk_batch(
          users.subspan(i, std::min(kChunk, end - i)));
    }
    std::printf(" %.3f", hit_ratio(before, snapshot(cluster)));
  }
  std::printf("\n");
}

std::size_t count_mismatches(serve::QueryRouter& router,
                             const QueryEngine& engine,
                             std::span<const VertexId> users) {
  std::size_t mismatches = 0;
  for (const VertexId u : users) {
    try {
      if (router.topk(u) != engine.topk(u)) ++mismatches;
    } catch (const std::exception&) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace perfbench
