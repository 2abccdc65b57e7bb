// Serving-tier helpers shared by the workloads: the cluster options every
// served phase uses, counter snapshots around a phase, the serve.* layer
// metrics of a phase, cache warm-up and the bit-identity gate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common.hpp"
#include "core/query_engine.hpp"
#include "load.hpp"
#include "serve/router.hpp"

namespace perfbench {

/// 4 shards over Unix sockets, remote fetch, a 16 MB hot-row cache per
/// shard (scaled with the replica), one router connection per shard.
[[nodiscard]] snaple::serve::ServeOptions serving_options(double scale);

struct ServeCounters {
  snaple::serve::RowCacheStats cache;
  std::uint64_t fetches = 0;
  std::uint64_t remote_rows = 0;
  std::uint64_t wire_bytes = 0;
};
[[nodiscard]] ServeCounters snapshot(const snaple::serve::ServingCluster& c);

/// Cache hit ratio of the lookups between two snapshots.
[[nodiscard]] double hit_ratio(const ServeCounters& before,
                               const ServeCounters& after);

/// serve.router.*, serve.cache.*, per-query fetch/row/byte counts and
/// generator health for one open-loop phase.
void report_serving_layers(snaple::serve::ServingCluster& cluster,
                           const ServeCounters& before,
                           const ServeCounters& after, const LoadStats& load,
                           Result& out);

/// Fills the hot-row caches: `users` through topk_batch in chunks of 64,
/// as fast as the tier answers. Prints the hit ratio of each quarter.
void warm_up(snaple::serve::ServingCluster& cluster,
             std::span<const VertexId> users);

/// Number of `users` whose served answer differs from `engine`'s, bit for
/// bit (a throwing query counts as a difference).
[[nodiscard]] std::size_t count_mismatches(
    snaple::serve::QueryRouter& router, const snaple::QueryEngine& engine,
    std::span<const VertexId> users);

}  // namespace perfbench
