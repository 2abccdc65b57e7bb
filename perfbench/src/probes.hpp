// The traced run's replay of a workload's user stream through the calls
// under the serving tier, one layer at a time: QueryEngine::topk (core),
// ModelShard::topk with its non-resident rows resolved beforehand
// (serve, no transport), and an op-1-sized request/reply round trip over
// a Unix-socket ByteChannel (serve transport alone).
#pragma once

#include <memory>
#include <span>

#include "common.hpp"

namespace perfbench {

/// Adds core.query_us.p50/.p99, serve.shard_topk_us.p50 and
/// serve.transport_rtt_us.p50 to `out`. Every ModelShard answer must be
/// bit-identical to QueryEngine's (a failed gate otherwise).
void run_layer_probes(const std::shared_ptr<const snaple::PredictorModel>& model,
                      std::span<const VertexId> users, std::size_t shards,
                      Result& out);

}  // namespace perfbench
