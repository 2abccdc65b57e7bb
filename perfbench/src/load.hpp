// Open-loop load. Request i is due at start + i / rate and is submitted at
// its due time whether or not earlier requests have returned; its latency
// is measured from the due time, so a stall is charged to every request
// it delays. Generator lateness (submit - due) and peak backlog are
// reported, and failures are counted against attempts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serve/router.hpp"
#include "serve/update_router.hpp"

namespace perfbench {

struct LoadStats {
  std::vector<double> latency_us;  // completion - due, successful requests
  std::vector<double> late_us;     // submit - due
  std::vector<double> submit_us;   // duration of the submit call
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t backlog_max = 0;   // most requests outstanding at once
  double generator_cpu_s = 0.0;    // CPU of the generator threads
  double wall_s = 0.0;             // first due -> last completion
};

/// Appends `part`'s samples to `into` and adds its counts, CPU and wall
/// time; the backlog peak is the larger of the two.
void merge(LoadStats& into, const LoadStats& part);

/// Queries `users` (in order) against the router at `rate` per second.
/// One generator thread per shard owns the requests routed to that shard:
/// the shard's single connection answers in order, so each thread waits
/// on its oldest future until the next request falls due and timestamps
/// every completion as it happens. Requires connections_per_shard = 1.
/// `request_base` numbers the requests for tracing (serve.QueryRouter::
/// topk_async spans, children of the caller's open span; their wait is the
/// generator's lateness).
[[nodiscard]] LoadStats run_queries(snaple::serve::QueryRouter& router,
                                    std::span<const snaple::VertexId> users,
                                    double rate,
                                    std::uint64_t request_base = 0);

/// One write-plane operation of a churn stream.
struct WriteOp {
  bool remove = false;
  std::span<const snaple::Edge> batch;
};

struct WriteStats {
  std::vector<double> stale_ms;    // due -> the call returned on every shard
  std::vector<double> wait_ms;     // due -> the call started
  std::vector<double> apply_ms;    // insert call durations
  std::vector<double> remove_ms;   // remove call durations
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t edge_ops = 0;      // edges inserted or removed
  std::size_t slots_done = 0;
  double wall_s = 0.0;
};

/// Appends `part`'s samples to `into` and adds its counts and wall time.
void merge(WriteStats& into, const WriteStats& part);

/// Applies `slots` in order. Op k of the n ops of slot j is due at
/// start + (j + k / n) / slot_rate, so each op's staleness counts from its
/// own due time (slot_rate <= 0: back to back, each op due when the
/// previous one returned). Starts no slot after
/// `stop_after` seconds (0 = run them all). Runs on the calling thread.
[[nodiscard]] WriteStats run_writes(
    snaple::serve::UpdateRouter& plane, std::span<const std::vector<WriteOp>> slots,
    double slot_rate, double stop_after = 0.0,
    std::uint64_t request_base = 0, std::uint64_t parent_span = 0);

}  // namespace perfbench
