#include "serve/router.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "serve/wire.hpp"
#include "util/check.hpp"

namespace snaple::serve {

using namespace wire;  // NOLINT — internal framing helpers

// -------------------------------------------------------------------
// ShardServer
// -------------------------------------------------------------------

ShardServer::ShardServer(
    ModelShard shard, std::vector<gas::VertexRange> ranges,
    std::shared_ptr<RowCache> cache,
    std::shared_ptr<const std::vector<std::uint64_t>> row_versions)
    : shard_(std::move(shard)),
      ranges_(std::move(ranges)),
      cache_(std::move(cache)),
      row_versions_(std::move(row_versions)) {
  peers_.resize(ranges_.size());
  if (row_versions_ != nullptr) {
    SNAPLE_CHECK_MSG(row_versions_->size() == shard_->num_vertices(),
                     "row-version table must have one entry per vertex");
  }
}

ShardServer::ShardServer(std::shared_ptr<LiveShard> live,
                         std::vector<gas::VertexRange> ranges,
                         std::shared_ptr<RowCache> cache)
    : live_(std::move(live)),
      ranges_(std::move(ranges)),
      cache_(std::move(cache)) {
  SNAPLE_CHECK_MSG(live_ != nullptr,
                   "live ShardServer needs a LiveShard backend");
  peers_.resize(ranges_.size());
}

const ModelShard& ShardServer::shard() const {
  SNAPLE_CHECK_MSG(shard_.has_value(),
                   "this server runs a live backend — use live()");
  return *shard_;
}

bool ShardServer::owns(VertexId u) const {
  return live_ != nullptr ? live_->owns(u) : shard_->owns(u);
}

const gas::VertexRange& ShardServer::range() const {
  return live_ != nullptr ? live_->range() : shard_->range();
}

VertexId ShardServer::num_vertices() const {
  return live_ != nullptr ? live_->num_vertices() : shard_->num_vertices();
}

std::vector<VertexId> ShardServer::missing_rows(
    VertexId u, PredictorModel::SimsView* root) const {
  return live_ != nullptr ? live_->missing_rows(u, root)
                          : shard_->missing_rows(u);
}

std::vector<std::pair<VertexId, float>> ShardServer::topk(
    VertexId u, std::size_t k, const RowOverlay* overlay,
    const PredictorModel::SimsView* root) const {
  return live_ != nullptr ? live_->topk(u, k, overlay, root)
                          : shard_->topk(u, k, overlay);
}

ShardServer::~ShardServer() { shutdown(); }

void ShardServer::serve(std::unique_ptr<ByteChannel> channel,
                        bool frontend) {
  auto conn = std::make_unique<Connection>();
  conn->channel = std::move(channel);
  conn->frontend = frontend;
  ByteChannel& ch = *conn->channel;
  conn->thread = std::thread([this, &ch] { serve_loop(ch); });
  connections_.push_back(std::move(conn));
}

void ShardServer::connect_peer(std::size_t shard_index,
                               std::unique_ptr<ByteChannel> channel) {
  SNAPLE_CHECK_MSG(shard_index < peers_.size(), "peer index out of range");
  auto link = std::make_unique<PeerLink>();
  link->channel = std::move(channel);
  peers_[shard_index] = std::move(link);
}

void ShardServer::shutdown() {
  if (down_.exchange(true)) return;
  for (auto& conn : connections_) conn->channel->close();
  for (auto& peer : peers_) {
    if (peer != nullptr) peer->channel->close();
  }
  for (auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

ShardStats ShardServer::stats() const {
  ShardStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.batch_requests = batch_requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.remote_fetch_requests =
      remote_fetch_requests_.load(std::memory_order_relaxed);
  s.remote_rows = remote_rows_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  for (const auto& conn : connections_) {
    if (!conn->frontend) continue;  // counted by the requesting shard
    s.frontend_bytes_in += conn->channel->bytes_received();
    s.frontend_bytes_out += conn->channel->bytes_sent();
  }
  for (const auto& peer : peers_) {
    if (peer == nullptr) continue;
    s.peer_bytes_out += peer->channel->bytes_sent();
    s.peer_bytes_in += peer->channel->bytes_received();
  }
  if (shard_.has_value()) {
    s.replica_count = shard_->replica_count();
    s.replica_bytes = shard_->replica_bytes();
  }
  s.update_batches = update_batches_.load(std::memory_order_relaxed);
  s.update_edges = update_edges_.load(std::memory_order_relaxed);
  s.remove_batches = remove_batches_.load(std::memory_order_relaxed);
  s.remove_edges = remove_edges_.load(std::memory_order_relaxed);
  s.gamma_republished = gamma_republished_.load(std::memory_order_relaxed);
  s.sims_republished = sims_republished_.load(std::memory_order_relaxed);
  s.hop2_republished = hop2_republished_.load(std::memory_order_relaxed);
  if (live_ != nullptr) s.overlay_bytes = live_->overlay_bytes();
  return s;
}

void ShardServer::serve_loop(ByteChannel& ch) {
  try {
    for (;;) {
      const auto op = get<std::uint8_t>(ch);
      if (op == kOpTopk) {
        handle_topk(ch);
      } else if (op == kOpFetch) {
        handle_fetch(ch);
      } else if (op == kOpBatch) {
        handle_topk_batch(ch);
      } else if (op == kOpUpdate) {
        handle_update(ch);
      } else if (op == kOpRemove) {
        handle_remove(ch);
      } else if (op == kOpBarrier) {
        handle_barrier(ch);
      } else {
        // Unknown opcode = the stream is desynced; an error response
        // then EOF is all that can be said safely.
        std::vector<std::uint8_t> buf;
        put_error(buf, "unknown opcode " + std::to_string(op));
        send_buffer(ch, buf);
        break;
      }
    }
  } catch (const WireError& e) {
    fail_connection(ch, e.what());  // undecodable request
  } catch (const TransportError&) {
    // Link closed (router/cluster shutdown, or peer death): clean exit.
  } catch (const std::exception& e) {
    // Anything else a request raised outside its handler's own error
    // response (e.g. bad_alloc): it costs this connection, never the
    // shard process.
    fail_connection(ch, e.what());
  }
  ch.close();
}

void ShardServer::fail_connection(ByteChannel& ch, const std::string& why) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::uint8_t> buf;
  put_error(buf, why);
  try {
    send_buffer(ch, buf);
  } catch (const TransportError&) {
    // The link is gone too; closing it is all that is left.
  }
}

void ShardServer::handle_topk(ByteChannel& ch) {
  const auto u = get<std::uint32_t>(ch);
  const auto k = get<std::uint64_t>(ch);
  queries_.fetch_add(1, std::memory_order_relaxed);

  std::vector<std::uint8_t> buf;
  try {
    SNAPLE_CHECK_MSG(owns(u), "query vertex " + std::to_string(u) +
                                  " routed to the wrong shard [" +
                                  std::to_string(range().begin) + ", " +
                                  std::to_string(range().end) + ")");
    const VertexId user = u;
    const ResolvedRows rows = collect_rows({&user, 1});
    const auto result =
        topk(u, static_cast<std::size_t>(k), &rows.overlay,
             rows.roots.empty() ? nullptr : rows.roots.data());
    put<std::uint8_t>(buf, kStatusOk);
    put_scored(buf, result);
  } catch (const TransportError&) {
    throw;  // the frontend link itself died — no response possible
  } catch (const std::exception& e) {
    buf.clear();
    put_error(buf, e.what());
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  send_buffer(ch, buf);
}

void ShardServer::handle_topk_batch(ByteChannel& ch) {
  const auto k = get<std::uint64_t>(ch);
  const auto count = get<std::uint32_t>(ch);
  std::vector<VertexId> users;
  get_array(ch, users, count);
  batch_requests_.fetch_add(1, std::memory_order_relaxed);
  queries_.fetch_add(count, std::memory_order_relaxed);

  std::vector<std::uint8_t> buf;
  try {
    for (const VertexId u : users) {
      SNAPLE_CHECK_MSG(owns(u), "batched query vertex " +
                                    std::to_string(u) +
                                    " routed to the wrong shard [" +
                                    std::to_string(range().begin) + ", " +
                                    std::to_string(range().end) + ")");
    }
    // The union of the batch's missing rows, resolved ONCE: at most one
    // peer fetch per owning shard for the whole batch — the server-side
    // half of the batching win (the wire-message half is the router's).
    const ResolvedRows rows = collect_rows(users);
    std::vector<std::uint8_t> payload;
    for (std::size_t i = 0; i < users.size(); ++i) {
      put_scored(payload,
                 topk(users[i], static_cast<std::size_t>(k), &rows.overlay,
                      rows.roots.empty() ? nullptr : &rows.roots[i]));
    }
    put<std::uint8_t>(buf, kStatusOk);
    buf.insert(buf.end(), payload.begin(), payload.end());
  } catch (const TransportError&) {
    throw;  // the frontend link itself died — no response possible
  } catch (const std::exception& e) {
    buf.clear();
    put_error(buf, e.what());
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  send_buffer(ch, buf);
}

void ShardServer::handle_fetch(ByteChannel& ch) {
  const auto count = get<std::uint32_t>(ch);
  std::vector<VertexId> ids;
  get_array(ch, ids, count);

  std::vector<std::uint8_t> buf;
  try {
    std::vector<std::uint8_t> payload;
    for (const VertexId v : ids) {
      SNAPLE_CHECK_MSG(owns(v), "fetch for vertex " + std::to_string(v) +
                                    " sent to a non-owning shard");
      if (live_ != nullptr) {
        // Version-consistent snapshot: content and version read under
        // the live shard's retry loop, so the bytes shipped are never
        // older than the version they ship under.
        const LiveShard::VersionedRow snap = live_->snapshot_row(v);
        put<std::uint64_t>(payload, snap.version);
        const HotRow& row = *snap.row;
        put<std::uint32_t>(payload,
                           static_cast<std::uint32_t>(row.sims_ids.size()));
        put_span<VertexId>(payload, row.sims_ids);
        put_span<float>(payload, row.sims_scores);
        put<std::uint32_t>(payload,
                           static_cast<std::uint32_t>(row.hop2_ids.size()));
        put_span<VertexId>(payload, row.hop2_ids);
        put_span<float>(payload, row.hop2_scores);
        continue;
      }
      put<std::uint64_t>(payload, row_version(v));
      const auto sv = shard_->sims(v);
      put<std::uint32_t>(payload,
                         static_cast<std::uint32_t>(sv.ids.size()));
      put_span(payload, sv.ids);
      put_span(payload, sv.scores);
      const auto hv = shard_->hop2(v);
      put<std::uint32_t>(payload,
                         static_cast<std::uint32_t>(hv.ids.size()));
      put_span(payload, hv.ids);
      put_span(payload, hv.scores);
    }
    put<std::uint8_t>(buf, kStatusOk);
    buf.insert(buf.end(), payload.begin(), payload.end());
  } catch (const std::exception& e) {
    buf.clear();
    put_error(buf, e.what());
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  send_buffer(ch, buf);
}

void ShardServer::handle_update(ByteChannel& ch) {
  handle_edge_batch(ch, /*remove=*/false);
}

void ShardServer::handle_remove(ByteChannel& ch) {
  handle_edge_batch(ch, /*remove=*/true);
}

void ShardServer::handle_edge_batch(ByteChannel& ch, bool remove) {
  const auto count = get<std::uint32_t>(ch);
  // Edge is {u32 src, u32 dst} — the wire layout, read in place.
  static_assert(sizeof(Edge) == 2 * sizeof(VertexId));
  std::vector<Edge> batch;
  get_array(ch, batch, count);

  std::vector<std::uint8_t> buf;
  try {
    SNAPLE_CHECK_MSG(live_ != nullptr,
                     remove ? "remove sent to a static shard — build the "
                              "cluster in live mode to apply removals"
                            : "update sent to a static shard — build the "
                              "cluster in live mode to apply inserts");
    LiveShard::UpdateStats applied;
    std::uint64_t version = 0;
    {
      // One link carries the plane's writes in normal operation; the
      // lock makes multi-link configurations safe rather than racy.
      std::lock_guard<std::mutex> lock(update_mu_);
      applied = remove ? live_->remove_edges(batch)
                       : live_->add_edges(batch);
      version = live_->version();
    }
    auto& batches = remove ? remove_batches_ : update_batches_;
    auto& edges = remove ? remove_edges_ : update_edges_;
    batches.fetch_add(1, std::memory_order_relaxed);
    edges.fetch_add(applied.edges, std::memory_order_relaxed);
    gamma_republished_.fetch_add(applied.gamma_rows,
                                 std::memory_order_relaxed);
    sims_republished_.fetch_add(applied.sims_rows,
                                std::memory_order_relaxed);
    hop2_republished_.fetch_add(applied.hop2_rows,
                                std::memory_order_relaxed);
    put<std::uint8_t>(buf, kStatusOk);
    put<std::uint64_t>(buf, version);
    put<std::uint64_t>(buf, applied.gamma_rows);
    put<std::uint64_t>(buf, applied.sims_rows);
    put<std::uint64_t>(buf, applied.hop2_rows);
  } catch (const TransportError&) {
    throw;  // the update link itself died — no response possible
  } catch (const std::exception& e) {
    buf.clear();
    put_error(buf, e.what());
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  send_buffer(ch, buf);
}

void ShardServer::handle_barrier(ByteChannel& ch) {
  std::vector<std::uint8_t> buf;
  try {
    SNAPLE_CHECK_MSG(live_ != nullptr,
                     "barrier sent to a static shard");
    // Serialize behind any in-flight apply: the version returned is a
    // quiescent point, not a mid-batch read.
    std::uint64_t version = 0;
    {
      std::lock_guard<std::mutex> lock(update_mu_);
      version = live_->version();
    }
    put<std::uint8_t>(buf, kStatusOk);
    put<std::uint64_t>(buf, version);
  } catch (const TransportError&) {
    throw;
  } catch (const std::exception& e) {
    buf.clear();
    put_error(buf, e.what());
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  send_buffer(ch, buf);
}

ShardServer::ResolvedRows ShardServer::collect_rows(
    std::span<const VertexId> users) {
  ResolvedRows out;
  std::vector<VertexId>& missing = out.overlay.ids;
  // Live backend: pin each user's sims row as its missing set is
  // derived, so the fold later iterates exactly the neighbor set the
  // overlay covers even if a writer republishes the row in between.
  if (live_ != nullptr) out.roots.resize(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const std::vector<VertexId> rows = missing_rows(
        users[i], live_ != nullptr ? &out.roots[i] : nullptr);
    missing.insert(missing.end(), rows.begin(), rows.end());
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()),
                missing.end());
  if (missing.empty()) return out;

  out.overlay.rows.assign(missing.size(), nullptr);
  out.pins.reserve(missing.size());
  std::vector<VertexId> need;      // cache misses, stays sorted
  std::vector<std::size_t> slot;   // their overlay positions
  for (std::size_t i = 0; i < missing.size(); ++i) {
    const VertexId v = missing[i];
    if (cache_ != nullptr) {
      if (auto row = cache_->get(v, row_version(v))) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        out.overlay.rows[i] = row.get();
        out.pins.push_back(std::move(row));
        continue;
      }
      cache_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    need.push_back(v);
    slot.push_back(i);
  }
  if (!need.empty()) {
    const auto fetched = fetch_remote(need);
    for (std::size_t j = 0; j < need.size(); ++j) {
      out.overlay.rows[slot[j]] = fetched[j].row.get();
      if (cache_ != nullptr) {
        // Cache under the version the OWNER reported, not this shard's
        // own view: on a live cluster the views may be skewed mid-burst
        // and the owner's is the one future version checks converge to.
        cache_->put(need[j], fetched[j].version, fetched[j].row);
      }
      out.pins.push_back(fetched[j].row);
    }
  }
  return out;
}

std::vector<ShardServer::FetchedRow> ShardServer::fetch_remote(
    const std::vector<VertexId>& missing) {
  std::vector<FetchedRow> out;
  out.reserve(missing.size());

  // `missing` is sorted and ranges are contiguous ascending, so each
  // owner's ids form one consecutive run — one batched request per run,
  // rows appended in order, parallel to `missing`.
  std::size_t i = 0;
  while (i < missing.size()) {
    const std::size_t owner = gas::range_owner(ranges_, missing[i]);
    std::size_t j = i;
    while (j < missing.size() && ranges_[owner].contains(missing[j])) {
      ++j;
    }
    const std::span<const VertexId> run(missing.data() + i, j - i);

    PeerLink* peer = peers_[owner].get();
    SNAPLE_CHECK_MSG(peer != nullptr,
                     "no peer link to shard " + std::to_string(owner) +
                         " — build the cluster in remote-fetch mode");
    try {
      std::lock_guard<std::mutex> lock(peer->mu);
      ByteChannel& ch = *peer->channel;
      std::vector<std::uint8_t> req;
      put<std::uint8_t>(req, kOpFetch);
      put<std::uint32_t>(req, static_cast<std::uint32_t>(run.size()));
      put_span(req, run);
      send_buffer(ch, req);

      expect_ok(ch);
      for (std::size_t r = 0; r < run.size(); ++r) {
        FetchedRow fetched;
        fetched.version = get<std::uint64_t>(ch);
        auto row = std::make_shared<HotRow>();
        const auto sims_len = get<std::uint32_t>(ch);
        get_array(ch, row->sims_ids, sims_len);
        get_array(ch, row->sims_scores, sims_len);
        const auto hop2_len = get<std::uint32_t>(ch);
        get_array(ch, row->hop2_ids, hop2_len);
        get_array(ch, row->hop2_scores, hop2_len);
        fetched.row = std::move(row);
        out.push_back(std::move(fetched));
      }
    } catch (const TransportError& e) {
      // A dead peer fails this query, not the frontend link.
      throw CheckError(std::string("peer fetch from shard ") +
                       std::to_string(owner) + " failed: " + e.what());
    }
    remote_fetch_requests_.fetch_add(1, std::memory_order_relaxed);
    remote_rows_.fetch_add(run.size(), std::memory_order_relaxed);
    i = j;
  }
  return out;
}

// -------------------------------------------------------------------
// QueryRouter
// -------------------------------------------------------------------

QueryRouter::QueryRouter(
    std::vector<gas::VertexRange> ranges,
    std::vector<std::vector<std::unique_ptr<ByteChannel>>>
        connections_per_shard,
    std::chrono::milliseconds recv_timeout)
    : ranges_(std::move(ranges)) {
  SNAPLE_CHECK_MSG(!ranges_.empty(), "router needs at least one range");
  SNAPLE_CHECK_MSG(connections_per_shard.size() == ranges_.size(),
                   "one connection pool per shard");
  pools_.resize(connections_per_shard.size());
  for (std::size_t s = 0; s < connections_per_shard.size(); ++s) {
    SNAPLE_CHECK_MSG(!connections_per_shard[s].empty(),
                     "shard " + std::to_string(s) + " has no connections");
    for (auto& channel : connections_per_shard[s]) {
      auto conn = std::make_unique<Connection>();
      conn->channel = std::move(channel);
      if (recv_timeout.count() > 0) {
        // Armed on the drain (receiving) side only: a shard silent past
        // the deadline WITH requests in flight is dead, not slow.
        conn->channel->set_recv_timeout(recv_timeout);
      }
      pools_[s].push_back(std::move(conn));
    }
  }
  round_robin_ =
      std::make_unique<std::atomic<std::size_t>[]>(pools_.size());
  for (std::size_t s = 0; s < pools_.size(); ++s) round_robin_[s] = 0;
  // Drain threads last — nothing above may throw once they run.
  for (auto& pool : pools_) {
    for (auto& conn : pool) {
      Connection* c = conn.get();
      c->drain = std::thread([this, c] { drain_loop(*c); });
    }
  }
}

QueryRouter::~QueryRouter() { close(); }

void QueryRouter::close() {
  if (closed_.exchange(true)) return;
  for (auto& pool : pools_) {
    for (auto& conn : pool) conn->channel->close();
  }
  for (auto& pool : pools_) {
    for (auto& conn : pool) {
      if (conn->drain.joinable()) conn->drain.join();
    }
  }
}

void QueryRouter::fail(Pending& pending, const std::exception_ptr& err) {
  if (auto* single = std::get_if<std::promise<Scored>>(&pending.result)) {
    single->set_exception(err);
  } else {
    std::get<std::promise<std::vector<Scored>>>(pending.result)
        .set_exception(err);
  }
}

void QueryRouter::submit(std::size_t shard,
                         const std::vector<std::uint8_t>& req,
                         Pending pending) {
  auto& pool = pools_[shard];
  const std::size_t pick =
      round_robin_[shard].fetch_add(1, std::memory_order_relaxed) %
      pool.size();
  Connection& conn = *pool[pick];

  // Enqueue, then write, both under the send mutex: wire order IS queue
  // order, which is all the drain thread needs to pair responses (the
  // server answers each connection's requests sequentially, in order).
  std::lock_guard<std::mutex> send_lock(conn.send_mu);
  {
    std::lock_guard<std::mutex> queue_lock(conn.queue_mu);
    if (conn.dead) {
      throw TransportError("connection to shard " + std::to_string(shard) +
                           " is closed");
    }
    conn.inflight.push_back(std::move(pending));
    const auto depth =
        static_cast<std::uint64_t>(conn.inflight.size());
    auto seen = max_inflight_.load(std::memory_order_relaxed);
    while (depth > seen && !max_inflight_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }
  try {
    send_buffer(*conn.channel, req);
  } catch (const TransportError& e) {
    // The write failed (channel closed, or torn mid-message — either way
    // this connection's stream is unusable): fail every queued future,
    // ours included, and refuse further submissions.
    const auto err = std::make_exception_ptr(TransportError(e.what()));
    std::lock_guard<std::mutex> queue_lock(conn.queue_mu);
    conn.dead = true;
    for (auto& p : conn.inflight) fail(p, err);
    conn.inflight.clear();
    throw;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
}

void QueryRouter::drain_loop(Connection& conn) {
  ByteChannel& ch = *conn.channel;
  for (;;) {
    Pending pending;
    bool popped = false;
    // Whether this wait STARTED with a request outstanding: only then
    // does a full elapsed deadline indict the shard. A request that
    // arrived mid-wait gets a fresh window on the retry.
    bool waiting = false;
    {
      std::lock_guard<std::mutex> lock(conn.queue_mu);
      waiting = !conn.inflight.empty();
    }
    try {
      const auto status = get<std::uint8_t>(ch);
      {
        std::lock_guard<std::mutex> lock(conn.queue_mu);
        if (conn.inflight.empty()) {
          throw TransportError(
              "response with no request in flight — stream desynced");
        }
        pending = std::move(conn.inflight.front());
        conn.inflight.pop_front();
        popped = true;
      }
      if (status != kStatusOk) {
        // Error responses fail ONE request; the stream stays in sync
        // and the connection keeps serving.
        fail(pending,
             std::make_exception_ptr(CheckError(get_message(ch))));
        continue;
      }
      std::vector<Scored> answers;
      answers.reserve(pending.count);
      for (std::size_t q = 0; q < pending.count; ++q) {
        const auto count = get<std::uint32_t>(ch);
        std::vector<VertexId> ids;
        std::vector<float> scores;
        get_array(ch, ids, count);
        get_array(ch, scores, count);
        Scored scored;
        scored.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          scored.emplace_back(ids[i], scores[i]);
        }
        answers.push_back(std::move(scored));
      }
      if (auto* single =
              std::get_if<std::promise<Scored>>(&pending.result)) {
        single->set_value(std::move(answers.front()));
      } else {
        std::get<std::promise<std::vector<Scored>>>(pending.result)
            .set_value(std::move(answers));
      }
    } catch (const TransportTimeout& e) {
      // The recv deadline elapsed. Silence while idle is the normal
      // state — keep waiting. Silence with requests in flight (or mid-
      // response, after the status byte was consumed) means the shard
      // is alive-but-dead to us: declare the connection dead so callers
      // get TransportError instead of waiting forever.
      if (!popped && !waiting) continue;
      const auto err = std::make_exception_ptr(TransportError(
          std::string("shard unresponsive: ") + e.what()));
      if (popped) fail(pending, err);
      {
        std::lock_guard<std::mutex> lock(conn.queue_mu);
        conn.dead = true;
        for (auto& p : conn.inflight) fail(p, err);
        conn.inflight.clear();
      }
      conn.channel->close();
      return;
    } catch (const TransportError& e) {
      // Link closed (shutdown, or the shard died): fail what's queued
      // and exit — this IS the drain thread's clean exit path.
      const auto err = std::make_exception_ptr(TransportError(e.what()));
      if (popped) fail(pending, err);
      std::lock_guard<std::mutex> lock(conn.queue_mu);
      conn.dead = true;
      for (auto& p : conn.inflight) fail(p, err);
      conn.inflight.clear();
      return;
    }
  }
}

QueryRouter::Scored QueryRouter::topk(VertexId u, std::size_t k) {
  return topk_async(u, k).get();
}

std::future<QueryRouter::Scored> QueryRouter::topk_async(VertexId u,
                                                         std::size_t k) {
  SNAPLE_CHECK_MSG(u < num_vertices(), "query vertex out of model range");
  Pending pending;
  pending.count = 1;
  auto future = std::get<std::promise<Scored>>(pending.result).get_future();

  std::vector<std::uint8_t> req;
  put<std::uint8_t>(req, kOpTopk);
  put<std::uint32_t>(req, u);
  put<std::uint64_t>(req, static_cast<std::uint64_t>(k));
  submit(shard_of(u), req, std::move(pending));
  return future;
}

std::vector<QueryRouter::Scored> QueryRouter::topk_batch(
    std::span<const VertexId> users, std::size_t k) {
  for (const VertexId u : users) {
    SNAPLE_CHECK_MSG(u < num_vertices(),
                     "query vertex out of model range");
  }
  SNAPLE_CHECK_MSG(users.size() <= kMaxArrayBytes / sizeof(VertexId),
                   "query batch exceeds the wire array cap");
  std::vector<Scored> out(users.size());
  if (users.empty()) return out;

  // Group positions by owning shard, preserving submission order within
  // each group (answers come back in request order).
  std::vector<std::vector<std::size_t>> positions(ranges_.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    positions[shard_of(users[i])].push_back(i);
  }

  // ONE wire message per owning shard, all submitted before any
  // response is awaited — the round trips overlap across shards.
  std::vector<std::future<std::vector<Scored>>> futures(ranges_.size());
  for (std::size_t s = 0; s < positions.size(); ++s) {
    if (positions[s].empty()) continue;
    Pending pending;
    pending.count = positions[s].size();
    auto& promise =
        pending.result.emplace<std::promise<std::vector<Scored>>>();
    futures[s] = promise.get_future();

    std::vector<std::uint8_t> req;
    put<std::uint8_t>(req, kOpBatch);
    put<std::uint64_t>(req, static_cast<std::uint64_t>(k));
    put<std::uint32_t>(req, static_cast<std::uint32_t>(positions[s].size()));
    for (const std::size_t i : positions[s]) {
      put<std::uint32_t>(req, users[i]);
    }
    submit(s, req, std::move(pending));
    batch_requests_.fetch_add(1, std::memory_order_relaxed);
    batched_queries_.fetch_add(positions[s].size(),
                               std::memory_order_relaxed);
  }

  for (std::size_t s = 0; s < positions.size(); ++s) {
    if (positions[s].empty()) continue;
    std::vector<Scored> answers = futures[s].get();
    for (std::size_t j = 0; j < positions[s].size(); ++j) {
      out[positions[s][j]] = std::move(answers[j]);
    }
  }
  return out;
}

RouterStats QueryRouter::stats() const {
  RouterStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.batch_requests = batch_requests_.load(std::memory_order_relaxed);
  s.batched_queries = batched_queries_.load(std::memory_order_relaxed);
  s.max_inflight = max_inflight_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t QueryRouter::bytes_sent() const noexcept {
  std::uint64_t total = 0;
  for (const auto& pool : pools_) {
    for (const auto& conn : pool) total += conn->channel->bytes_sent();
  }
  return total;
}

std::uint64_t QueryRouter::bytes_received() const noexcept {
  std::uint64_t total = 0;
  for (const auto& pool : pools_) {
    for (const auto& conn : pool) {
      total += conn->channel->bytes_received();
    }
  }
  return total;
}

// -------------------------------------------------------------------
// ServingCluster
// -------------------------------------------------------------------

namespace {

void check_cluster_options(const ServeOptions& options, VertexId n) {
  SNAPLE_CHECK_MSG(options.num_shards >= 1, "need at least one shard");
  SNAPLE_CHECK_MSG(options.connections_per_shard >= 1,
                   "need at least one router connection per shard");
  SNAPLE_CHECK_MSG(n > 0, "cannot shard an empty model");
}

}  // namespace

ServingCluster::ServingCluster(const PredictorModel& model,
                               const ServeOptions& options)
    : options_(options) {
  check_cluster_options(options, model.num_vertices());
  if (options.row_versions != nullptr) {
    SNAPLE_CHECK_MSG(options.row_versions->size() == model.num_vertices(),
                     "row-version table must have one entry per vertex");
  }
  ranges_ = plan_shard_ranges(model, options.num_shards);
  build_caches();

  servers_.reserve(ranges_.size());
  for (std::size_t s = 0; s < ranges_.size(); ++s) {
    std::shared_ptr<RowCache> cache;
    if (!caches_.empty()) {
      cache = options.shared_cache != nullptr ? caches_.front() : caches_[s];
    }
    servers_.push_back(std::make_unique<ShardServer>(
        ModelShard::build(model, ranges_[s], options.colocate), ranges_,
        std::move(cache), options.row_versions));
  }
  assemble();
}

ServingCluster::ServingCluster(std::shared_ptr<const PredictorModel> model,
                               std::shared_ptr<const CsrGraph> graph,
                               const ServeOptions& options)
    : options_(options) {
  SNAPLE_CHECK_MSG(model != nullptr, "live cluster needs a model");
  check_cluster_options(options, model->num_vertices());
  SNAPLE_CHECK_MSG(
      !options.colocate,
      "live serving requires remote-fetch mode (colocate=false): "
      "replicated rows cannot be kept fresh across inserts, but "
      "version-keyed fetched rows can");
  SNAPLE_CHECK_MSG(options.row_versions == nullptr,
                   "live clusters maintain their own row versions");
  ranges_ = plan_shard_ranges(*model, options.num_shards);
  build_caches();

  // Every shard holds the full base model + union graph (shared, as a
  // process would mmap them) and OWNS one range of live rows; LiveShard
  // verifies the kEdgeLocal tags of its share.
  servers_.reserve(ranges_.size());
  for (std::size_t s = 0; s < ranges_.size(); ++s) {
    std::shared_ptr<RowCache> cache;
    if (!caches_.empty()) {
      cache = options.shared_cache != nullptr ? caches_.front() : caches_[s];
    }
    servers_.push_back(std::make_unique<ShardServer>(
        std::make_shared<LiveShard>(model, graph, ranges_[s]), ranges_,
        std::move(cache)));
  }
  assemble();
}

void ServingCluster::build_caches() {
  // Caches exist only on the fetch path: colocated shards never fetch.
  const bool caching =
      !options_.colocate &&
      (options_.shared_cache != nullptr || options_.cache_bytes > 0);
  if (!caching) return;
  if (options_.shared_cache != nullptr) {
    caches_.push_back(options_.shared_cache);
  } else {
    for (std::size_t s = 0; s < ranges_.size(); ++s) {
      caches_.push_back(std::make_shared<RowCache>(options_.cache_bytes));
    }
  }
}

ChannelPair ServingCluster::make_link() {
  if (options_.transport != TransportKind::kTcp) {
    return make_channel_pair(options_.transport);
  }
  // Connect-then-accept on one thread is safe: the kernel completes the
  // handshake in the listener's backlog, and pairing links one at a
  // time keeps each accepted fd matched to its connect.
  auto client = tcp_connect("127.0.0.1", listener_->port());
  auto server = listener_->accept();
  return {std::move(server), std::move(client)};
}

void ServingCluster::assemble() {
  if (options_.transport == TransportKind::kTcp) {
    // ONE listener for the whole cluster — router pool, peer mesh and
    // update links all accept through it, like a real deployment's
    // accept loop (per-shard ports would work identically).
    listener_ = std::make_unique<TcpListener>(options_.tcp_port);
  }

  if (!options_.colocate) {
    // Full mesh of shard↔shard fetch links (client at i, served at j).
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      for (std::size_t j = 0; j < servers_.size(); ++j) {
        if (i == j) continue;
        ChannelPair link = make_link();
        servers_[j]->serve(std::move(link.server), /*frontend=*/false);
        servers_[i]->connect_peer(j, std::move(link.client));
      }
    }
  }

  std::vector<std::vector<std::unique_ptr<ByteChannel>>> pools(
      servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    for (std::size_t c = 0; c < options_.connections_per_shard; ++c) {
      ChannelPair link = make_link();
      servers_[s]->serve(std::move(link.server));
      pools[s].push_back(std::move(link.client));
    }
  }
  router_ = std::make_unique<QueryRouter>(
      ranges_, std::move(pools),
      std::chrono::milliseconds(options_.recv_timeout_ms));

  if (!servers_.empty() && servers_.front()->live() != nullptr) {
    // The write plane: one dedicated link per shard. frontend=false —
    // the UpdateRouter counts these bytes on its side.
    std::vector<std::unique_ptr<ByteChannel>> links;
    links.reserve(servers_.size());
    for (auto& server : servers_) {
      ChannelPair link = make_link();
      server->serve(std::move(link.server), /*frontend=*/false);
      links.push_back(std::move(link.client));
    }
    update_router_ = std::make_unique<UpdateRouter>(std::move(links));
  }
}

UpdateRouter& ServingCluster::update_router() {
  SNAPLE_CHECK_MSG(update_router_ != nullptr,
                   "this cluster is static — construct it with "
                   "(model, graph) to get an update plane");
  return *update_router_;
}

ServingCluster::~ServingCluster() {
  // Write plane first (no new inserts), then the router: frontend
  // serving threads drain and exit before the peer links those threads
  // may fetch over are closed.
  if (update_router_ != nullptr) update_router_->close();
  router_->close();
  for (auto& server : servers_) server->shutdown();
  if (listener_ != nullptr) listener_->close();
}

std::vector<ShardStats> ServingCluster::stats() const {
  std::vector<ShardStats> out;
  out.reserve(servers_.size());
  for (const auto& server : servers_) out.push_back(server->stats());
  return out;
}

RowCacheStats ServingCluster::cache_stats() const {
  RowCacheStats total;
  for (const auto& cache : caches_) {
    const RowCacheStats s = cache->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.stale_drops += s.stale_drops;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.entries += s.entries;
    total.bytes += s.bytes;
    total.capacity_bytes += s.capacity_bytes;
  }
  return total;
}

}  // namespace snaple::serve
