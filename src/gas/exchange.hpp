// Explicit inter-shard message exchange.
//
// In sharded execution every simulated machine owns a Shard (shard.hpp)
// and communicates with the others only through the buffers defined here:
//
//   * mirror -> master: per-vertex gather partial sums, shipped after the
//     local gather phase so the master can finish the fold;
//   * master -> mirror: vertex-data syncs, shipped after apply so every
//     replica observes the new Du before the next superstep.
//
// A MessageBuffer is a typed, ordered stream of records; an ExchangeGrid
// is the machines x machines matrix of them (one outbox per ordered
// (src, dst) pair). The engine *measures* network traffic by summing the
// wire size of the off-diagonal buffers it actually built — net_bytes is
// no longer a tally maintained alongside the computation, it is the size
// of real data structures that crossed a shard boundary.
//
// What is real vs simulated (docs/ARCHITECTURE.md §Sharded execution):
// buffers, routing, per-record headers, drain order and the payload
// records themselves are real. Each outbox is a header array plus one
// contiguous element array, and a record's payload is a run of elements in
// it (PartialRun below says which elements an accumulator travels as), so
// building and draining an outbox allocates nothing per record. Only the
// element *encoding* is modeled: the shards share one address space, the
// elements are native C++ values, and each record carries the wire size
// its compact binary encoding would have, as reported by the program's
// gather_sum / vd_size callbacks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "util/check.hpp"
#include "util/score_map.hpp"

namespace snaple::gas {

/// Fixed per-message framing cost on the wire: vertex id, payload length,
/// contribution count and padding — the 16 bytes the engine has always
/// charged per message, whatever the in-memory header's layout.
inline constexpr std::size_t kMessageHeaderBytes = 16;

/// A record as the drain side reads it: the header fields and a view of
/// the payload run inside the buffer. `payload_bytes` is the modeled wire
/// size of the run (compact binary encoding), `contributions` the gather
/// contribution count for partial sums (0 for vertex syncs).
template <typename Elem>
struct Message {
  VertexId vertex = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t contributions = 0;
  std::span<Elem> payload;
};

/// An ordered stream of records from one shard to another. Records are
/// appended in ascending vertex order by construction (shards walk their
/// local vertices in ascending global id), which the drain side exploits
/// for deterministic merge order.
template <typename Elem>
class MessageBuffer {
 public:
  /// Appends one record whose payload is whatever `fill(elements)` appends
  /// to the buffer's element array.
  template <typename Fill>
  void append(VertexId vertex, std::uint32_t payload_bytes,
              std::uint32_t contributions, Fill&& fill) {
    const std::size_t offset = elems_.size();
    fill(elems_);
    headers_.push_back(Header{
        vertex, payload_bytes, contributions,
        static_cast<std::uint32_t>(elems_.size() - offset), offset});
    payload_bytes_total_ += payload_bytes;
  }

  /// Appends a record whose payload is the single element `elem`.
  void push(VertexId vertex, std::uint32_t payload_bytes,
            std::uint32_t contributions, Elem elem) {
    append(vertex, payload_bytes, contributions,
           [&](std::vector<Elem>& out) { out.push_back(std::move(elem)); });
  }

  [[nodiscard]] std::size_t size() const noexcept { return headers_.size(); }
  [[nodiscard]] bool empty() const noexcept { return headers_.empty(); }

  /// Measured wire size of the whole buffer: header + payload per record.
  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return headers_.size() * kMessageHeaderBytes + payload_bytes_total_;
  }

  [[nodiscard]] Message<Elem> operator[](std::size_t i) {
    const Header& h = headers_[i];
    return {h.vertex, h.payload_bytes, h.contributions,
            std::span<Elem>(elems_.data() + h.offset, h.length)};
  }
  [[nodiscard]] Message<const Elem> operator[](std::size_t i) const {
    const Header& h = headers_[i];
    return {h.vertex, h.payload_bytes, h.contributions,
            std::span<const Elem>(elems_.data() + h.offset, h.length)};
  }

  void clear() noexcept {
    headers_.clear();
    elems_.clear();
    payload_bytes_total_ = 0;
  }

  /// Pre-sizes both arrays (the engine knows each shard's sync fan-out
  /// from the topology, so growth reallocations are avoidable).
  void reserve(std::size_t records, std::size_t elements) {
    headers_.reserve(records);
    elems_.reserve(elements);
  }

 private:
  /// A record's payload is the run [offset, offset + length) of elems_.
  struct Header {
    VertexId vertex = 0;
    std::uint32_t payload_bytes = 0;
    std::uint32_t contributions = 0;
    std::uint32_t length = 0;
    std::size_t offset = 0;
  };

  std::vector<Header> headers_;
  std::vector<Elem> elems_;
  std::size_t payload_bytes_total_ = 0;
};

/// How a gather partial travels through an outbox: as a run of `Elem`s in
/// the outbox's element array. Three shapes cover every accumulator:
///
///   * a small value accumulator (this primary template) is one element,
///     itself;
///   * a std::vector travels as its elements;
///   * a ScoreMap travels as its sealed slot run.
///
/// append() moves a mirror's partial onto an outbox and leaves the
/// partial empty with its memory kept for the next vertex. adopt() makes
/// a cleared accumulator hold a received run, reusing its memory. view()
/// shows a local partial as a run, so the flat engine merges it through
/// the same merge callable, without a copy.
template <typename Acc>
struct PartialRun {
  using Elem = Acc;
  static void append(Acc& acc, std::vector<Acc>& out) {
    out.push_back(std::move(acc));
    acc.clear();
  }
  static void adopt(Acc& into, std::span<Acc> run) {
    SNAPLE_DCHECK(run.size() == 1);
    into = std::move(run.front());
  }
  [[nodiscard]] static std::span<Acc> view(Acc& acc) noexcept {
    return {&acc, 1};
  }
};

template <typename T, typename Alloc>
struct PartialRun<std::vector<T, Alloc>> {
  using Elem = T;
  static void append(std::vector<T, Alloc>& acc, std::vector<T>& out) {
    out.insert(out.end(), std::make_move_iterator(acc.begin()),
               std::make_move_iterator(acc.end()));
    acc.clear();
  }
  static void adopt(std::vector<T, Alloc>& into, std::span<T> run) {
    into.assign(std::make_move_iterator(run.begin()),
                std::make_move_iterator(run.end()));
  }
  [[nodiscard]] static std::span<T> view(std::vector<T, Alloc>& acc) noexcept {
    return {acc.data(), acc.size()};
  }
};

/// The view of a live table is its slot array, holes included; a ScoreMap
/// merge skips the holes through ScoreMap::for_each_slot.
template <>
struct PartialRun<ScoreMap> {
  using Elem = ScoreMap::Slot;
  static void append(ScoreMap& acc, std::vector<Elem>& out) {
    acc.export_sealed(out);
  }
  static void adopt(ScoreMap& into, std::span<const Elem> run) {
    into.adopt_sealed(run);
  }
  [[nodiscard]] static std::span<const Elem> view(const ScoreMap& acc) {
    return acc.slots();
  }
};

/// The machines × machines matrix of message buffers for one exchange
/// round. outbox(s, d) is written only by shard s's task and drained only
/// by shard d's task, so the grid needs no locking: phases are separated
/// by the engine's barriers.
template <typename Elem>
class ExchangeGrid {
 public:
  explicit ExchangeGrid(std::size_t machines)
      : machines_(machines), buffers_(machines * machines) {
    SNAPLE_CHECK(machines >= 1);
  }

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return machines_;
  }

  [[nodiscard]] MessageBuffer<Elem>& outbox(std::size_t src,
                                               std::size_t dst) {
    SNAPLE_DCHECK(src < machines_ && dst < machines_);
    return buffers_[src * machines_ + dst];
  }
  [[nodiscard]] const MessageBuffer<Elem>& inbox(std::size_t dst,
                                                    std::size_t src) const {
    SNAPLE_DCHECK(src < machines_ && dst < machines_);
    return buffers_[src * machines_ + dst];
  }
  [[nodiscard]] MessageBuffer<Elem>& inbox(std::size_t dst,
                                              std::size_t src) {
    SNAPLE_DCHECK(src < machines_ && dst < machines_);
    return buffers_[src * machines_ + dst];
  }

  /// Measured bytes that crossed a machine boundary (diagonal buffers are
  /// local hand-offs and free, matching the flat engine's accounting —
  /// shards never create them, but the sum is defensive anyway).
  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    std::size_t total = 0;
    for (std::size_t s = 0; s < machines_; ++s) {
      for (std::size_t d = 0; d < machines_; ++d) {
        if (s != d) total += buffers_[s * machines_ + d].wire_bytes();
      }
    }
    return total;
  }

  /// Number of cross-machine messages in the grid.
  [[nodiscard]] std::size_t message_count() const noexcept {
    std::size_t total = 0;
    for (std::size_t s = 0; s < machines_; ++s) {
      for (std::size_t d = 0; d < machines_; ++d) {
        if (s != d) total += buffers_[s * machines_ + d].size();
      }
    }
    return total;
  }

 private:
  std::size_t machines_;
  std::vector<MessageBuffer<Elem>> buffers_;
};

/// Wall-clock accounting for the three phases of a sharded superstep;
/// embedded in StepStats so bench_shard_exchange can report where
/// exchange time goes. All zero for flat execution.
struct ExchangeBreakdown {
  /// Phase A: local gather + partial-sum buffer build (mirror side).
  double gather_build_s = 0.0;
  /// Phase B: drain partial buffers, merge, apply, build sync buffers.
  double merge_apply_s = 0.0;
  /// Phase C: drain vertex-data syncs into mirror replicas.
  double sync_drain_s = 0.0;

  [[nodiscard]] double total() const noexcept {
    return gather_build_s + merge_apply_s + sync_drain_s;
  }

  [[nodiscard]] std::string describe() const;
};

}  // namespace snaple::gas
