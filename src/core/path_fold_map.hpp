// PathFoldMap — the accumulator of the single-vertex step-3 / step-2b
// replay (rows::fold_vertex_paths).
//
// The batch engine folds a vertex's paths grouped by the machine owning
// each edge: within a group in CSR order, then the groups' partial maps
// merged in ascending machine order (gas/engine.hpp). Float ⊕pre is not
// associative, so a replay must reproduce, per candidate z, exactly the
// chain
//
//   σ(z) = ⊕pre( ⊕pre( P_g1(z), P_g2(z) ), P_g3(z) ) ...
//
// where P_gi(z) is the left fold of z's paths in its i-th contributing
// group and the first group's partial is taken wholesale. One table does
// this: a slot holds (merged, pending, count, group). A path in the
// slot's current group folds into `pending`; a path from a later group
// first folds `pending` into `merged` (or moves it there, for the key's
// first group) and starts a new `pending`. for_each_candidate() folds the
// last `pending` in. Groups arrive in ascending order, so a group change
// always means "the previous group is complete".
//
// Membership in Γ̂(u) ∪ {u} — paths to existing neighbours are not
// candidates — is answered by the same probe: reset() pre-inserts those
// ids as excluded slots (count 0; a candidate slot always has count ≥ 1).
// Nothing here is sized by the graph: reset() sizes the table for one
// vertex's paths.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/aggregator.hpp"
#include "graph/types.hpp"
#include "util/check.hpp"

namespace snaple::rows {

class PathFoldMap {
 public:
  /// Empties the map, sizes it for `expected_paths` folded paths, and
  /// pre-inserts `excluded` and `self` as excluded keys: paths ending
  /// there are dropped by add(). The path count bounds the candidate
  /// count, so a vertex of ordinary degree never grows the table, and the
  /// table swept here stays sized to this vertex rather than to the
  /// largest one seen.
  void reset(std::span<const VertexId> excluded, VertexId self,
             std::size_t expected_paths) {
    const std::size_t cap = capacity_for(
        std::min(expected_paths, kMaxPresize) + excluded.size() + 1);
    if (slots_.capacity() > kRetainSlots && cap * 4 <= kRetainSlots) {
      // A hub's table: give it back.
      std::vector<Slot>().swap(slots_);
      std::vector<std::uint32_t>().swap(candidates_);
    }
    slots_.assign(cap, Slot{});
    set_capacity(cap);
    size_ = 0;
    candidates_.clear();
    exclude(self);
    for (const VertexId v : excluded) exclude(v);
  }

  /// Folds one path (z, s) of machine group `group` with agg's ⊕pre.
  /// Paths of one group must arrive together, groups in ascending order.
  void add(VertexId z, float s, std::uint8_t group, const Aggregator& agg) {
    SNAPLE_DCHECK(z != kEmpty);
    std::size_t i = probe_start(z);
    for (;;) {
      Slot& slot = slots_[i];
      if (slot.key == z) {
        if (slot.count == 0) return;  // z ∈ Γ̂(u) ∪ {u}: not a candidate
        ++slot.count;
        if (slot.group == group) {
          slot.pending = pre(agg, slot.pending, s);
          return;
        }
        slot.merged = slot.has_merged ? pre(agg, slot.merged, slot.pending)
                                      : slot.pending;
        slot.has_merged = true;
        slot.pending = s;
        slot.group = group;
        return;
      }
      if (slot.key == kEmpty) {
        if (needs_growth()) {
          grow();
          i = probe_start(z);
          continue;
        }
        slot = Slot{z, 0.0f, s, 1, group, false};
        ++size_;
        candidates_.push_back(static_cast<std::uint32_t>(i));
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Number of candidates (excluded keys not counted).
  [[nodiscard]] std::size_t size() const noexcept {
    return candidates_.size();
  }

  /// Visits every candidate as (z, σ, n) with its last group folded in
  /// by agg's ⊕pre (unspecified order).
  template <typename Fn>
  void for_each_candidate(const Aggregator& agg, Fn&& fn) const {
    for (const std::uint32_t i : candidates_) {
      const Slot& slot = slots_[i];
      fn(slot.key,
         slot.has_merged ? pre(agg, slot.merged, slot.pending)
                         : slot.pending,
         slot.count);
    }
  }

 private:
  static constexpr VertexId kEmpty = 0xffffffffu;
  /// Presizing stops here; a hub beyond it grows the table on demand
  /// (its paths share candidates, so the bound overshoots).
  static constexpr std::size_t kMaxPresize = std::size_t{1} << 16;
  /// Table storage above this many slots is released once a vertex
  /// needs far less.
  static constexpr std::size_t kRetainSlots = std::size_t{1} << 20;

  struct Slot {
    VertexId key = kEmpty;
    float merged = 0.0f;   // ⊕pre over the key's completed groups
    float pending = 0.0f;  // ⊕pre over the key's paths in `group`
    std::uint32_t count = 0;  // paths over all groups; 0 = excluded key
    std::uint8_t group = 0;
    bool has_merged = false;
  };

  /// ⊕pre on stored floats, exactly as the batch engine applies it.
  static float pre(const Aggregator& agg, float a, float b) {
    return static_cast<float>(agg.pre(a, b));
  }

  void exclude(VertexId v) {
    std::size_t i = probe_start(v);
    while (slots_[i].key != kEmpty) {
      if (slots_[i].key == v) return;
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{v, 0.0f, 0.0f, 0, 0, false};
    ++size_;
  }

  /// Smallest power-of-two table (≥ 16) that holds `entries` below the
  /// 3/4 load bound.
  static std::size_t capacity_for(std::size_t entries) {
    std::size_t cap = 16;
    while (cap * 3 < entries * 4 + 4) cap <<= 1;
    return cap;
  }

  [[nodiscard]] bool needs_growth() const noexcept {
    return (size_ + 1) * 4 >= slots_.size() * 3;
  }

  void set_capacity(std::size_t cap) {
    mask_ = cap - 1;
    shift_ = 64;
    while ((std::size_t{1} << (64 - shift_)) < cap) --shift_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    set_capacity(slots_.size());
    candidates_.clear();
    for (const Slot& slot : old) {
      if (slot.key == kEmpty) continue;
      std::size_t i = probe_start(slot.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i] = slot;
      if (slot.count != 0) {
        candidates_.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }

  [[nodiscard]] std::size_t probe_start(VertexId key) const noexcept {
    // Fibonacci hashing, as in ScoreMap.
    const std::uint64_t h =
        static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> shift_) & mask_;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;  // occupied slots, excluded keys included
  /// Slot index of every candidate (count ≥ 1): iteration visits these
  /// alone, never the empty and excluded slots.
  std::vector<std::uint32_t> candidates_;
};

/// This thread's replay map. Every fold — a topk on QueryEngine,
/// ModelShard or LiveShard, or a hop2 row recompute during an update —
/// runs on the calling thread and is consumed before the next one
/// starts, so one reused map per thread keeps the hot path
/// allocation-free in steady state, like the batch engine's per-worker
/// accumulators.
inline PathFoldMap& thread_fold_map() {
  static thread_local PathFoldMap map;
  return map;
}

}  // namespace snaple::rows
