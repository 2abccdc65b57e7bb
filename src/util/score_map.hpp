// Open-addressing accumulator map: vertex id -> (accumulated score, count).
//
// This is the data structure behind `merge(⊕pre, γ1, γ2)` in Algorithm 2
// (line 16): during step 3 every source vertex folds up to klocal² candidate
// triplets (z, s, n) into one associative container. A std::unordered_map
// would allocate a node per candidate; this map is a flat power-of-two
// table with linear probing that callers reset and reuse across vertices,
// so the hot loop performs zero allocations in steady state.
// docs/ARCHITECTURE.md documents the rationale; micro_kernels benchmarks it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace snaple {

/// Accumulates (score, path-count) per key with a user-supplied ⊕pre.
/// Keys are 32-bit vertex ids; kEmpty is reserved as the empty marker.
class ScoreMap {
 public:
  using Key = std::uint32_t;
  static constexpr Key kEmpty = 0xffffffffu;

  struct Slot {
    Key key = kEmpty;
    float score = 0.0f;
    std::uint32_t count = 0;
  };

  /// Default construction allocates nothing — the table appears on the
  /// first accumulate(). The GAS engine default-constructs one map per
  /// deferred master vertex each superstep; lazy allocation keeps the
  /// empty ones free.
  explicit ScoreMap(std::size_t expected = 0) {
    if (expected > 0) rehash_for(expected);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Removes all entries but keeps the table memory for reuse. A hub
  /// vertex balloons the reused table; once occupancy falls far below
  /// capacity the logical table is shrunk (vector capacity is retained,
  /// so this allocates nothing) — otherwise every later clear() would
  /// keep sweeping a hub-sized array for a handful of entries.
  void clear() noexcept {
    if (slots_.size() != mask_ + 1) {
      // Sealed (dense) or never-allocated representation: drop to the
      // lazy-empty state; a probing table reappears on first accumulate.
      slots_.clear();
      size_ = 0;
      mask_ = 0;
      shift_ = 64;
      return;
    }
    if (size_ == 0) return;
    const std::size_t last = size_;
    size_ = 0;
    if (!shrink_if_oversized(last)) {
      for (auto& s : slots_) s.key = kEmpty;
    }
  }

  /// Folds (key, score, count) into the map. On first sight the entry is
  /// (score, count); afterwards score' = pre(score', score) and
  /// count' += count. `pre` is the paper's ⊕pre: any commutative,
  /// associative binary op on scores (e.g. + for Sum/Mean, × for Geom).
  template <typename PreOp>
  void accumulate(Key key, float score, std::uint32_t count, PreOp&& pre) {
    SNAPLE_DCHECK(key != kEmpty);
    if ((size_ + 1) * 4 >= slots_.size() * 3) rehash_for(slots_.size());
    std::size_t i = probe_start(key);
    for (;;) {
      Slot& s = slots_[i];
      if (s.key == key) {
        s.score = pre(s.score, score);
        s.count += count;
        return;
      }
      if (s.key == kEmpty) {
        s.key = key;
        s.score = score;
        s.count = count;
        ++size_;
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Returns the entry for `key`, or nullptr if absent. On a sealed map
  /// (adopt_sealed()) lookups fall back to a linear scan — sealed maps
  /// are meant for iteration, but a stray find() must stay correct rather
  /// than probe a table that does not exist.
  [[nodiscard]] const Slot* find(Key key) const noexcept {
    if (slots_.empty()) return nullptr;
    if (mask_ == 0) {  // sealed/dense: no probing structure (real tables
                       // have capacity >= 16, so mask_ >= 15)
      for (const auto& s : slots_) {
        if (s.key == key) return &s;
      }
      return nullptr;
    }
    std::size_t i = probe_start(key);
    for (;;) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s;
      if (s.key == kEmpty) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  /// Visits every occupied slot (unspecified order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_slot(slots_, fn);
  }

  /// Visits the occupied entries of a slot run, skipping empty slots: a
  /// sealed run (export_sealed()) or a live table's slots().
  template <typename Fn>
  static void for_each_slot(std::span<const Slot> run, Fn&& fn) {
    for (const auto& s : run) {
      if (s.key != kEmpty) fn(s.key, s.score, s.count);
    }
  }

  /// The slot array in slot order, empty slots included — the order
  /// for_each() visits.
  [[nodiscard]] std::span<const Slot> slots() const noexcept {
    return slots_;
  }

  /// Approximate heap footprint, used by the GAS memory accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return slots_.size() * sizeof(Slot);
  }

  /// Appends the entries to `out` as a *sealed run* (the occupied slots in
  /// slot order, no holes) and leaves *this empty with its table memory
  /// intact. The sharded GAS engine ships mirror partials this way,
  /// straight into an outbox's element array: read-out and reset happen in
  /// the same single sweep, and the scratch map never regrows through the
  /// rehash chain on the next vertex.
  void export_sealed(std::vector<Slot>& out) {
    if (size_ == 0) return;
    const std::size_t exported = size_;
    for (auto& s : slots_) {
      if (s.key == kEmpty) continue;
      out.push_back(s);
      s.key = kEmpty;
    }
    size_ = 0;
    shrink_if_oversized(exported);  // same hub hygiene as clear()
  }

  /// Replaces the contents with a sealed run, reusing this map's memory.
  /// A sealed map stores its entries densely (slots_.size() == size(),
  /// no empty slots, mask_ == 0): for_each() and clear() work normally,
  /// find() falls back to a scan, and the first accumulate() rebuilds a
  /// real probing table from the dense entries via the normal growth
  /// rehash — so a sealed map folds exactly like the map it came from
  /// after export_sealed().
  void adopt_sealed(std::span<const Slot> run) {
    slots_.assign(run.begin(), run.end());
    size_ = run.size();
    mask_ = 0;
    shift_ = 64;
  }

 private:
  /// Shrinks the (empty) logical table when the last occupancy used far
  /// less than its capacity. Reuses the vector's existing storage, so it
  /// never allocates; returns true if the table was re-initialized.
  /// Call only with size_ == 0.
  bool shrink_if_oversized(std::size_t last_occupancy) noexcept {
    if (slots_.size() < 256) return false;
    std::size_t target = 16;
    while (target * 3 < last_occupancy * 4 + 4) target <<= 1;
    target <<= 1;  // headroom: the next vertex is likely similar
    if (target * 4 > slots_.size()) return false;
    slots_.assign(target, Slot{});
    mask_ = target - 1;
    shift_ = 64 - count_bits(target);
    return true;
  }

  [[nodiscard]] std::size_t probe_start(Key key) const noexcept {
    // Fibonacci hashing spreads sequential vertex ids well.
    const std::uint64_t h = static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> shift_) & mask_;
  }

  void rehash_for(std::size_t expected) {
    std::size_t cap = 16;
    while (cap * 3 < expected * 4 + 4) cap <<= 1;
    if (cap <= slots_.size()) cap = slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64 - count_bits(cap);
    size_ = 0;
    for (const auto& s : old) {
      if (s.key != kEmpty) {
        // Re-insert without growth checks; capacity is sufficient.
        std::size_t i = probe_start(s.key);
        while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
        slots_[i] = s;
        ++size_;
      }
    }
  }

  static constexpr int count_bits(std::size_t pow2) noexcept {
    int b = 0;
    while ((std::size_t{1} << b) < pow2) ++b;
    return b;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace snaple
