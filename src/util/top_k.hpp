// Bounded top-k selection — the `argtopk` operator of the paper
// (Algorithm 1 line 2, Algorithm 2 lines 11 and 20).
//
// Keeps the k largest items by score in a binary min-heap of size k, so
// selecting the top k of n items costs O(n log k) and O(min(k, n)) memory.
// Ties are broken by item (smaller item wins) to keep results fully
// deterministic across runs and thread counts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace snaple {

template <typename Item, typename Score = double>
class TopK {
 public:
  struct Entry {
    Item item{};
    Score score{};

    /// Heap/order comparison: lower score first; ties broken so larger
    /// items are evicted first (deterministic results).
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.score != b.score) return a.score < b.score;
      return a.item > b.item;
    }
  };

  explicit TopK(std::size_t k) : k_(k) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return k_; }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  void clear() noexcept { heap_.clear(); }

  /// Offers an item; keeps it only if it ranks among the k best so far.
  void offer(const Item& item, Score score) {
    if (k_ == 0) return;
    Entry e{item, score};
    if (heap_.size() < k_) {
      // The first offer reserves k slots, or kEagerReserve when k is
      // larger (kUnlimited means "all"): an empty selector allocates
      // nothing, and a huge k grows with the items actually offered.
      if (heap_.empty()) heap_.reserve(std::min(k_, kEagerReserve));
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), MinFirst{});
      return;
    }
    // Keep e only if it beats the current minimum (heap top).
    if (!(heap_.front() < e)) return;
    std::pop_heap(heap_.begin(), heap_.end(), MinFirst{});
    heap_.back() = e;
    std::push_heap(heap_.begin(), heap_.end(), MinFirst{});
  }

  /// Returns entries sorted by descending score (ascending item on ties)
  /// and leaves the selector empty.
  [[nodiscard]] std::vector<Entry> take_sorted() {
    std::vector<Entry> out = std::move(heap_);
    heap_.clear();
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return b < a; });
    return out;
  }

  /// Returns just the items, best first, and leaves the selector empty.
  [[nodiscard]] std::vector<Item> take_items() {
    auto entries = take_sorted();
    std::vector<Item> out;
    out.reserve(entries.size());
    for (const auto& e : entries) out.push_back(e.item);
    return out;
  }

 private:
  // std::push_heap builds a max-heap for the given "less"; we want the
  // minimum on top so the comparator is the natural operator<.
  struct MinFirst {
    bool operator()(const Entry& a, const Entry& b) const { return b < a; }
  };

  static constexpr std::size_t kEagerReserve = 1024;

  std::size_t k_;
  std::vector<Entry> heap_;
};

/// One-shot helper: top k of a whole range of (item, score) pairs.
template <typename Item, typename Score>
[[nodiscard]] std::vector<Item> top_k_items(
    const std::vector<std::pair<Item, Score>>& pairs, std::size_t k) {
  TopK<Item, Score> sel(k);
  for (const auto& [item, score] : pairs) sel.offer(item, score);
  return sel.take_items();
}

}  // namespace snaple
