// Spans recorded from outside the program: one around each public call
// the benchmark makes into a layer, named "<layer>.<call>". They are kept
// in memory while the run lasts and written out when it ends. With
// tracing off a Span costs one branch.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

struct SpanRecord {
  const char* name = "";  // "<layer>.<call>", a string literal
  double start = 0.0;
  double end = 0.0;
  double wait = 0.0;  // due -> start, for scheduled work (else 0)
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // shared by the spans of one request
  bool failed = false;
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Switch only while no other thread records. Switching on reserves
  /// room, so recording never reallocates under the lock mid-run.
  void set_enabled(bool on);
  [[nodiscard]] std::uint64_t next_id();
  void record(SpanRecord span);
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// One JSON object per line.
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;  // guards spans_ and last_id_
  std::vector<SpanRecord> spans_;
  std::uint64_t last_id_ = 0;
};

[[nodiscard]] Tracer& tracer();

/// RAII span on the calling thread; spans opened inside it (same thread)
/// become its children.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void fail() noexcept { failed_ = true; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double start_ = 0.0;
  bool failed_ = false;
};

/// The id of the innermost open Span on this thread (0 if none).
[[nodiscard]] std::uint64_t current_span();

/// Aggregate of a group of spans (one span name, or one layer).
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  std::size_t failures = 0;
  double busy_s = 0.0;  // summed durations
  double self_s = 0.0;  // durations minus the part children cover
  double wait_s = 0.0;  // summed due -> start waits
  double p50_us = 0.0;  // per-span duration percentiles
  double p99_us = 0.0;
};

/// Per span name, sorted by name.
[[nodiscard]] std::vector<SpanSummary> summarize_by_name(
    const std::vector<SpanRecord>& spans);
/// Per layer (the name up to its first '.'). A layer's busy time counts
/// only its outermost spans, so nested calls of one layer are not
/// double-counted.
[[nodiscard]] std::vector<SpanSummary> summarize_by_layer(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
