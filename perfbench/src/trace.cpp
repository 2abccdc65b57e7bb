#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/stats.hpp"

namespace perfbench {

namespace {

thread_local std::vector<std::uint64_t> open_spans;

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Length of the union of `intervals` clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_lo = lo;
  double cur_hi = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur_hi) {
      total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  return total + (cur_hi - cur_lo);
}

/// Self time of every span, by id.
std::unordered_map<std::uint64_t, double> self_times(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::unordered_map<std::uint64_t, double> self;
  for (const auto& s : spans) {
    const double dur = s.end - s.start;
    const auto it = children.find(s.id);
    self[s.id] = it == children.end()
                     ? dur
                     : dur - covered(it->second, s.start, s.end);
  }
  return self;
}

/// Groups spans by `key` into summaries. With `outermost_only`, a span
/// whose ancestor has the same key adds to the count and self time but not
/// to busy time or the duration percentiles (no double-counting).
template <typename Key>
std::vector<SpanSummary> summarize(const std::vector<SpanRecord>& spans,
                                   Key key, bool outermost_only) {
  const auto self = self_times(spans);
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  const auto nested = [&](const SpanRecord& s) {
    const std::string k = key(s);
    for (auto p = s.parent; p != 0;) {
      const auto it = by_id.find(p);
      if (it == by_id.end()) return false;
      if (key(*it->second) == k) return true;
      p = it->second->parent;
    }
    return false;
  };
  std::map<std::string, std::pair<SpanSummary, std::vector<double>>> groups;
  for (const auto& s : spans) {
    auto& [sum, durations] = groups[key(s)];
    ++sum.count;
    sum.failures += s.failed ? 1 : 0;
    sum.self_s += self.at(s.id);
    sum.wait_s += s.wait;
    if (!outermost_only || !nested(s)) {
      sum.busy_s += s.end - s.start;
      durations.push_back((s.end - s.start) * 1e6);
    }
  }
  std::vector<SpanSummary> out;
  for (auto& [name, group] : groups) {
    auto& [sum, durations] = group;
    sum.name = name;
    sum.p50_us = snaple::percentile(durations, 0.50);
    sum.p99_us = snaple::percentile(durations, 0.99);
    out.push_back(std::move(sum));
  }
  return out;
}

}  // namespace

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::set_enabled(bool on) {
  constexpr std::size_t kReserve = std::size_t{1} << 18;
  if (on) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.reserve(spans_.size() + kReserve);
  }
  enabled_ = on;
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return ++last_id_;
}

void Tracer::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (span.id == 0) span.id = ++last_id_;
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to '" + path + "'");
  const std::lock_guard<std::mutex> lock(mu_);
  out.precision(17);
  for (const auto& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start\":" << s.start
        << ",\"end\":" << s.end << ",\"wait\":" << s.wait
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request
        << ",\"failed\":" << (s.failed ? "true" : "false") << "}\n";
  }
}

std::uint64_t current_span() {
  return open_spans.empty() ? 0 : open_spans.back();
}

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!tracer().enabled()) return;
  id_ = tracer().next_id();
  parent_ = current_span();
  open_spans.push_back(id_);
  start_ = now_s();
}

Span::~Span() {
  if (id_ == 0) return;
  const double end = now_s();
  open_spans.pop_back();
  SpanRecord r;
  r.name = name_;
  r.start = start_;
  r.end = end;
  r.id = id_;
  r.parent = parent_;
  r.request = request_;
  r.failed = failed_;
  tracer().record(std::move(r));
}

std::vector<SpanSummary> summarize_by_name(
    const std::vector<SpanRecord>& spans) {
  return summarize(
      spans, [](const SpanRecord& s) { return std::string(s.name); }, false);
}

std::vector<SpanSummary> summarize_by_layer(
    const std::vector<SpanRecord>& spans) {
  return summarize(
      spans, [](const SpanRecord& s) { return layer_of(s.name); }, true);
}

}  // namespace perfbench
