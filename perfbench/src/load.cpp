#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace snaple;

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point at(double s) {
  static const Clock::time_point origin =
      Clock::now() - std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(now_s()));
  return origin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
}

struct Pending {
  std::size_t index = 0;
  double due = 0.0;
  double submitted = 0.0;
  std::future<serve::QueryRouter::Scored> answer;
};

template <typename T>
void append(std::vector<T>& into, const std::vector<T>& part) {
  into.insert(into.end(), part.begin(), part.end());
}

}  // namespace

void merge(LoadStats& into, const LoadStats& part) {
  append(into.latency_us, part.latency_us);
  append(into.late_us, part.late_us);
  append(into.submit_us, part.submit_us);
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.backlog_max = std::max(into.backlog_max, part.backlog_max);
  into.generator_cpu_s += part.generator_cpu_s;
  into.wall_s += part.wall_s;
}

void merge(WriteStats& into, const WriteStats& part) {
  append(into.stale_ms, part.stale_ms);
  append(into.wait_ms, part.wait_ms);
  append(into.apply_ms, part.apply_ms);
  append(into.remove_ms, part.remove_ms);
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.edge_ops += part.edge_ops;
  into.slots_done += part.slots_done;
  into.wall_s += part.wall_s;
}

LoadStats run_queries(serve::QueryRouter& router,
                      std::span<const VertexId> users, double rate,
                      std::uint64_t request_base) {
  const std::size_t shards = router.num_shards();
  std::vector<std::vector<std::size_t>> owned(shards);
  for (std::size_t i = 0; i < users.size(); ++i) {
    owned[router.shard_of(users[i])].push_back(i);
  }
  std::vector<LoadStats> per(shards);
  std::atomic<std::uint64_t> outstanding{0};
  std::atomic<std::uint64_t> backlog_max{0};
  const bool traced = tracer().enabled();
  const std::uint64_t parent = current_span();
  const double start = now_s() + 0.005;
  const auto worker = [&](std::size_t shard) {
    const double cpu0 = thread_cpu_s();
    LoadStats& st = per[shard];
    const auto& mine = owned[shard];
    st.latency_us.reserve(mine.size());
    st.late_us.reserve(mine.size());
    st.submit_us.reserve(mine.size());
    std::deque<Pending> inflight;
    const auto complete = [&] {
      Pending p = std::move(inflight.front());
      inflight.pop_front();
      bool ok = true;
      try {
        (void)p.answer.get();
      } catch (const std::exception&) {
        ok = false;
      }
      const double done = now_s();
      outstanding.fetch_sub(1, std::memory_order_relaxed);
      if (ok) {
        st.latency_us.push_back((done - p.due) * 1e6);
      } else {
        ++st.failed;
      }
      if (traced) {
        SpanRecord r;
        r.name = "serve.QueryRouter::topk_async";
        r.start = p.submitted;
        r.end = done;
        r.wait = p.submitted - p.due;
        r.parent = parent;
        r.request = request_base + p.index;
        r.failed = !ok;
        tracer().record(std::move(r));
      }
    };
    for (std::size_t next = 0; next < mine.size() || !inflight.empty();) {
      if (next == mine.size()) {
        inflight.front().answer.wait();
        complete();
        continue;
      }
      const std::size_t i = mine[next];
      const double due = start + static_cast<double>(i) / rate;
      if (!inflight.empty()) {
        if (inflight.front().answer.wait_until(at(due)) ==
            std::future_status::ready) {
          complete();
          continue;
        }
      } else {
        std::this_thread::sleep_until(at(due));
      }
      ++next;
      ++st.attempted;
      const double submitted = now_s();
      try {
        auto answer = router.topk_async(users[i]);
        st.submit_us.push_back((now_s() - submitted) * 1e6);
        st.late_us.push_back((submitted - due) * 1e6);
        inflight.push_back({i, due, submitted, std::move(answer)});
        const auto depth =
            outstanding.fetch_add(1, std::memory_order_relaxed) + 1;
        auto seen = backlog_max.load(std::memory_order_relaxed);
        while (depth > seen &&
               !backlog_max.compare_exchange_weak(seen, depth)) {
        }
      } catch (const std::exception&) {
        ++st.failed;
      }
    }
    st.generator_cpu_s = thread_cpu_s() - cpu0;
  };
  std::vector<std::thread> threads;
  threads.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) threads.emplace_back(worker, s);
  for (auto& t : threads) t.join();

  LoadStats total;
  for (const auto& st : per) merge(total, st);
  total.backlog_max = backlog_max.load();
  total.wall_s = now_s() - start;
  return total;
}

WriteStats run_writes(serve::UpdateRouter& plane,
                      std::span<const std::vector<WriteOp>> slots,
                      double slot_rate, double stop_after,
                      std::uint64_t request_base, std::uint64_t parent_span) {
  WriteStats st;
  const double start = now_s() + 0.005;
  for (std::size_t j = 0; j < slots.size(); ++j) {
    if (stop_after > 0.0 && now_s() - start >= stop_after) break;
    st.slots_done = j + 1;
    const std::size_t ops = slots[j].size();
    for (std::size_t k = 0; k < ops; ++k) {
      const WriteOp& op = slots[j][k];
      double due = 0.0;
      if (slot_rate > 0.0) {
        due = start + (static_cast<double>(j) +
                       static_cast<double>(k) / static_cast<double>(ops)) /
                          slot_rate;
        std::this_thread::sleep_until(at(due));
      } else {
        due = now_s();
      }
      ++st.attempted;
      const double begin = now_s();
      bool ok = true;
      try {
        (void)(op.remove ? plane.remove(op.batch) : plane.apply(op.batch));
      } catch (const std::exception&) {
        ok = false;
      }
      const double end = now_s();
      if (tracer().enabled()) {
        SpanRecord r;
        r.name = op.remove ? "serve.UpdateRouter::remove"
                           : "serve.UpdateRouter::apply";
        r.start = begin;
        r.end = end;
        r.wait = begin - due;
        r.parent = parent_span;
        r.request = request_base + j;
        r.failed = !ok;
        tracer().record(std::move(r));
      }
      if (!ok) {
        ++st.failed;
        continue;
      }
      st.edge_ops += op.batch.size();
      (op.remove ? st.remove_ms : st.apply_ms).push_back((end - begin) * 1e3);
      st.wait_ms.push_back((begin - due) * 1e3);
      st.stale_ms.push_back((end - due) * 1e3);
    }
  }
  st.wall_s = now_s() - start;
  return st;
}

}  // namespace perfbench
