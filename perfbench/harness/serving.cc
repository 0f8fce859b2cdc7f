#include "serving.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>

#include "instruments.h"

namespace perfbench {

using tabula::QueryRequest;
using tabula::Status;

Served ServeOne(tabula::QueryServer* server, const QueryRequest& request,
                bool trace, uint64_t request_id) {
  Served out;
  if (trace) ScopedSpan::SetRequest(request_id);
  {
    std::optional<ScopedSpan> span;
    if (trace) span.emplace("serve.query");
    const Clock::time_point start = Clock::now();
    auto answer = server->Query(request);
    out.millis = MillisBetween(start, Clock::now());
    if (answer.ok()) {
      out.answer = std::move(answer).value();
    } else {
      out.status = answer.status();
    }
  }
  if (trace) {
    Count(kServeQueries);
    Count(kServeNs, static_cast<uint64_t>(out.millis * 1e6));
    Count(kServeQueueNs,
          static_cast<uint64_t>(out.answer.queue_millis * 1e6));
    if (out.answer.cache_hit) Count(kServeCacheHits);
  }
  return out;
}

size_t AnswerRows(const Served& served) {
  if (!served.status.ok() || served.answer.result == nullptr) return 0;
  return served.answer.result->sample.size();
}

AuditItem MakeAuditItem(const QueryRequest& request, const Served& served) {
  AuditItem item;
  item.request = request;
  const Outcome outcome = ClassifyAnswer(served.status, &served.answer);
  item.flagged = outcome != Outcome::kOk;
  if (served.status.ok() && served.answer.result != nullptr) {
    item.sample = served.answer.result->sample.ToRowIds();
    item.empty_cell = served.answer.result->empty_cell;
  }
  return item;
}

void RunOpenLoop(tabula::QueryServer* server,
                 const std::function<const QueryRequest&(size_t)>& next,
                 const OpenLoopConfig& config, OpenLoopResult* result) {
  const size_t total =
      static_cast<size_t>(config.rate * config.seconds + 0.5);
  const double gap_ns = 1e9 / config.rate;
  // Start a little in the future so every thread is waiting at t0.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto due_of = [&](size_t j) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<int64_t>(static_cast<double>(j) * gap_ns));
  };
  const size_t tail_from = total - total / 10;
  // The threads share one schedule: each takes the next request, waits
  // for its due time and serves it, so a slow request holds up only the
  // thread serving it, and requests wait only when every thread is busy.
  std::atomic<size_t> next_index{0};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < config.threads; ++t) {
    threads.emplace_back([&] {
      std::vector<double> latency, ranged;
      std::vector<AuditItem> audit;
      double lateness_sum = 0.0;
      double tail_lateness = 0.0;
      size_t rows = 0;
      size_t sent = 0;
      for (size_t j = next_index.fetch_add(1); j < total;
           j = next_index.fetch_add(1)) {
        const Clock::time_point due = due_of(j);
        // Sleeping (not spinning) keeps the generator's CPU out of the
        // per-query CPU cost; timer wake-up delay shows as lateness.
        std::this_thread::sleep_until(due);
        const double late = MillisBetween(due, Clock::now());
        const QueryRequest& request = next(j);
        Served served = ServeOne(server, request, config.trace, j);
        const double millis = MillisBetween(due, Clock::now());
        ++sent;
        if (!config.record) continue;
        lateness_sum += late;
        if (j >= tail_from) tail_lateness = std::max(tail_lateness, late);
        (request.range.empty() ? latency : ranged).push_back(millis);
        rows += AnswerRows(served);
        result->outcomes.Add(ClassifyAnswer(served.status, &served.answer));
        if (config.audit_every != 0 && j % config.audit_every == 0) {
          audit.push_back(MakeAuditItem(request, served));
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result->latency_ms.insert(result->latency_ms.end(), latency.begin(),
                                latency.end());
      result->ranged_latency_ms.insert(result->ranged_latency_ms.end(),
                                       ranged.begin(), ranged.end());
      result->lateness_sum_ms += lateness_sum;
      result->tail_lateness_ms =
          std::max(result->tail_lateness_ms, tail_lateness);
      result->answer_rows += rows;
      result->sent += sent;
      for (AuditItem& item : audit) result->audit.push_back(std::move(item));
    });
  }
  for (std::thread& th : threads) th.join();
}

tabula::Result<ReplayResult> Replay(const tabula::QueryEngine& engine,
                                    const std::vector<QueryRequest>& requests) {
  ReplayResult out;
  double total_us = 0.0;
  for (const QueryRequest& request : requests) {
    const Clock::time_point start = Clock::now();
    TABULA_ASSIGN_OR_RETURN(tabula::QueryResponse response,
                            engine.Query(request));
    total_us += MillisBetween(start, Clock::now()) * 1e3;
    out.hash = HashRows(out.hash, response.result.sample.ToRowIds());
  }
  out.mean_us =
      requests.empty() ? 0.0 : total_us / static_cast<double>(requests.size());
  return out;
}

}  // namespace perfbench
