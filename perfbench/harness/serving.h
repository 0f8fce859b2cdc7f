// Helpers the serving workloads share: one timed request through a
// QueryServer, the open-loop generator, and the identity replay that
// compares a traced engine with an untraced one.

#ifndef PERFBENCH_HARNESS_SERVING_H_
#define PERFBENCH_HARNESS_SERVING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/query_engine.h"
#include "harness.h"
#include "serve/query_server.h"

namespace perfbench {

/// One request served through a QueryServer, timed from outside.
struct Served {
  tabula::Status status;
  tabula::ServeAnswer answer;
  double millis = 0.0;
};

/// Serves `request`. With `trace` set it also records a "serve.query"
/// span and the serve.* counters.
Served ServeOne(tabula::QueryServer* server,
                const tabula::QueryRequest& request, bool trace,
                uint64_t request_id);

/// Rows in a served answer (0 when it failed).
size_t AnswerRows(const Served& served);

/// An audit record of a served answer.
AuditItem MakeAuditItem(const tabula::QueryRequest& request,
                        const Served& served);

/// Open-loop generator: request j is due at t0 + j / rate, whatever
/// happened to earlier requests; `threads` threads take requests in
/// order, send each at its due time (or as soon as a thread frees up)
/// and time it from its due time. `next(j)` names request j.
struct OpenLoopConfig {
  double rate = 1000.0;
  double seconds = 1.0;
  size_t threads = 4;
  bool record = true;
  bool trace = false;
  /// Keep every `audit_every`-th answer for the θ audit (0 → none).
  size_t audit_every = 0;
};

struct OpenLoopResult {
  /// Completion − due, of the equality-cell requests and of the bbox
  /// requests.
  std::vector<double> latency_ms;
  std::vector<double> ranged_latency_ms;
  double lateness_sum_ms = 0.0;    ///< Σ (send − due)
  double tail_lateness_ms = 0.0;   ///< max lateness over the last 10%
  size_t sent = 0;
  size_t answer_rows = 0;
  OutcomeTally outcomes;
  std::vector<AuditItem> audit;
  double mean_lateness_ms() const {
    return sent == 0 ? 0.0 : lateness_sum_ms / static_cast<double>(sent);
  }
};

void RunOpenLoop(tabula::QueryServer* server,
                 const std::function<const tabula::QueryRequest&(size_t)>& next,
                 const OpenLoopConfig& config, OpenLoopResult* result);

/// Sequential replay of `requests` against `engine`: a hash of every
/// answer's sample row ids and the mean call time.
struct ReplayResult {
  uint64_t hash = kHashSeed;
  double mean_us = 0.0;
};
tabula::Result<ReplayResult> Replay(
    const tabula::QueryEngine& engine,
    const std::vector<tabula::QueryRequest>& requests);

/// Traced-vs-untraced identity: a violation when the two differ.
template <typename T>
void CheckSame(RunReport* report, const std::string& what, const T& untraced,
               const T& traced) {
  if (!(untraced == traced)) {
    report->Violation("traced run differs from untraced run in " + what);
  }
}

/// Tracing overhead in percent: (traced − untraced) / untraced.
inline double OverheadPct(double untraced, double traced) {
  return untraced <= 0.0 ? 0.0 : (traced - untraced) / untraced * 100.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SERVING_H_
