// Outside-in instruments for the traced run: per-thread layer
// counters, forwarding decorators around the library's LossFunction
// and QueryEngine interfaces, and an in-memory span recorder.
//
// The decorators forward every virtual to the wrapped object and only
// count and time the call, so an engine built through them must give
// the same answers as one built without them (main.cc checks this).

#ifndef PERFBENCH_HARNESS_INSTRUMENTS_H_
#define PERFBENCH_HARNESS_INSTRUMENTS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "core/tabula.h"
#include "loss/loss_function.h"
#include "harness.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Per-thread counters
// ---------------------------------------------------------------------

/// Counter slots. `*Ns` slots accumulate nanoseconds.
enum Counter : size_t {
  kLossBinds,
  kLossFinalizes,
  kLossAccumulatedRows,
  kLossCandidateEvals,
  kLossAdds,
  kLossDirectEvals,
  kLossDirectEvalNs,
  kSamplingCellsSampled,
  kCoreQueries,
  kCoreQueryNs,
  kCoreLookupNs,
  kCoreLocalAnswers,
  kCoreStaleAnswers,
  kCorePlans,
  kCorePlanNs,
  kCoreBeginNs,
  kCoreExecuteNs,
  kCoreCommits,
  kCoreCommitNs,
  kCoreCommittedRows,
  kServeQueries,
  kServeNs,
  kServeQueueNs,
  kServeCacheHits,
  kSpatialRangeQueries,
  kSpatialRangeNs,
  kSpatialDecomposes,
  kSpatialInterior,
  kSpatialBoundary,
  kIngestAppends,
  kIngestAppendNs,
  kShardQueries,
  kShardQueryNs,
  kNetRequests,
  kNetRttNs,
  kNetEncodes,
  kNetEncodeNs,
  kNetDecodes,
  kNetDecodeNs,
  kNetRequestBytes,
  kNetAnswerBytes,
  kNumCounters,
};

/// Adds `n` to this thread's slot. Each thread owns one block of
/// relaxed atomics, so increments never contend; Sum() folds them.
void Count(Counter counter, uint64_t n = 1);
uint64_t Sum(Counter counter);
/// Zeroes every block (between phases of one run).
void ResetCounters();

inline uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One recorded span (OTLP-shaped on output).
struct SpanRec {
  const char* name = "";
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t request_id = 0;
  int64_t start_ns = 0;  ///< steady-clock nanoseconds
  int64_t end_ns = 0;
};

/// Keeps spans in memory (bounded) and writes them out at exit as
/// OTLP JSON lines. Disabled unless Enable() was called.
class SpanRecorder {
 public:
  static SpanRecorder& Get();
  void Enable(size_t capacity);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const SpanRec& span);
  size_t size() const;
  uint64_t dropped() const { return dropped_.load(); }
  /// Writes every span as OTLP `resourceSpans` JSON lines.
  tabula::Status WriteOtlp(const std::string& path,
                           const std::string& service) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};
  size_t capacity_ = 0;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// RAII span around one call into a layer. Parents under the span
/// open on this thread; inherits the thread's request id. A no-op
/// when the recorder is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Sets the request id spans opened on this thread inherit.
  static void SetRequest(uint64_t request_id);

 private:
  SpanRec rec_;
  uint64_t saved_parent_ = 0;
  bool active_ = false;
};

// ---------------------------------------------------------------------
// Loss decorators
// ---------------------------------------------------------------------

/// Counts Accumulate (rows folded into loss states) and Finalize (loss
/// evaluations from states, e.g. SamGraph edge tests) and forwards.
class CountingBoundLoss final : public tabula::BoundLoss {
 public:
  explicit CountingBoundLoss(std::unique_ptr<tabula::BoundLoss> inner)
      : inner_(std::move(inner)) {}
  void Accumulate(tabula::LossState* state, tabula::RowId row) const override;
  double Finalize(const tabula::LossState& state) const override;

 private:
  std::unique_ptr<tabula::BoundLoss> inner_;
};

/// Counts LossWithCandidate (attempts) and Add (useful picks).
class CountingEvaluator final : public tabula::GreedyLossEvaluator {
 public:
  explicit CountingEvaluator(
      std::unique_ptr<tabula::GreedyLossEvaluator> inner)
      : inner_(std::move(inner)) {}
  double CurrentLoss() const override;
  double LossWithCandidate(size_t candidate) const override;
  void Add(size_t candidate) override;
  size_t raw_size() const override;
  double InternalLoss() const override;

 private:
  std::unique_ptr<tabula::GreedyLossEvaluator> inner_;
};

/// Forwarding LossFunction: counts binds (SamGraph binds each candidate
/// representative and tests edges with Finalize), direct Loss()
/// evaluations (store and shard re-verification) with their time, and
/// greedy evaluators created (cells sampled); wraps what it hands out
/// in the counting decorators above.
class CountingLoss final : public tabula::LossFunction {
 public:
  explicit CountingLoss(const tabula::LossFunction* inner) : inner_(inner) {}
  std::string name() const override;
  tabula::Result<std::unique_ptr<tabula::BoundLoss>> Bind(
      const tabula::Table& table,
      const tabula::DatasetView& ref) const override;
  tabula::Result<double> Loss(const tabula::DatasetView& raw,
                              const tabula::DatasetView& sample) const override;
  tabula::Result<std::unique_ptr<tabula::GreedyLossEvaluator>>
  MakeGreedyEvaluator(const tabula::DatasetView& raw) const override;
  bool SubmodularGain() const override;
  bool UnionClosed() const override;
  bool StateDependsOnReference() const override;
  std::vector<std::string> InputColumns() const override;
  std::vector<double> Signature(
      const tabula::DatasetView& view) const override;

 private:
  const tabula::LossFunction* inner_;
};

// ---------------------------------------------------------------------
// Engine decorator
// ---------------------------------------------------------------------

/// Forwarding QueryEngine: times Query (and reads the engine's own
/// lookup time, local/stale flags off the answer) and each of the four
/// ingest phases. With `sharded` set, Query time goes to the shard.*
/// counters (the scatter-gather engine) instead of core.*.
class TimedEngine final : public tabula::QueryEngine {
 public:
  TimedEngine(tabula::QueryEngine* inner, bool sharded)
      : inner_(inner), sharded_(sharded) {}

  tabula::Result<std::unique_ptr<IngestPlan>> PlanIngest() override;
  void BeginIngest(IngestPlan* plan) override;
  tabula::Status ExecuteIngest(IngestPlan* plan) override;
  tabula::Status CommitIngest(std::unique_ptr<IngestPlan> plan,
                              RefreshStats* stats = nullptr) override;
  size_t PendingIngestRows() const override;
  tabula::Result<tabula::QueryResponse> Query(
      const tabula::QueryRequest& request) const override;
  tabula::Status Refresh(RefreshStats* stats = nullptr) override;
  tabula::Status Save(const std::string& path) const override;
  uint64_t generation() const override;
  uint64_t AddRefreshListener(std::function<void()> listener) override;
  void RemoveRefreshListener(uint64_t id) override;
  const tabula::DatasetView& global_sample() const override;
  const tabula::Table& base_table() const override;

 private:
  tabula::QueryEngine* inner_;
  bool sharded_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_INSTRUMENTS_H_
