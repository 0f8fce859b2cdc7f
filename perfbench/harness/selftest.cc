// Harness self-tests, run before every benchmark run: if the harness's
// own statistics, generator, outcome counting or decorators are wrong,
// no number it prints can be trusted.

#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "instruments.h"
#include "serving.h"

namespace perfbench {

namespace {

using tabula::DatasetView;
using tabula::Result;
using tabula::Status;

#define SELFTEST_EXPECT(failures, cond)                                   \
  do {                                                                    \
    if (!(cond)) (failures)->push_back(std::string(__func__) + ": " #cond); \
  } while (0)

void TestPercentileChoice(std::vector<std::string>* failures) {
  // The highest percentile with at least ten samples beyond it.
  SELFTEST_EXPECT(failures, SupportedTailQuantile(10) == 0.0);
  SELFTEST_EXPECT(failures, SupportedTailQuantile(20) == 0.5);
  SELFTEST_EXPECT(failures, SupportedTailQuantile(100) == 0.9);
  SELFTEST_EXPECT(failures, SupportedTailQuantile(999) == 0.9);
  SELFTEST_EXPECT(failures, SupportedTailQuantile(1000) == 0.99);
  SELFTEST_EXPECT(failures, SupportedTailQuantile(10000) == 0.999);
  SELFTEST_EXPECT(failures, SupportedTailQuantile(100000) == 0.9999);
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const LatencySummary s = Summarize(v);
  SELFTEST_EXPECT(failures, s.p50_ms == 50.0);
  SELFTEST_EXPECT(failures, s.p99_ms == 99.0);
  SELFTEST_EXPECT(failures, s.tail_q == 0.9 && s.tail_ms == 90.0);
  SELFTEST_EXPECT(failures, Median({3.0, 1.0, 2.0, 10.0}) == 2.5);
}

/// Bit flags of the virtuals a recording fake saw called.
struct CallLog {
  uint64_t bits = 0;
  void Saw(int i) { bits |= uint64_t{1} << i; }
  bool AllOf(int n) const { return bits == (uint64_t{1} << n) - 1; }
};

class RecordingBound final : public tabula::BoundLoss {
 public:
  explicit RecordingBound(CallLog* log) : log_(log) {}
  void Accumulate(tabula::LossState*, tabula::RowId) const override {
    log_->Saw(0);
  }
  double Finalize(const tabula::LossState&) const override {
    log_->Saw(1);
    return 1.5;
  }

 private:
  CallLog* log_;
};

class RecordingEvaluator final : public tabula::GreedyLossEvaluator {
 public:
  explicit RecordingEvaluator(CallLog* log) : log_(log) {}
  double CurrentLoss() const override { log_->Saw(0); return 2.5; }
  double LossWithCandidate(size_t) const override { log_->Saw(1); return 3.5; }
  void Add(size_t) override { log_->Saw(2); }
  size_t raw_size() const override { log_->Saw(3); return 7; }
  double InternalLoss() const override { log_->Saw(4); return 4.5; }

 private:
  CallLog* log_;
};

class RecordingLoss final : public tabula::LossFunction {
 public:
  mutable CallLog log;
  mutable CallLog bound_log, eval_log;
  std::string name() const override { Saw(0); return "recording"; }
  Result<std::unique_ptr<tabula::BoundLoss>> Bind(
      const tabula::Table&, const DatasetView&) const override {
    Saw(1);
    return std::unique_ptr<tabula::BoundLoss>(
        std::make_unique<RecordingBound>(&bound_log));
  }
  Result<double> Loss(const DatasetView&, const DatasetView&) const override {
    Saw(2);
    return 0.25;
  }
  Result<std::unique_ptr<tabula::GreedyLossEvaluator>> MakeGreedyEvaluator(
      const DatasetView&) const override {
    Saw(3);
    return std::unique_ptr<tabula::GreedyLossEvaluator>(
        std::make_unique<RecordingEvaluator>(&eval_log));
  }
  bool SubmodularGain() const override { Saw(4); return true; }
  bool UnionClosed() const override { Saw(5); return true; }
  bool StateDependsOnReference() const override { Saw(6); return true; }
  std::vector<std::string> InputColumns() const override {
    Saw(7);
    return {"c"};
  }
  std::vector<double> Signature(const DatasetView&) const override {
    Saw(8);
    return {9.0};
  }

 private:
  void Saw(int i) const { log.Saw(i); }
};

void TestLossDecoratorsForward(std::vector<std::string>* failures) {
  auto table = MakeTaxiTable(8, 1);
  RecordingLoss inner;
  CountingLoss loss(&inner);
  DatasetView view(table.get());
  SELFTEST_EXPECT(failures, loss.name() == "recording");
  auto bound = loss.Bind(*table, view);
  SELFTEST_EXPECT(failures, loss.Loss(view, view).value() == 0.25);
  auto eval = loss.MakeGreedyEvaluator(view);
  SELFTEST_EXPECT(failures, loss.SubmodularGain());
  SELFTEST_EXPECT(failures, loss.UnionClosed());
  SELFTEST_EXPECT(failures, loss.StateDependsOnReference());
  SELFTEST_EXPECT(failures, loss.InputColumns().size() == 1);
  SELFTEST_EXPECT(failures, loss.Signature(view).at(0) == 9.0);
  SELFTEST_EXPECT(failures, inner.log.AllOf(9));
  if (bound.ok()) {
    tabula::LossState state;
    bound.value()->Accumulate(&state, 0);
    SELFTEST_EXPECT(failures, bound.value()->Finalize(state) == 1.5);
  }
  SELFTEST_EXPECT(failures, inner.bound_log.AllOf(2));
  if (eval.ok()) {
    tabula::GreedyLossEvaluator& e = *eval.value();
    SELFTEST_EXPECT(failures, e.CurrentLoss() == 2.5);
    SELFTEST_EXPECT(failures, e.LossWithCandidate(0) == 3.5);
    e.Add(0);
    SELFTEST_EXPECT(failures, e.raw_size() == 7);
    SELFTEST_EXPECT(failures, e.InternalLoss() == 4.5);
  }
  SELFTEST_EXPECT(failures, inner.eval_log.AllOf(5));
}

/// A QueryEngine that records which virtuals ran and can stall one
/// query (the open-loop test's stalled handler).
class RecordingEngine final : public tabula::QueryEngine {
 public:
  explicit RecordingEngine(const tabula::Table* table)
      : table_(table), global_(table, {0}) {}
  mutable CallLog log;
  std::atomic<int> stall_at{-1};
  mutable std::atomic<int> queries{0};

  Result<std::unique_ptr<IngestPlan>> PlanIngest() override {
    log.Saw(0);
    return std::make_unique<IngestPlan>();
  }
  void BeginIngest(IngestPlan*) override { log.Saw(1); }
  Status ExecuteIngest(IngestPlan*) override { log.Saw(2); return Status::OK(); }
  Status CommitIngest(std::unique_ptr<IngestPlan>, RefreshStats*) override {
    log.Saw(3);
    return Status::OK();
  }
  size_t PendingIngestRows() const override { Saw(4); return 0; }
  Result<tabula::QueryResponse> Query(
      const tabula::QueryRequest&) const override {
    Saw(5);
    if (queries.fetch_add(1) == stall_at.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    return tabula::QueryResponse{};
  }
  Status Refresh(RefreshStats*) override { log.Saw(6); return Status::OK(); }
  Status Save(const std::string&) const override { Saw(7); return Status::OK(); }
  uint64_t generation() const override { Saw(8); return 0; }
  uint64_t AddRefreshListener(std::function<void()>) override {
    log.Saw(9);
    return 1;
  }
  void RemoveRefreshListener(uint64_t) override { log.Saw(10); }
  const DatasetView& global_sample() const override { Saw(11); return global_; }
  const tabula::Table& base_table() const override { Saw(12); return *table_; }

 private:
  void Saw(int i) const { log.Saw(i); }
  const tabula::Table* table_;
  DatasetView global_;
};

void TestEngineDecoratorForwards(std::vector<std::string>* failures) {
  auto table = MakeTaxiTable(8, 1);
  RecordingEngine inner(table.get());
  TimedEngine engine(&inner, false);
  auto plan = engine.PlanIngest();
  if (plan.ok()) {
    engine.BeginIngest(plan.value().get());
    (void)engine.ExecuteIngest(plan.value().get());
    (void)engine.CommitIngest(std::move(plan).value());
  }
  (void)engine.PendingIngestRows();
  (void)engine.Query(tabula::QueryRequest());
  (void)engine.Refresh();
  (void)engine.Save("unused");
  (void)engine.generation();
  const uint64_t id = engine.AddRefreshListener([] {});
  engine.RemoveRefreshListener(id);
  (void)engine.global_sample();
  (void)engine.base_table();
  SELFTEST_EXPECT(failures, inner.log.AllOf(13));
}

void TestOpenLoopChargesStalls(std::vector<std::string>* failures) {
  // One 30 ms stall at 1000 requests/s: an open loop keeps sending on
  // schedule, so the ~30 requests due during the stall all wait and
  // their latency, taken from the due time, shows it. Timing from the
  // send time would show a single slow request.
  auto table = MakeTaxiTable(8, 1);
  RecordingEngine engine(table.get());
  engine.stall_at = 20;
  tabula::QueryServerOptions sopt;
  sopt.enable_cache = false;
  tabula::QueryServer server(&engine, sopt);
  const tabula::QueryRequest request;
  OpenLoopConfig config;
  config.rate = 1000.0;
  config.seconds = 0.15;
  config.threads = 1;
  OpenLoopResult result;
  RunOpenLoop(&server, [&](size_t) -> const tabula::QueryRequest& {
    return request;
  }, config, &result);
  size_t slow = 0;
  for (double ms : result.latency_ms) slow += ms > 10.0;
  SELFTEST_EXPECT(failures, result.sent == 150);
  SELFTEST_EXPECT(failures, slow >= 10);
  SELFTEST_EXPECT(failures, result.mean_lateness_ms() > 0.5);
}

void TestErrorRateCountsRefusedAndDegraded(std::vector<std::string>* failures) {
  OutcomeTally tally;
  auto answer_with = [](auto mutate) {
    auto result = std::make_shared<tabula::TabulaQueryResult>();
    tabula::ServeAnswer answer;
    mutate(result.get(), &answer);
    answer.result = result;
    return answer;
  };
  const tabula::ServeAnswer ok = answer_with([](auto*, auto*) {});
  const tabula::ServeAnswer degraded =
      answer_with([](auto*, tabula::ServeAnswer* a) { a->degraded = true; });
  const tabula::ServeAnswer store = answer_with(
      [](tabula::TabulaQueryResult* r, auto*) { r->store_degraded = true; });
  const tabula::ServeAnswer shard =
      answer_with([](tabula::TabulaQueryResult* r, auto*) {
        r->unavailable_shards.push_back(1);
      });
  tally.Add(ClassifyAnswer(Status::OK(), &ok));
  tally.Add(ClassifyAnswer(Status::Internal("x"), nullptr));
  tally.Add(ClassifyAnswer(Status::Unavailable("queue full"), nullptr));
  tally.Add(ClassifyAnswer(Status::OK(), &degraded));
  tally.Add(ClassifyAnswer(Status::OK(), &store));
  tally.Add(ClassifyAnswer(Status::OK(), &shard));
  SELFTEST_EXPECT(failures, tally.attempted() == 6);
  SELFTEST_EXPECT(failures, tally.failed() == 5);
  SELFTEST_EXPECT(failures, tally.count(Outcome::kRefused) == 1);
  SELFTEST_EXPECT(failures, tally.error_rate() == 5.0 / 6.0);
}

}  // namespace

std::vector<std::string> RunSelfTests() {
  std::vector<std::string> failures;
  TestPercentileChoice(&failures);
  TestLossDecoratorsForward(&failures);
  TestEngineDecoratorForwards(&failures);
  TestOpenLoopChargesStalls(&failures);
  TestErrorRateCountsRefusedAndDegraded(&failures);
  // The decorator tests bumped the shared counters; start clean.
  ResetCounters();
  return failures;
}

}  // namespace perfbench
