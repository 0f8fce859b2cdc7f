#include "instruments.h"

#include <cstdio>
#include <utility>

namespace perfbench {

using tabula::DatasetView;
using tabula::Result;
using tabula::Status;

// ---------------------------------------------------------------------
// Per-thread counters
// ---------------------------------------------------------------------

namespace {

struct CounterBlock {
  std::array<std::atomic<uint64_t>, kNumCounters> slots{};
};

struct CounterRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<CounterBlock>> blocks;

  static CounterRegistry& Get() {
    static CounterRegistry* registry = new CounterRegistry();
    return *registry;
  }
};

CounterBlock& ThreadBlock() {
  // Blocks are owned by the registry and never freed, so a pool thread
  // that outlives this frame still has a valid block.
  thread_local CounterBlock* block = [] {
    CounterRegistry& reg = CounterRegistry::Get();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.blocks.push_back(std::make_unique<CounterBlock>());
    return reg.blocks.back().get();
  }();
  return *block;
}

}  // namespace

void Count(Counter counter, uint64_t n) {
  ThreadBlock().slots[counter].fetch_add(n, std::memory_order_relaxed);
}

uint64_t Sum(Counter counter) {
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  uint64_t total = 0;
  for (const auto& block : reg.blocks) {
    total += block->slots[counter].load(std::memory_order_relaxed);
  }
  return total;
}

void ResetCounters() {
  CounterRegistry& reg = CounterRegistry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& block : reg.blocks) {
    for (auto& slot : block->slots) slot.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

namespace {

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_request_id = 0;

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

void SpanRecorder::Enable(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  enabled_.store(true, std::memory_order_relaxed);
}

void SpanRecorder::Record(const SpanRec& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(span);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Status SpanRecorder::WriteOtlp(const std::string& path,
                               const std::string& service) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  // Steady-clock stamps are re-based onto the wall clock once, so the
  // exported times are comparable across spans of this run.
  const int64_t offset =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count() -
      SteadyNanos();
  constexpr size_t kPerLine = 1000;
  for (size_t begin = 0; begin < spans_.size(); begin += kPerLine) {
    std::fprintf(f,
                 "{\"resourceSpans\":[{\"resource\":{\"attributes\":[{\"key\":"
                 "\"service.name\",\"value\":{\"stringValue\":\"%s\"}}]},"
                 "\"scopeSpans\":[{\"scope\":{\"name\":\"perfbench\"},"
                 "\"spans\":[",
                 service.c_str());
    const size_t end = std::min(spans_.size(), begin + kPerLine);
    for (size_t i = begin; i < end; ++i) {
      const SpanRec& s = spans_[i];
      char parent[17] = "";
      if (s.parent_id != 0) {
        std::snprintf(parent, sizeof(parent), "%016llx",
                      static_cast<unsigned long long>(s.parent_id));
      }
      // The trace id is the request id (+1: OTLP forbids all-zero ids).
      std::fprintf(f,
                   "%s{\"traceId\":\"%032llx\",\"spanId\":\"%016llx\","
                   "\"parentSpanId\":\"%s\",\"name\":\"%s\",\"kind\":1,"
                   "\"startTimeUnixNano\":\"%lld\","
                   "\"endTimeUnixNano\":\"%lld\"}",
                   i == begin ? "" : ",",
                   static_cast<unsigned long long>(s.request_id + 1),
                   static_cast<unsigned long long>(s.span_id), parent,
                   s.name, static_cast<long long>(s.start_ns + offset),
                   static_cast<long long>(s.end_ns + offset));
    }
    std::fprintf(f, "]}]}]}\n");
  }
  if (std::fclose(f) != 0) return Status::IOError("cannot close " + path);
  return Status::OK();
}

ScopedSpan::ScopedSpan(const char* name) {
  SpanRecorder& rec = SpanRecorder::Get();
  if (!rec.enabled()) return;
  active_ = true;
  rec_.name = name;
  rec_.span_id = rec.NextId();
  rec_.parent_id = t_current_span;
  rec_.request_id = t_request_id;
  rec_.start_ns = SteadyNanos();
  saved_parent_ = t_current_span;
  t_current_span = rec_.span_id;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  rec_.end_ns = SteadyNanos();
  t_current_span = saved_parent_;
  SpanRecorder::Get().Record(rec_);
}

void ScopedSpan::SetRequest(uint64_t request_id) { t_request_id = request_id; }

// ---------------------------------------------------------------------
// Loss decorators
// ---------------------------------------------------------------------

void CountingBoundLoss::Accumulate(tabula::LossState* state,
                                   tabula::RowId row) const {
  Count(kLossAccumulatedRows);
  inner_->Accumulate(state, row);
}

double CountingBoundLoss::Finalize(const tabula::LossState& state) const {
  Count(kLossFinalizes);
  return inner_->Finalize(state);
}

double CountingEvaluator::CurrentLoss() const { return inner_->CurrentLoss(); }

double CountingEvaluator::LossWithCandidate(size_t candidate) const {
  Count(kLossCandidateEvals);
  return inner_->LossWithCandidate(candidate);
}

void CountingEvaluator::Add(size_t candidate) {
  Count(kLossAdds);
  inner_->Add(candidate);
}

size_t CountingEvaluator::raw_size() const { return inner_->raw_size(); }

double CountingEvaluator::InternalLoss() const {
  return inner_->InternalLoss();
}

std::string CountingLoss::name() const { return inner_->name(); }

Result<std::unique_ptr<tabula::BoundLoss>> CountingLoss::Bind(
    const tabula::Table& table, const DatasetView& ref) const {
  Count(kLossBinds);
  auto bound = inner_->Bind(table, ref);
  if (!bound.ok()) return bound.status();
  return std::unique_ptr<tabula::BoundLoss>(
      std::make_unique<CountingBoundLoss>(std::move(bound).value()));
}

Result<double> CountingLoss::Loss(const DatasetView& raw,
                                  const DatasetView& sample) const {
  const Clock::time_point start = Clock::now();
  Result<double> out = inner_->Loss(raw, sample);
  Count(kLossDirectEvals);
  Count(kLossDirectEvalNs, NanosSince(start));
  return out;
}

Result<std::unique_ptr<tabula::GreedyLossEvaluator>>
CountingLoss::MakeGreedyEvaluator(const DatasetView& raw) const {
  Count(kSamplingCellsSampled);
  auto eval = inner_->MakeGreedyEvaluator(raw);
  if (!eval.ok()) return eval.status();
  return std::unique_ptr<tabula::GreedyLossEvaluator>(
      std::make_unique<CountingEvaluator>(std::move(eval).value()));
}

bool CountingLoss::SubmodularGain() const { return inner_->SubmodularGain(); }
bool CountingLoss::UnionClosed() const { return inner_->UnionClosed(); }
bool CountingLoss::StateDependsOnReference() const {
  return inner_->StateDependsOnReference();
}
std::vector<std::string> CountingLoss::InputColumns() const {
  return inner_->InputColumns();
}
std::vector<double> CountingLoss::Signature(const DatasetView& view) const {
  return inner_->Signature(view);
}

// ---------------------------------------------------------------------
// Engine decorator
// ---------------------------------------------------------------------

Result<std::unique_ptr<tabula::QueryEngine::IngestPlan>>
TimedEngine::PlanIngest() {
  ScopedSpan span("core.plan");
  const Clock::time_point start = Clock::now();
  auto plan = inner_->PlanIngest();
  Count(kCorePlans);
  Count(kCorePlanNs, NanosSince(start));
  return plan;
}

void TimedEngine::BeginIngest(IngestPlan* plan) {
  ScopedSpan span("core.begin");
  const Clock::time_point start = Clock::now();
  inner_->BeginIngest(plan);
  Count(kCoreBeginNs, NanosSince(start));
}

Status TimedEngine::ExecuteIngest(IngestPlan* plan) {
  ScopedSpan span("core.execute");
  const Clock::time_point start = Clock::now();
  Status st = inner_->ExecuteIngest(plan);
  Count(kCoreExecuteNs, NanosSince(start));
  return st;
}

Status TimedEngine::CommitIngest(std::unique_ptr<IngestPlan> plan,
                                 RefreshStats* stats) {
  ScopedSpan span("core.commit");
  RefreshStats local;
  RefreshStats* out = stats != nullptr ? stats : &local;
  const Clock::time_point start = Clock::now();
  Status st = inner_->CommitIngest(std::move(plan), out);
  Count(kCoreCommitNs, NanosSince(start));
  if (st.ok()) {
    Count(kCoreCommits);
    Count(kCoreCommittedRows, out->new_rows);
  }
  return st;
}

size_t TimedEngine::PendingIngestRows() const {
  return inner_->PendingIngestRows();
}

Result<tabula::QueryResponse> TimedEngine::Query(
    const tabula::QueryRequest& request) const {
  ScopedSpan span(sharded_ ? "shard.query" : "core.query");
  const Clock::time_point start = Clock::now();
  auto response = inner_->Query(request);
  const uint64_t ns = NanosSince(start);
  if (sharded_) {
    Count(kShardQueries);
    Count(kShardQueryNs, ns);
  } else {
    Count(kCoreQueries);
    Count(kCoreQueryNs, ns);
  }
  if (!request.range.empty()) {
    Count(kSpatialRangeQueries);
    Count(kSpatialRangeNs, ns);
  }
  if (response.ok()) {
    const tabula::TabulaQueryResult& r = response.value().result;
    Count(kCoreLookupNs,
          static_cast<uint64_t>(r.data_system_millis * 1.0e6));
    if (r.from_local_sample) Count(kCoreLocalAnswers);
    if (r.stale) Count(kCoreStaleAnswers);
  }
  return response;
}

Status TimedEngine::Refresh(RefreshStats* stats) {
  return inner_->Refresh(stats);
}

Status TimedEngine::Save(const std::string& path) const {
  return inner_->Save(path);
}

uint64_t TimedEngine::generation() const { return inner_->generation(); }

uint64_t TimedEngine::AddRefreshListener(std::function<void()> listener) {
  return inner_->AddRefreshListener(std::move(listener));
}

void TimedEngine::RemoveRefreshListener(uint64_t id) {
  inner_->RemoveRefreshListener(id);
}

const DatasetView& TimedEngine::global_sample() const {
  return inner_->global_sample();
}

const tabula::Table& TimedEngine::base_table() const {
  return inner_->base_table();
}

}  // namespace perfbench
