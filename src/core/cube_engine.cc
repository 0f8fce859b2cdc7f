#include "core/cube_engine.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "common/stopwatch.h"
#include "core/tabula.h"
#include "core/where_clause.h"
#include "sampling/greedy_sampler.h"
#include "storage/predicate.h"
#include "testing/fault_injection.h"

namespace tabula {

Result<QueryResponse> CubeEngine::Query(const QueryRequest& request) const {
  // Tracing guard: when no tracer is attached (or it is disabled and
  // the request did not opt in) `span` is inert — no allocation, no
  // clock read beyond the Stopwatch the result always carried.
  Tracer* query_tracer = tracer();
  Span span;
  if (query_tracer != nullptr) {
    span = query_tracer->StartSpan("tabula.query", request.parent_span,
                                   request.trace);
  }
  Stopwatch timer;
  QueryResponse response;
  response.span_id = span.id();
  TabulaQueryResult& result = response.result;
  // Progressive-answer tagging: the generation this answer is computed
  // at, and whether appended-but-unfolded rows are scheduled to change
  // it. With a published dirty set the tag is per-cell precise; before
  // classification (dirty set empty) every answer is conservatively
  // stale while rows pend.
  result.generation = generation_;
  const bool has_pending = table_->num_rows() > refreshed_rows_;

  // Invalid-request returns leave `span` to end at scope exit; the
  // recorded span then has no result attributes, which is the
  // trace-side marker for a rejected query.
  if (!request.range.empty()) {
    // Bbox (pan/zoom) requests take the spatial path.
    TABULA_RETURN_NOT_OK(QueryRange(request, has_pending, &result));
  } else {
    std::vector<uint32_t> codes;
    bool provably_empty = false;
    TABULA_RETURN_NOT_OK(ValidateEqualityTerms(encoder_, request.where,
                                              &codes, &provably_empty));
    if (provably_empty) {
      // The filter value never occurs in the data: the cell is provably
      // empty, so an empty sample is the exact answer (loss 0). Pending
      // rows may contain the value, so the emptiness claim itself is
      // stale while an ingest is in flight (coarse: the value has no
      // cell key to probe the dirty set with).
      result.empty_cell = true;
      result.stale = has_pending;
      result.sample = DatasetView(table_, {});
    } else {
      const uint64_t key = packer_.PackCodes(codes);
      result.stale = has_pending &&
                     (pending_dirty_.empty() || pending_dirty_.Contains(key));
      ServeCell(key, span.id(), &result);
    }
  }

  if (span.recording()) {
    span.SetAttribute("terms", request.where.size());
    span.SetAttribute("from_local_sample", result.from_local_sample);
    span.SetAttribute("empty_cell", result.empty_cell);
    span.SetAttribute("sample_rows", result.sample.size());
    AnnotateQuerySpan(result, &span);
    // The span duration IS the reported latency, so trace and stats
    // cannot disagree.
    result.data_system_millis = span.End();
  } else {
    result.data_system_millis = timer.ElapsedMillis();
  }
  return response;
}

Status CubeEngine::QueryRange(const QueryRequest& request, bool has_pending,
                              TabulaQueryResult* result) const {
  const SpatialGrid& grid = range_grid();
  if (!grid.present()) {
    return Status::InvalidArgument(
        "this engine has no spatial grid (enable TabulaOptions.spatial to "
        "serve bbox queries)");
  }
  TABULA_ASSIGN_OR_RETURN(SpatialGrid::ResolvedBBox box,
                          grid.Resolve(request.range));
  TABULA_RETURN_NOT_OK(CheckRangeTermsDisjoint(grid.options(), request.where));
  // Spatial cells live outside the cube's dirty-key space, so staleness
  // tagging is conservative: any pending rows mark the answer stale.
  result->stale = has_pending;
  SpatialGrid::Context ctx = SpatialContext();

  if (request.where.empty()) {
    TABULA_ASSIGN_OR_RETURN(SpatialGrid::RangeAnswer answer,
                            QueryGrid(ctx, box, result));
    if (!result->unavailable_shards.empty()) {
      // Degraded: θ is voided, which `unavailable_shards` signals.
      ServeWithGlobal(std::move(answer.sample), result);
    } else if (answer.raw_count == 0) {
      result->empty_cell = true;
      result->sample = DatasetView(table_, {});
    } else {
      result->from_local_sample = true;
      result->sample = DatasetView(table_, std::move(answer.sample));
    }
    return Status::OK();
  }

  // Hybrid bbox + equality: the equality path's WHERE-clause contract
  // (and error wording), then the bbox rows filtered — answered exactly
  // when small, else SAMPLING(matching, θ) at query time; both within θ,
  // both deterministic.
  std::vector<uint32_t> codes;
  bool provably_empty = false;
  TABULA_RETURN_NOT_OK(ValidateEqualityTerms(encoder_, request.where, &codes,
                                            &provably_empty));
  std::vector<RowId> matching;
  if (!provably_empty) {
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                            GatherGridRows(ctx, box, result));
    TABULA_ASSIGN_OR_RETURN(BoundPredicate pred,
                            BoundPredicate::Bind(*table_, request.where));
    matching = pred.FilterRows(rows);
    if (!result->unavailable_shards.empty()) {
      ServeWithGlobal(std::move(matching), result);
      return Status::OK();
    }
  }
  if (matching.empty()) {
    result->empty_cell = true;
    result->sample = DatasetView(table_, {});
    return Status::OK();
  }
  result->from_local_sample = true;
  const size_t resample_cap = grid.options().resample_cap;
  if (resample_cap == 0 || matching.size() <= resample_cap) {
    result->sample = DatasetView(table_, std::move(matching));
    return Status::OK();
  }
  GreedySampler sampler(ctx.loss, ctx.threshold, ctx.sampler);
  TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample,
                          sampler.Sample(DatasetView(table_, matching)));
  result->sample = DatasetView(table_, std::move(sample));
  return Status::OK();
}

void CubeEngine::ServeWithGlobal(std::vector<RowId> rows,
                                 TabulaQueryResult* result) const {
  rows.insert(rows.end(), global_sample_rows_.begin(),
              global_sample_rows_.end());
  result->from_local_sample = true;
  result->sample = DatasetView(table_, std::move(rows));
}

void CubeEngine::BeginIngest(IngestPlan* plan) {
  if (plan->no_op) return;
  // Publish the dirty set for precise staleness tagging. A replanned
  // cycle (after an execute failure) recomputes a superset over the
  // same base — refreshed_rows_ only moves at commit — so replacing,
  // not merging, is correct. Full rebuilds publish an empty set: every
  // cell reads as stale while rows pend.
  pending_dirty_.clear();
  for (uint64_t key : plan->dirty_keys) pending_dirty_.Insert(key);
}

void CubeEngine::PublishCommit() {
  pending_dirty_.clear();
  ++generation_;
  for (auto& [id, listener] : refresh_listeners_) listener();
}

Status CubeEngine::Refresh(RefreshStats* stats) {
  Stopwatch timer;
  RefreshStats local;
  RefreshStats* out = stats != nullptr ? stats : &local;
  *out = RefreshStats{};

  // One span per Refresh(); inert (no cost beyond one branch) without
  // an enabled tracer. Ended via `finish` on every success path so the
  // span-derived duration and RefreshStats::millis agree when traced.
  Tracer* refresh_tracer = tracer();
  Span span;
  if (refresh_tracer != nullptr) {
    span = refresh_tracer->StartSpan("tabula.refresh");
  }
  auto finish = [&]() {
    if (span.recording()) {
      span.SetAttribute("new_rows", out->new_rows);
      span.SetAttribute("new_iceberg_cells", out->new_iceberg_cells);
      span.SetAttribute("dropped_iceberg_cells", out->dropped_iceberg_cells);
      span.SetAttribute("rechecked_cells", out->rechecked_cells);
      span.SetAttribute("resampled_cells", out->resampled_cells);
      span.SetAttribute("full_rebuild", out->full_rebuild);
      out->millis = span.End();
    } else {
      out->millis = timer.ElapsedMillis();
    }
  };

  // Batch maintenance is exactly the streaming protocol run
  // back-to-back under the caller's one exclusive section.
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<IngestPlan> plan, PlanIngest());
  OnRefreshPlan(plan.get(), &span);
  if (plan->no_op) {
    out->new_rows = 0;
    finish();
    return Status::OK();
  }
  BeginIngest(plan.get());
  // On failure the staged plan dies here; the published dirty set stays
  // — answers keep tagging stale (rows still pend) until a later cycle
  // commits or re-plans.
  TABULA_RETURN_NOT_OK(ExecuteIngest(plan.get()));
  TABULA_RETURN_NOT_OK(CommitIngest(std::move(plan), out));
  finish();
  return Status::OK();
}

uint64_t CubeEngine::AddRefreshListener(std::function<void()> listener) {
  uint64_t id = next_listener_id_++;
  refresh_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void CubeEngine::RemoveRefreshListener(uint64_t id) {
  for (auto it = refresh_listeners_.begin(); it != refresh_listeners_.end();
       ++it) {
    if (it->first == id) {
      refresh_listeners_.erase(it);
      return;
    }
  }
}

uint64_t CubeEngine::BytesPerTuple() const {
  if (table_ == nullptr || table_->num_rows() == 0) return sizeof(RowId);
  return std::max<uint64_t>(table_->MemoryBytes() / table_->num_rows(), 1);
}

void CubeEngine::EnforceStoreBudgetLocked(SampleStore* store,
                                          SampleTable* samples,
                                          uint64_t incoming,
                                          uint32_t protect) {
  const uint64_t budget = store->budget();
  const uint64_t target = budget > incoming ? budget - incoming : 0;
  const uint64_t current = store->bytes();
  if (current <= target) return;
  for (uint32_t id : store->PlanEvictions(current - target, protect)) {
    store->Demote(id, samples->TakeSample(id));
  }
}

Status CubeEngine::PromoteLocked(SampleStore* store, SampleTable* samples,
                                 uint64_t key, uint32_t* slot,
                                 std::vector<RowId>* transient) const {
  TABULA_FAULT_POINT("store.promote");
  const uint32_t old_id = *slot;
  std::vector<RowId> sample;
  SampleTier tier = SampleTier::kWarm;
  TABULA_RETURN_NOT_OK(RestoreColdLocked(key, old_id, &sample, &tier));

  const uint64_t bytes = sample.size() * BytesPerTuple();
  EnforceStoreBudgetLocked(store, samples, bytes, old_id);
  if (store->bytes() + bytes > store->budget()) {
    // The sample alone cannot fit the budget (everything else is
    // already cold). Serve it θ-bounded but do not retain it.
    *transient = std::move(sample);
    return Status::OK();
  }
  if (store->refs(old_id) <= 1) {
    // Sole owner: restore into the same slot — every cube link stays
    // valid, and sample-id assignment stays byte-stable.
    samples->SetSample(old_id, std::move(sample));
    store->MarkResident(old_id, bytes, tier);
  } else {
    // A shared representative slot went cold for all sharers; each
    // promotes into a fresh private slot so the others stay cold.
    const uint32_t new_id = samples->Add(std::move(sample));
    store->Track(new_id, bytes, tier, /*refs=*/1);
    store->ReleaseRef(old_id);
    *slot = new_id;
  }
  return Status::OK();
}

void CubeEngine::ServeStoredSample(SampleStore* store, SampleTable* samples,
                                   uint64_t key, uint32_t* slot,
                                   uint64_t query_span,
                                   TabulaQueryResult* result) const {
  {
    std::shared_lock<std::shared_mutex> lock(*store_mu_);
    store->RecordHit(*slot);
    if (store->resident(*slot)) {
      result->from_local_sample = true;
      result->sample = DatasetView(table_, samples->sample(*slot));
      return;
    }
  }
  // Cold tier: lazily promote under the exclusive section.
  std::unique_lock<std::shared_mutex> lock(*store_mu_);
  if (store->resident(*slot)) {
    // Raced with another promoter; serve its work.
    result->from_local_sample = true;
    result->sample = DatasetView(table_, samples->sample(*slot));
    return;
  }
  Span span;
  if (Tracer* promote_tracer = tracer(); promote_tracer != nullptr) {
    span = promote_tracer->StartSpan("store.promote", query_span);
  }
  std::vector<RowId> transient;
  Status promoted = PromoteLocked(store, samples, key, slot, &transient);
  span.SetAttribute("ok", promoted.ok());
  if (!promoted.ok()) {
    // Degrade to the global sample — never the stale evicted bytes.
    store->CountPromoteFailure();
    result->from_local_sample = false;
    result->store_degraded = true;
    result->sample = DatasetView(table_, global_sample_rows_);
    return;
  }
  store->CountPromote();
  result->from_local_sample = true;
  span.SetAttribute("retained", transient.empty());
  if (!transient.empty()) {
    // Too large to retain: the view owns the rows, the slot stays
    // cold, and the budget invariant holds.
    result->sample = DatasetView(table_, std::move(transient));
    return;
  }
  span.SetAttribute("tier", std::string(SampleTierName(store->tier(*slot))));
  result->sample = DatasetView(table_, samples->sample(*slot));
}

}  // namespace tabula
