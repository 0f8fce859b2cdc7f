#include <algorithm>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

/// Scatter-gather answer paths (CubeEngine::Query does the request
/// handling around them).
///
/// Equality: the merged directory decides the shape of the answer:
///  - key absent → non-iceberg cell; the global sample is within θ
///    (verified at merge time from the exactly-merged loss states).
///  - override entry → the union sample violated θ at merge time and a
///    fresh sample was drawn from the full raw data; serve it directly,
///    no fan-out.
///  - plain entry → fan out to every shard and concatenate the
///    shard-local samples in ascending shard order (deterministic);
///    `augment_global` cells append the global sample, the verified
///    stand-in for slices whose shards were individually within θ of
///    it and therefore hold no local sample.
///
/// Bbox: each shard holds a spatial grid over its own rows (built
/// against the shared global reference sample), so a bbox answer is
/// composed from per-shard partials exactly the way the cell merge
/// composes per-shard samples: slices are disjoint, every partial is
/// within θ of its slice, and the union-closure / exact-state /
/// re-sample ladder (SpatialGrid::ComposePartials) restores the
/// composed bound.
///
/// A shard whose every replica is down or faulted degrades either
/// answer: the global sample stands in for its slice, the shard id
/// lands in `unavailable_shards`, and `shard_error` carries the
/// kUnavailable detail — the request still succeeds, but the θ bound is
/// voided and the caller is told so.

template <typename Serve>
bool ShardedTabula::FanOut(TabulaQueryResult* result, Serve&& serve) const {
  Stopwatch fanout_timer;
  for (size_t s = 0; s < parts_.size(); ++s) {
    Stopwatch shard_timer;
    // The legacy whole-group seam: a `shard.query` fault takes out all
    // R replicas at once (the semantics every pre-replication test and
    // the soak fault menu rely on); `replica.query` faults take out
    // individual probes and the router fails over. A grid call's own
    // `spatial.plan` / `spatial.scan` seams count as the shard failing.
    Status status = Status::OK();
    if (FaultInjector::AnyArmed()) {
      status = FaultInjector::Global().Hit("shard.query");
    }
    if (status.ok()) status = ProbeReplicas(s);
    if (status.ok()) status = serve(s);
    if (!status.ok()) {
      result->unavailable_shards.push_back(static_cast<uint32_t>(s));
      if (result->shard_error.ok()) {
        result->shard_error = Status::Unavailable(
            "shard " + std::to_string(s) +
            " unavailable during scatter-gather: " + status.message());
      }
      metrics_.counter("shard_unavailable_total").Increment();
    }
    shard_latency_[s]->RecordMillis(shard_timer.ElapsedMillis());
  }
  fanout_latency_->RecordMillis(fanout_timer.ElapsedMillis());
  if (result->unavailable_shards.empty()) return false;
  metrics_.counter("shard_degraded_answers").Increment();
  return true;
}

void ShardedTabula::AnnotateQuerySpan(const TabulaQueryResult& result,
                                      Span* span) const {
  span->SetAttribute("unavailable_shards", result.unavailable_shards.size());
}

void ShardedTabula::ServeCell(uint64_t key, uint64_t query_span,
                              TabulaQueryResult* result) const {
  const MergedCell* cell = merged_.Find(key);
  if (cell == nullptr) {
    result->sample = DatasetView(table_, global_sample_rows_);
    return;
  }
  if (cell->has_override) {
    if (store_enabled()) {
      // One re-drawn sample per override cell: the slot is never
      // shared, so a promote never re-points the directory.
      uint32_t id = cell->override_id;
      ServeStoredSample(&override_store_, &override_samples_, key, &id,
                        query_span, result);
    } else {
      result->from_local_sample = true;
      result->sample =
          DatasetView(table_, override_samples_.sample(cell->override_id));
    }
    return;
  }

  Span fanout_span;
  if (query_span != 0) {
    fanout_span = tracer()->StartSpan("shard.query.fanout", query_span);
    fanout_span.SetAttribute("shards", parts_.size());
    fanout_span.SetAttribute("replicas_per_shard", replicas_per_shard());
  }
  std::vector<RowId> gathered;
  const bool degraded = FanOut(result, [&](size_t s) {
    ServeSlice(s, key, query_span, &gathered, result);
    return Status::OK();
  });
  if (result->store_degraded) {
    // A cold slice failed to promote: the union is incomplete and the
    // missing slice's evicted bytes must never be served, so the whole
    // answer degrades to the global sample.
    result->sample = DatasetView(table_, global_sample_rows_);
  } else if (degraded || cell->augment_global) {
    // The global sample stands in for slices the union does not cover.
    // For an `augment_global` cell that is the *verified* answer: its
    // conflict slices are within θ of the global sample and the merge
    // checked union + global against θ. For a degraded answer (shard
    // unavailable) the same rows are a best effort and the bound is
    // voided — which `unavailable_shards` being non-empty signals.
    ServeWithGlobal(std::move(gathered), result);
  } else {
    result->from_local_sample = true;
    result->sample = DatasetView(table_, std::move(gathered));
  }
}

SpatialGrid::Context ShardedTabula::SpatialContext() const {
  // Grid calls classify against the coordinator's global sample (a
  // partition built before an adopted redraw still holds the old one).
  SpatialGrid::Context ctx = parts_[0]->SpatialContext();
  ctx.ref = global_sample_;
  return ctx;
}

Result<SpatialGrid::RangeAnswer> ShardedTabula::QueryGrid(
    const SpatialGrid::Context& ctx, const SpatialGrid::ResolvedBBox& box,
    TabulaQueryResult* result) const {
  std::vector<SpatialGrid::RangeAnswer> partials;
  partials.reserve(parts_.size());
  const bool degraded = FanOut(result, [&](size_t s) -> Status {
    TABULA_ASSIGN_OR_RETURN(SpatialGrid::RangeAnswer partial,
                            parts_[s]->grid_.RangeQuery(ctx, box));
    partials.push_back(std::move(partial));
    return Status::OK();
  });
  if (degraded) {
    // What the healthy shards gathered; the caller adds the global
    // sample as the stand-in for the missing slices.
    SpatialGrid::RangeAnswer gathered;
    for (SpatialGrid::RangeAnswer& p : partials) {
      gathered.sample.insert(gathered.sample.end(), p.sample.begin(),
                             p.sample.end());
    }
    return gathered;
  }
  // All slices present: compose under the θ ladder. Re-sampling (when
  // the ladder rejects the union) draws from the ascending union of
  // every shard's matching rows — the exact vector a single-instance
  // scan produces, so re-drawn samples are K-invariant.
  auto gather_raw = [&]() -> Result<std::vector<RowId>> {
    std::vector<RowId> raw;
    for (const auto& part : parts_) {
      TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                              part->grid_.GatherRangeRows(ctx, box));
      raw.insert(raw.end(), rows.begin(), rows.end());
    }
    std::sort(raw.begin(), raw.end());
    return raw;
  };
  return SpatialGrid::ComposePartials(ctx, std::move(partials), gather_raw);
}

Result<std::vector<RowId>> ShardedTabula::GatherGridRows(
    const SpatialGrid::Context& ctx, const SpatialGrid::ResolvedBBox& box,
    TabulaQueryResult* result) const {
  // The ascending union of the shards' bbox rows equals the
  // single-instance row set, so exact answers and query-time re-samples
  // are K-invariant byte for byte.
  std::vector<RowId> rows;
  FanOut(result, [&](size_t s) -> Status {
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> shard_rows,
                            parts_[s]->grid_.GatherRangeRows(ctx, box));
    rows.insert(rows.end(), shard_rows.begin(), shard_rows.end());
    return Status::OK();
  });
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<size_t> ShardedTabula::ReplicaOrder(size_t shard) const {
  const size_t r = replicas_per_shard();
  std::vector<size_t> order(r);
  for (size_t j = 0; j < r; ++j) order[j] = j;
  if (r == 1) return order;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Replica& ra = replica_state(shard, a);
    const Replica& rb = replica_state(shard, b);
    bool down_a = ra.down.load(std::memory_order_acquire);
    bool down_b = rb.down.load(std::memory_order_acquire);
    if (down_a != down_b) return !down_a;
    // 0 = no observation yet; probe cold replicas before slow ones so
    // every replica earns an estimate, and the stable sort keeps index
    // order among ties.
    return ra.ewma_nanos.load(std::memory_order_relaxed) <
           rb.ewma_nanos.load(std::memory_order_relaxed);
  });
  return order;
}

Status ShardedTabula::ProbeReplicas(size_t shard) const {
  const bool faults_armed = FaultInjector::AnyArmed();
  Status last_error = Status::OK();
  bool probed_any = false;
  for (size_t j : ReplicaOrder(shard)) {
    Replica& replica = replica_state(shard, j);
    if (replica.down.load(std::memory_order_acquire)) continue;
    Stopwatch probe_timer;
    Status probe = Status::OK();
    if (faults_armed) {
      // Two seams per probe: the broad one for "some replica fails
      // every Nth probe" matrices, the targeted one to kill an exact
      // (shard, replica) pair. Delay-only specs model a slow replica:
      // the probe succeeds but its EWMA rises and the router prefers
      // its peers from then on.
      FaultInjector& inj = FaultInjector::Global();
      probe = inj.Hit("replica.query");
      if (probe.ok()) {
        probe = inj.Hit("replica.query.s" + std::to_string(shard) + ".r" +
                        std::to_string(j));
      }
    }
    if (!probe.ok()) {
      last_error = probe;
      metrics_.counter("replica_probe_failures").Increment();
      probed_any = true;
      continue;
    }
    int64_t nanos = static_cast<int64_t>(probe_timer.ElapsedMillis() * 1e6);
    int64_t prev = replica.ewma_nanos.load(std::memory_order_relaxed);
    int64_t next = prev == 0 ? nanos : (prev * 4 + nanos) / 5;
    replica.ewma_nanos.store(next, std::memory_order_relaxed);
    if (replicas_per_shard() > 1) {
      replica.latency->RecordMillis(probe_timer.ElapsedMillis());
      if (probed_any) metrics_.counter("replica_failovers").Increment();
    }
    return Status::OK();
  }
  if (last_error.ok()) {
    return Status::Unavailable("all " + std::to_string(replicas_per_shard()) +
                               " replicas marked down");
  }
  return Status::Unavailable(
      "all " + std::to_string(replicas_per_shard()) +
      " replicas failed; last error: " + last_error.message());
}

void ShardedTabula::ServeSlice(size_t shard, uint64_t key,
                               uint64_t query_span,
                               std::vector<RowId>* gathered,
                               TabulaQueryResult* result) const {
  const Tabula& part = *parts_[shard];
  const IcebergCell* local = part.cube_.Find(key);
  if (local == nullptr) return;
  if (!store_enabled()) {
    const auto& sample = part.samples_.sample(local->sample_id);
    gathered->insert(gathered->end(), sample.begin(), sample.end());
    return;
  }
  // The partition's store path: hit accounting, lazy promote of a cold
  // slice (with a `store.promote` span under this query's span), and
  // degrade on a failed promote.
  TabulaQueryResult slice;
  part.ServeCell(key, query_span, &slice);
  if (slice.store_degraded) {
    result->store_degraded = true;
    return;
  }
  const RowId* rows = slice.sample.raw_rows();
  gathered->insert(gathered->end(), rows, rows + slice.sample.size());
}

}  // namespace tabula
