/// \file
/// Tiered-sample-store integration of the single-instance engine
/// (DESIGN.md §12): initial tier assignment after a build, the lazy
/// promote-on-miss serve path, budget enforcement by CLOCK demotion,
/// and the hot-upgrade maintenance sweep. Everything here is inert when
/// `TabulaOptions::store.budget_bytes == 0` — the engine then behaves
/// byte-identically to the pre-tiering build.

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "core/tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

Status Tabula::AssignInitialTiers() {
  // Never truncate the spill file: a full-rebuild ingest builds the
  // fresh instance while the old one still serves (and may still read
  // its own spill records), so records are append-only for the life of
  // the side file. Offsets are validated by per-record checksums.
  // Load() configures the store itself (before adopting persisted tier
  // records, which a reconfigure would wipe) — only configure here when
  // that has not happened.
  if (!store_.enabled()) {
    TABULA_RETURN_NOT_OK(
        store_.Configure(options_.store, /*truncate_spill=*/false));
  }
  if (!store_enabled()) return Status::OK();
  if (options_.store.hot_theta_factor <= 0.0 ||
      options_.store.hot_theta_factor > 1.0) {
    return Status::InvalidArgument(
        "store.hot_theta_factor must be in (0, 1]");
  }
  // Lazy promotes gather cell rows from the finest-row index, so build
  // it up front (just the index — NOT BuildMaintenanceState, whose
  // finest_states_ must keep covering exactly [0, refreshed_rows_) for
  // a resume_partial load). Indexing past refreshed_rows_ is harmless:
  // GatherCellRows caps at the folded prefix, and PlanIngest's
  // watermark makes the extension idempotent. A partition's row list is
  // fixed for its lifetime, so it is indexed once.
  if (partition_rows_.has_value()) {
    if (finest_rows_indexed_ == 0) {
      for (RowId r : *partition_rows_) {
        finest_rows_[packer_.PackRow(encoder_, r)].push_back(r);
      }
      finest_rows_indexed_ = partition_rows_->size();
    }
  } else {
    for (size_t r = finest_rows_indexed_; r < table_->num_rows(); ++r) {
      finest_rows_[packer_.PackRow(encoder_, static_cast<RowId>(r))]
          .push_back(static_cast<RowId>(r));
    }
    finest_rows_indexed_ = table_->num_rows();
  }
  // Register every sample at kWarm with its cube refcount (selection
  // shares representative slots across cells).
  std::vector<uint32_t> refs(samples_.size(), 0);
  for (const IcebergCell& cell : cube_.cells()) {
    if (cell.sample_id != kInvalidSampleId) ++refs[cell.sample_id];
  }
  const uint64_t tuple_bytes = BytesPerTuple();
  for (uint32_t id = 0; id < samples_.size(); ++id) {
    if (store_.tracked(id)) continue;  // Load() adopted this record
    store_.Track(id, samples_.sample(id).size() * tuple_bytes,
                 SampleTier::kWarm, refs[id]);
  }
  EnforceStoreBudgetLocked(&store_, &samples_);
  return Status::OK();
}

Status Tabula::AdoptTierRecords(
    const std::vector<SampleStore::TierRecord>& recs) {
  TABULA_RETURN_NOT_OK(
      store_.Configure(options_.store, /*truncate_spill=*/false));
  std::vector<uint32_t> refs(samples_.size(), 0);
  for (const auto& cell : cube_.cells()) {
    if (cell.sample_id != kInvalidSampleId) ++refs[cell.sample_id];
  }
  const uint64_t tuple_bytes = BytesPerTuple();
  for (uint32_t id = 0; id < samples_.size(); ++id) {
    store_.Adopt(id, recs[id], samples_.sample(id).size() * tuple_bytes,
                 refs[id]);
  }
  // A torn / truncated cold-spill side file surfaces here, before any
  // answer could be served from it.
  return store_.ValidateSpill();
}

void Tabula::EnforceStoreBudgetLocked(SampleStore* store, SampleTable* samples,
                                      uint64_t incoming, uint32_t protect) {
  const uint64_t budget = store->budget();
  const uint64_t target = budget > incoming ? budget - incoming : 0;
  const uint64_t current = store->bytes();
  if (current <= target) return;
  for (uint32_t id : store->PlanEvictions(current - target, protect)) {
    store->Demote(id, samples->TakeSample(id));
  }
}

Status Tabula::GatherCellRows(const IcebergCell& cell,
                              std::vector<RowId>* rows) const {
  rows->clear();
  const size_t n_attrs = options_.cubed_attributes.size();
  std::vector<size_t> rolled;
  for (size_t j = 0; j < n_attrs; ++j) {
    if (!(cell.cuboid & (CuboidMask{1} << j))) rolled.push_back(j);
  }
  // Only rows the cube has folded in: the index may already cover
  // pending appends staged by an in-flight (or abandoned) ingest cycle,
  // and the sample must match the committed prefix.
  const RowId bound = static_cast<RowId>(refreshed_rows_);
  finest_rows_.ForEach([&](uint64_t fkey, const std::vector<RowId>& frows) {
    uint64_t key = fkey;
    for (size_t j : rolled) key = packer_.WithNull(key, j);
    if (key != cell.key) return;
    for (RowId r : frows) {
      if (r < bound) rows->push_back(r);
    }
  });
  // Ascending row order = the build-time gather order, so re-sampling
  // is byte-deterministic.
  std::sort(rows->begin(), rows->end());
  if (rows->empty()) {
    return Status::Internal("iceberg cell has no rows in the finest index");
  }
  return Status::OK();
}

Status Tabula::PromoteLocked(IcebergCell* cell,
                             std::vector<RowId>* transient) const {
  transient->clear();
  TABULA_FAULT_POINT("store.promote");
  const uint32_t old_id = cell->sample_id;
  std::vector<RowId> rows;
  TABULA_RETURN_NOT_OK(GatherCellRows(*cell, &rows));

  const bool hot =
      store_.hits(old_id) >= options_.store.hot_promote_hits;
  SampleTier tier = hot ? SampleTier::kHot : SampleTier::kWarm;

  std::vector<RowId> sample;
  bool have_sample = false;
  if (!hot && store_.has_spill(old_id) && store_.refs(old_id) == 1) {
    // Restore the exact demoted bytes, then lazily re-verify: a spill
    // record may predate ingest cycles, so it only serves if it still
    // meets θ against the cell's current rows.
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> restored,
                            store_.ReadSpilled(old_id));
    DatasetView raw(table_, rows);
    DatasetView rep(table_, restored);
    TABULA_ASSIGN_OR_RETURN(double loss, loss_fn()->Loss(raw, rep));
    if (loss <= options_.threshold) {
      sample = std::move(restored);
      have_sample = true;
    }
  }
  if (!have_sample) {
    // Deterministic re-draw, seeded like the build: promote → demote →
    // promote reproduces the original sample bytes.
    const double theta =
        hot ? options_.threshold * options_.store.hot_theta_factor
            : options_.threshold;
    GreedySamplerOptions sampler_opts = options_.sampler;
    sampler_opts.seed = options_.seed;
    GreedySampler sampler(loss_fn(), theta, sampler_opts);
    TABULA_ASSIGN_OR_RETURN(sample, sampler.Sample(DatasetView(table_, rows)));
  }

  const uint64_t bytes = sample.size() * BytesPerTuple();
  EnforceStoreBudgetLocked(&store_, &samples_, bytes, old_id);
  if (store_.bytes() + bytes > store_.budget()) {
    // The sample alone cannot fit the budget (everything else is
    // already cold). Serve it θ-bounded but do not retain it.
    *transient = std::move(sample);
    return Status::OK();
  }

  if (store_.refs(old_id) <= 1) {
    // Sole owner: restore into the same slot — every cube link stays
    // valid, and sample-id assignment stays byte-stable.
    samples_.SetSample(old_id, std::move(sample));
    store_.MarkResident(old_id, bytes, tier);
  } else {
    // A shared representative slot went cold for all sharers; each
    // promotes into a fresh private slot so the others stay cold.
    uint32_t new_id = samples_.Add(std::move(sample));
    store_.Track(new_id, bytes, tier, /*refs=*/1);
    store_.ReleaseRef(old_id);
    cell->sample_id = new_id;
  }
  return Status::OK();
}

void Tabula::ServeStoredSample(uint64_t key, uint64_t parent_span,
                               TabulaQueryResult* result) const {
  {
    std::shared_lock<std::shared_mutex> lock(*store_mu_);
    const IcebergCell* cell = cube_.Find(key);
    store_.RecordHit(cell->sample_id);
    if (store_.resident(cell->sample_id)) {
      result->from_local_sample = true;
      result->sample = DatasetView(table_, samples_.sample(cell->sample_id));
      return;
    }
  }
  // Cold tier: lazily promote under the exclusive section.
  std::unique_lock<std::shared_mutex> lock(*store_mu_);
  IcebergCell* cell = cube_.FindMutable(key);
  if (store_.resident(cell->sample_id)) {
    // Raced with another promoter; serve its work.
    result->from_local_sample = true;
    result->sample = DatasetView(table_, samples_.sample(cell->sample_id));
    return;
  }
  Span span;
  if (options_.tracer != nullptr) {
    span = options_.tracer->StartSpan("store.promote", parent_span);
  }
  std::vector<RowId> transient;
  Status promoted = PromoteLocked(cell, &transient);
  span.SetAttribute("ok", promoted.ok());
  if (promoted.ok()) {
    store_.CountPromote();
    result->from_local_sample = true;
    if (!transient.empty()) {
      // Too large to retain: the view owns the rows, the slot stays
      // cold, and the budget invariant holds.
      span.SetAttribute("retained", false);
      result->sample = DatasetView(table_, std::move(transient));
    } else {
      span.SetAttribute("retained", true);
      span.SetAttribute("tier",
                        std::string(SampleTierName(
                            store_.tier(cell->sample_id))));
      result->sample = DatasetView(table_, samples_.sample(cell->sample_id));
    }
  } else {
    // Degrade to the global sample — never the stale evicted bytes.
    store_.CountPromoteFailure();
    result->from_local_sample = false;
    result->store_degraded = true;
    result->sample = DatasetView(table_, global_sample_rows_);
  }
}

Status Tabula::MaintainStoreTiers() {
  if (!store_enabled()) return Status::OK();
  std::unique_lock<std::shared_mutex> lock(*store_mu_);
  // Ascending key order: the sweep is deterministic at any thread count.
  std::vector<IcebergCell*> order;
  order.reserve(cube_.size());
  for (IcebergCell& cell : cube_.mutable_cells()) order.push_back(&cell);
  std::sort(order.begin(), order.end(),
            [](const IcebergCell* a, const IcebergCell* b) {
              return a->key < b->key;
            });
  GreedySamplerOptions sampler_opts = options_.sampler;
  sampler_opts.seed = options_.seed;
  GreedySampler hot_sampler(
      loss_fn(), options_.threshold * options_.store.hot_theta_factor,
      sampler_opts);
  const uint64_t tuple_bytes = BytesPerTuple();
  for (IcebergCell* cell : order) {
    const uint32_t id = cell->sample_id;
    // Hot is single-instance only: a shared representative slot serves
    // several cells, whose union of rows has no common tighter sample.
    if (!store_.resident(id) || store_.tier(id) == SampleTier::kHot) continue;
    if (store_.refs(id) != 1) continue;
    if (store_.hits(id) < options_.store.hot_promote_hits) continue;
    std::vector<RowId> rows;
    TABULA_RETURN_NOT_OK(GatherCellRows(*cell, &rows));
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample,
                            hot_sampler.Sample(DatasetView(table_, rows)));
    const uint64_t bytes = sample.size() * tuple_bytes;
    samples_.SetSample(id, std::move(sample));
    store_.MarkResident(id, bytes, SampleTier::kHot);
  }
  EnforceStoreBudgetLocked(&store_, &samples_);
  return Status::OK();
}

}  // namespace tabula
