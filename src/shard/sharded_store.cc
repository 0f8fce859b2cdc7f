/// \file
/// Tiered-sample-store integration of the sharded engine (DESIGN.md
/// §12): the global byte budget splits over K partition stores plus the
/// coordinator's override store. Each partition is a Tabula whose own
/// store enforces its slice — CLOCK demotion, lazy promote-on-miss
/// through ServeStoredSample — so this file holds only the override
/// store and the K > 1 rules: drop mode only (cold shard samples
/// re-derive deterministically from the partition's rows, so a spill
/// side file buys nothing and `spill_path` is rejected) and no hot
/// upgrades (the scatter-gather answer is a union of slices; tightening
/// one slice's θ does not tighten the union's bound). Everything here
/// is inert when `base.store.budget_bytes == 0`.

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "sampling/greedy_sampler.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

uint64_t ShardedTabula::ShardStoreBudget() const {
  return options_.base.store.budget_bytes / (options_.num_shards + 1);
}

uint64_t ShardedTabula::OverrideStoreBudget() const {
  return options_.base.store.budget_bytes -
         options_.num_shards * ShardStoreBudget();
}

Status ShardedTabula::ValidateStoreOptions() const {
  if (!store_enabled()) return Status::OK();
  const SampleStoreOptions& opts = options_.base.store;
  if (!opts.spill_path.empty()) {
    return Status::InvalidArgument(
        "store.spill_path is single-instance only; the sharded engine "
        "demotes in drop mode (cold samples re-derive deterministically "
        "from the shard row lists)");
  }
  if (opts.budget_bytes < options_.num_shards + 1) {
    return Status::InvalidArgument(
        "store.budget_bytes must be at least num_shards + 1 so every "
        "shard store (and the override store) gets a non-zero slice");
  }
  // The remaining knobs are the partitions' to validate.
  return Status::OK();
}

Status ShardedTabula::AssignOverrideTiers() {
  if (!store_enabled()) return Status::OK();
  // Load() configures the store itself before adopting persisted tier
  // records (a reconfigure would wipe them).
  if (!override_store_.enabled()) {
    SampleStoreOptions opts = options_.base.store;
    opts.budget_bytes = OverrideStoreBudget();
    TABULA_RETURN_NOT_OK(override_store_.Configure(opts));
  }
  std::vector<uint32_t> refs(override_samples_.size(), 0);
  merged_.ForEach([&](uint64_t, const MergedCell& cell) {
    if (cell.has_override) ++refs[cell.override_id];
  });
  const uint64_t tuple_bytes = parts_.front()->BytesPerTuple();
  for (uint32_t id = 0; id < override_samples_.size(); ++id) {
    if (override_store_.tracked(id)) continue;  // Load() adopted it
    override_store_.Track(id, override_samples_.sample(id).size() * tuple_bytes,
                          SampleTier::kWarm, refs[id]);
  }
  Tabula::EnforceStoreBudgetLocked(&override_store_, &override_samples_);
  return Status::OK();
}

Status ShardedTabula::PromoteOverrideLocked(uint64_t key,
                                            const MergedCell& cell,
                                            std::vector<RowId>* out) const {
  TABULA_FAULT_POINT("store.promote");
  // The merge drew this override from the union of the cell's shard
  // slices, sorted ascending (shard slices are disjoint row sets, so
  // the sort restores the exact full-table gather). Reproduce it from
  // each partition's row index; a partition holding no rows of the cell
  // (GatherCellRows' only failure) contributes nothing.
  IcebergCell probe;
  probe.key = key;
  probe.cuboid = cell.cuboid;
  std::vector<RowId> rows;
  for (const auto& part : parts_) {
    std::vector<RowId> slice;
    if (part->GatherCellRows(probe, &slice).ok()) {
      rows.insert(rows.end(), slice.begin(), slice.end());
    }
  }
  std::sort(rows.begin(), rows.end());
  if (rows.empty()) {
    return Status::Internal("override cell has no rows in any shard");
  }
  GreedySamplerOptions sampler_opts = options_.base.sampler;
  sampler_opts.seed = options_.base.seed;
  GreedySampler sampler(options_.base.effective_loss(),
                        options_.base.threshold, sampler_opts);
  TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample,
                          sampler.Sample(DatasetView(table_, rows)));
  out->insert(out->end(), sample.begin(), sample.end());

  const uint32_t id = cell.override_id;
  const uint64_t bytes = sample.size() * parts_.front()->BytesPerTuple();
  Tabula::EnforceStoreBudgetLocked(&override_store_, &override_samples_,
                                   bytes, id);
  if (override_store_.bytes() + bytes > override_store_.budget()) {
    // The sample alone cannot fit the override slice: served, not
    // retained.
    override_store_.CountPromote();
    return Status::OK();
  }
  override_samples_.SetSample(id, std::move(sample));
  override_store_.MarkResident(id, bytes, SampleTier::kWarm);
  override_store_.CountPromote();
  return Status::OK();
}

SampleStoreStats ShardedTabula::StoreStats() const {
  SampleStoreStats total;
  total.budget_bytes = options_.base.store.budget_bytes;
  if (!store_enabled()) return total;
  auto fold = [&](const SampleStore& store, std::shared_mutex& mu) {
    std::shared_lock<std::shared_mutex> lock(mu);
    SampleStoreStats s = store.Stats();
    total.resident_bytes += s.resident_bytes;
    total.hot_samples += s.hot_samples;
    total.warm_samples += s.warm_samples;
    total.cold_samples += s.cold_samples;
    total.hits += s.hits;
    total.promotes += s.promotes;
    total.demotes += s.demotes;
    total.spill_writes += s.spill_writes;
    total.spill_reads += s.spill_reads;
    total.spill_write_failures += s.spill_write_failures;
    total.promote_failures += s.promote_failures;
  };
  for (const auto& part : parts_) fold(part->store_, *part->store_mu_);
  fold(override_store_, *store_mu_);
  return total;
}

uint64_t ShardedTabula::StoreBytes() const {
  if (!store_enabled()) return 0;
  uint64_t bytes = override_store_.bytes();
  for (const auto& part : parts_) bytes += part->store_.bytes();
  return bytes;
}

}  // namespace tabula
