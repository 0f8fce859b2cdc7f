/// Incremental maintenance of a sharded cube, split into the four-phase
/// streaming-ingestion protocol (see QueryEngine): PlanIngest routes
/// appended rows to their owning shards (hash of the row id, or the
/// smallest shard under range partitioning) and computes the dirty cell
/// set; BeginIngest publishes that set for per-cell staleness tagging;
/// ExecuteIngest rebuilds ONLY the touched shards into staged partitions
/// and re-runs the merge + θ re-verification pass over the mix of
/// staged and untouched shards; CommitIngest adopts the staged
/// partitions and merged directory. Refresh() composes the phases
/// back-to-back and keeps the single-instance contract: every fallible
/// step is staged, so a failed cycle (including an injected
/// `shard.build` fault) leaves the instance answering queries exactly
/// as before, generation unchanged.

#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/logging.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

/// Staged state of one in-flight sharded ingest cycle. Declared as a
/// nested type (the MergeOutput members are private to
/// ShardedTabula) but defined here so the staged layout stays local to
/// this translation unit. Everything in it is private to the cycle
/// until CommitIngest adopts it, so a failure in any phase just drops
/// the plan.
struct ShardedTabula::IngestPlanState : QueryEngine::IngestPlan {
  KeyEncoder new_encoder;
  /// Parent span for the shard.build / merge spans ExecuteIngest emits
  /// (0 = unparented; Refresh() threads its own span through).
  uint64_t parent_span = 0;
  /// Indices of shards that received appended rows.
  std::vector<size_t> touched;
  /// Redrawn global sample over [0, target_rows) — identical to the
  /// one a from-scratch build over the grown table draws (same seed,
  /// same Serfling size). Staged here and adopted at commit when the
  /// loss's state is reference-independent (retained shard states
  /// remain valid under the rebinding); reference-dependent losses
  /// keep the original sample and `adopt_global` stays false.
  bool adopt_global = false;
  std::vector<RowId> staged_global_rows;
  DatasetView staged_global;
  /// Row lists of the touched shards, pre-extended with the appends at
  /// plan time, and the partitions ExecuteIngest rebuilds over them (a
  /// failed execute abandons the plan, so the lists are moved in).
  std::vector<std::vector<RowId>> staged_rows;
  std::vector<std::unique_ptr<Tabula>> staged;
  MergeOutput merge;
  bool executed = false;
  std::unique_ptr<ShardedTabula> fresh;  ///< full-rebuild path
};

Result<std::unique_ptr<QueryEngine::IngestPlan>> ShardedTabula::PlanIngest() {
  auto owned = std::make_unique<IngestPlanState>();
  IngestPlanState* plan = owned.get();
  const size_t n0 = refreshed_rows_;
  const size_t n1 = table_->num_rows();
  if (n1 < n0) {
    return Status::InvalidArgument(
        "base table shrank; Refresh only supports appends");
  }
  plan->target_rows = n1;
  plan->stats.new_rows = n1 - n0;
  if (n1 == n0) {
    plan->no_op = true;
    return std::unique_ptr<IngestPlan>(std::move(owned));
  }

  TABULA_FAULT_POINT("refresh.begin");

  // Layout check, same as the plain engine: an unseen attribute value
  // shifts the packed-key layout, and every stored key — in every
  // shard — would be stale. Rebuild the whole sharded cube (dirty set
  // stays empty ⇒ queries tag every answer conservatively stale).
  TABULA_ASSIGN_OR_RETURN(bool layout_changed,
                          Tabula::RemakeEncoder(*table_, options_.base,
                                                encoder_, &plan->new_encoder));
  if (layout_changed) {
    plan->full_rebuild = true;
    plan->stats.full_rebuild = true;
    return std::unique_ptr<IngestPlan>(std::move(owned));
  }

  // The merge pass needs every shard's finest states and present set;
  // a loaded partition re-derives them with one dry run over its rows.
  // This mutates maintenance-only members no Query() path reads, so it
  // is safe under the shared lock; the states describe rows [0, n0).
  for (auto& part : parts_) {
    if (part->finest_states_.empty() && !part->partition_rows_->empty()) {
      TABULA_RETURN_NOT_OK(part->FoldPartitionStates());
    }
  }

  // Redraw the global sample over the grown table exactly as a
  // from-scratch build would (see the plain engine's PlanIngest for
  // the full argument): with a reference-independent loss state the
  // retained per-shard states stay valid under the new binding, so
  // the re-merge classifies against the fresh sample and the merged
  // iceberg set converges to the from-scratch one.
  if (!options_.base.effective_loss()->StateDependsOnReference()) {
    plan->staged_global_rows = Tabula::DrawGlobalSample(
        *table_, options_.base, global_sample_rows_, n0, n1);
    plan->staged_global = DatasetView(table_, plan->staged_global_rows);
    plan->adopt_global = true;
  }

  // Route appended rows to their owning shards. Range routing feeds
  // the running sizes back in, so a burst of appends still lands on
  // one (the smallest) shard at a time, deterministically.
  const size_t k = options_.num_shards;
  std::vector<size_t> sizes(k);
  for (size_t s = 0; s < k; ++s) sizes[s] = parts_[s]->partition_rows_->size();
  std::vector<std::vector<RowId>> appended(k);
  for (size_t r = n0; r < n1; ++r) {
    size_t s = ShardForNewRow(static_cast<RowId>(r), sizes);
    appended[s].push_back(static_cast<RowId>(r));
    ++sizes[s];
  }
  for (size_t s = 0; s < k; ++s) {
    if (!appended[s].empty()) plan->touched.push_back(s);
  }

  // Staged row lists for the touched shards. Appended row ids exceed
  // every existing id, so the staged lists stay ascending.
  for (size_t s : plan->touched) {
    std::vector<RowId>& rows = plan->staged_rows.emplace_back(
        *parts_[s]->partition_rows_);
    rows.insert(rows.end(), appended[s].begin(), appended[s].end());
  }

  // Dirty set: every cell (at every lattice level) holding a pending
  // row. A superset of the cells whose answers actually change — a
  // touched cell can stay non-iceberg — which errs on the side of
  // tagging an unchanged answer stale, never the reverse.
  FlatHashSet dirty;
  for (size_t r = n0; r < n1; ++r) {
    for (size_t m = 0; m < lattice_.num_cuboids(); ++m) {
      dirty.Insert(packer_.PackRowMasked(plan->new_encoder,
                                         static_cast<RowId>(r),
                                         static_cast<CuboidMask>(m)));
    }
  }
  plan->dirty_keys = dirty.SortedKeys();
  return std::unique_ptr<IngestPlan>(std::move(owned));
}

void ShardedTabula::BeginIngest(IngestPlan* plan) {
  auto* p = static_cast<IngestPlanState*>(plan);
  if (p->no_op) return;
  // Replace, not merge: a re-plan after a failed cycle recomputes a
  // superset of any earlier dirty set (refreshed_rows_ only moves at
  // commit). A full rebuild publishes an empty set — coarse staleness.
  pending_dirty_.clear();
  for (uint64_t key : p->dirty_keys) pending_dirty_.Insert(key);
}

Status ShardedTabula::ExecuteIngest(IngestPlan* plan) {
  auto* p = static_cast<IngestPlanState*>(plan);
  if (p->no_op) return Status::OK();

  Tracer* tracer = options_.base.tracer;

  if (p->full_rebuild) {
    TABULA_ASSIGN_OR_RETURN(p->fresh, Initialize(*table_, options_));
    p->target_rows = p->fresh->refreshed_rows_;
    return Status::OK();
  }

  // Rebuild ONLY the touched shards, into staged partitions (parallel,
  // one task per shard, like Initialize). The staged encoder codes the
  // appended rows; identical layout means identical keys for rows the
  // member encoder also covers.
  const DatasetView& ref =
      p->adopt_global ? p->staged_global : global_sample_;
  const std::vector<RowId>& ref_rows =
      p->adopt_global ? p->staged_global_rows : global_sample_rows_;
  TABULA_ASSIGN_OR_RETURN(
      p->staged, BuildPartitions(std::move(p->staged_rows), p->new_encoder,
                                 ref_rows, tracer, p->parent_span));

  // Re-merge over the mix of rebuilt and untouched shards (staged
  // output; nothing committed yet). Untouched partitions are read-only
  // here — safe concurrently with queries. With the tiered store, the
  // merge reads their sample tables (and re-derives demoted slices),
  // which concurrent query promotes mutate under each partition's
  // exclusive section — hold their shared locks so the candidate
  // gathers never see a half-written slot.
  std::vector<const Tabula*> part_ptrs(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    part_ptrs[s] = parts_[s].get();
  }
  for (size_t i = 0; i < p->touched.size(); ++i) {
    part_ptrs[p->touched[i]] = p->staged[i].get();
  }
  std::vector<std::shared_lock<std::shared_mutex>> store_locks;
  if (store_enabled()) {
    for (const auto& part : parts_) store_locks.emplace_back(*part->store_mu_);
  }
  TABULA_ASSIGN_OR_RETURN(
      p->merge, MergeShardCubes(part_ptrs, p->new_encoder, ref, ref_rows));
  store_locks.clear();
  // The staged partitions enter serving all-kWarm in their budget slices
  // (untouched shards keep their tiers and hit counters).
  for (auto& part : p->staged) {
    part->cube_.DropRawData();
    TABULA_RETURN_NOT_OK(part->AssignInitialTiers());
  }

  // Directory diff for the maintenance stats.
  p->merge.merged.ForEach([&](uint64_t key, const MergedCell&) {
    if (!merged_.contains(key)) ++p->stats.new_iceberg_cells;
  });
  merged_.ForEach([&](uint64_t key, const MergedCell&) {
    if (!p->merge.merged.contains(key)) ++p->stats.dropped_iceberg_cells;
  });
  p->stats.rechecked_cells = p->merge.verified_cells;
  p->stats.resampled_cells = p->merge.resampled_cells;
  p->executed = true;
  return Status::OK();
}

Status ShardedTabula::CommitIngest(std::unique_ptr<IngestPlan> plan,
                                   RefreshStats* stats) {
  auto* p = static_cast<IngestPlanState*>(plan.get());
  if (p->no_op) {
    if (stats != nullptr) *stats = p->stats;
    return Status::OK();
  }
  if (p->full_rebuild) {
    if (p->fresh == nullptr) {
      return Status::Internal(
          "CommitIngest before ExecuteIngest on a full-rebuild plan");
    }
    // Member-wise adoption instead of whole-object move: the metrics
    // registry (mutexes) must stay put, and listeners + generation
    // survive a rebuild like any other cube mutation. The exclusive
    // store lock fences the swap against in-flight promotes.
    std::unique_lock<std::shared_mutex> store_lock(*store_mu_,
                                                   std::defer_lock);
    if (store_enabled()) store_lock.lock();
    ShardedTabula& fresh = *p->fresh;
    encoder_ = std::move(fresh.encoder_);
    packer_ = std::move(fresh.packer_);
    lattice_ = fresh.lattice_;
    global_sample_rows_ = std::move(fresh.global_sample_rows_);
    global_sample_ = std::move(fresh.global_sample_);
    parts_ = std::move(fresh.parts_);
    merged_ = std::move(fresh.merged_);
    override_samples_ = std::move(fresh.override_samples_);
    override_store_ = std::move(fresh.override_store_);
    stats_ = std::move(fresh.stats_);
    refreshed_rows_ = fresh.refreshed_rows_;
    pending_dirty_.clear();
    ++generation_;
    if (stats != nullptr) *stats = p->stats;
    NotifyRefreshListeners();
    return Status::OK();
  }
  if (!p->executed) {
    return Status::Internal("CommitIngest before ExecuteIngest");
  }

  // ---- Commit point: nothing below can fail. ----
  // Tier transitions are commit-phase only: the caller's exclusive
  // section fences the partition swap, and the exclusive store lock the
  // override store's rebuild (all-kWarm) against in-flight promotes.
  // The staged partitions arrive with their tiers assigned; untouched
  // ones keep their tiers and hit counters.
  std::unique_lock<std::shared_mutex> store_lock(*store_mu_,
                                                 std::defer_lock);
  if (store_enabled()) store_lock.lock();
  encoder_ = std::move(p->new_encoder);
  if (p->adopt_global) {
    global_sample_rows_ = std::move(p->staged_global_rows);
    global_sample_ = std::move(p->staged_global);
    stats_.global_sample_tuples = global_sample_.size();
  }
  for (size_t i = 0; i < p->touched.size(); ++i) {
    parts_[p->touched[i]] = std::move(p->staged[i]);
  }
  merged_ = std::move(p->merge.merged);
  override_samples_ = std::move(p->merge.overrides);
  stats_.merged_iceberg_cells = merged_.size();
  stats_.conflict_cells = p->merge.conflict_cells;
  stats_.union_accepted_cells = p->merge.union_accepted_cells;
  stats_.verified_cells = p->merge.verified_cells;
  stats_.resampled_cells = p->merge.resampled_cells;
  for (size_t s = 0; s < parts_.size(); ++s) {
    stats_.shard_iceberg_cells[s] = parts_[s]->cube_.size();
  }
  if (store_enabled()) {
    // Configure without a spill path touches no filesystem state and
    // cannot fail — the commit point stays infallible.
    override_store_ = SampleStore();
    TABULA_CHECK(AssignOverrideTiers().ok());
  }
  refreshed_rows_ = p->target_rows;
  pending_dirty_.clear();
  ++generation_;
  if (stats != nullptr) *stats = p->stats;
  NotifyRefreshListeners();
  return Status::OK();
}

Status ShardedTabula::Refresh(RefreshStats* stats) {
  // The single-instance composition; each cycle's shard builds parent
  // under its refresh span.
  return Tabula::RunRefresh(
      this, options_.base.tracer, stats, [this](IngestPlan* plan, Span* span) {
        auto* p = static_cast<IngestPlanState*>(plan);
        p->parent_span = span->id();
        span->SetAttribute("touched_shards", p->full_rebuild
                                                 ? options_.num_shards
                                                 : p->touched.size());
      });
}

}  // namespace tabula
