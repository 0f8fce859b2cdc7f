#include "shard/sharded_tabula.h"

#include <algorithm>
#include <future>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "testing/fault_injection.h"

namespace tabula {

const char* ShardPartitionName(ShardPartition partition) {
  switch (partition) {
    case ShardPartition::kHash:
      return "hash";
    case ShardPartition::kRange:
      return "range";
  }
  return "unknown";
}

Result<std::unique_ptr<ShardedTabula>> ShardedTabula::Initialize(
    const Table& table, ShardedTabulaOptions options) {
  if (options.num_shards < 2) {
    return Status::InvalidArgument(
        "num_shards must be >= 2 (a single-instance deployment is a plain "
        "Tabula)");
  }
  auto sharded = std::unique_ptr<ShardedTabula>(new ShardedTabula());
  sharded->table_ = &table;
  sharded->options_ = std::move(options);
  TABULA_RETURN_NOT_OK(sharded->InitializeSharded(table));
  sharded->InitReplicas();
  return sharded;
}

size_t ShardedTabula::replicas_per_shard() const {
  return options_.replicas_per_shard == 0 ? 1 : options_.replicas_per_shard;
}

void ShardedTabula::InitReplicas() {
  replicas_.clear();
  const size_t total = parts_.size() * replicas_per_shard();
  for (size_t i = 0; i < total; ++i) replicas_.emplace_back();
}

Status ShardedTabula::SetReplicaDown(size_t shard, size_t replica,
                                     bool down) {
  if (shard >= parts_.size()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range (K = " +
                                   std::to_string(parts_.size()) + ")");
  }
  if (replica >= replicas_per_shard()) {
    return Status::InvalidArgument(
        "replica " + std::to_string(replica) + " out of range (R = " +
        std::to_string(replicas_per_shard()) + ")");
  }
  replica_state(shard, replica).down.store(down, std::memory_order_release);
  return Status::OK();
}

bool ShardedTabula::replica_down(size_t shard, size_t replica) const {
  if (shard >= parts_.size() || replica >= replicas_per_shard()) {
    return false;
  }
  return replica_state(shard, replica).down.load(std::memory_order_acquire);
}

size_t ShardedTabula::HealthyReplicaCount(size_t shard) const {
  if (shard >= parts_.size()) return 0;
  size_t healthy = 0;
  for (size_t j = 0; j < replicas_per_shard(); ++j) {
    if (!replica_state(shard, j).down.load(std::memory_order_acquire)) {
      ++healthy;
    }
  }
  return healthy;
}

TabulaOptions ShardedTabula::PartitionOptions() const {
  TabulaOptions opts = options_.base;
  opts.enable_sample_selection = false;
  opts.store.budget_bytes = store_enabled() ? ShardStoreBudget() : 0;
  opts.store.hot_promote_hits = std::numeric_limits<uint64_t>::max();
  return opts;
}

Status ShardedTabula::InitializeSharded(const Table& table) {
  const TabulaOptions& base = options_.base;
  TABULA_RETURN_NOT_OK(Tabula::ValidateOptions(table, base));
  TABULA_RETURN_NOT_OK(ValidateStoreOptions());

  // Same span discipline as Tabula::Initialize: a local always-on
  // tracer stands in when the caller's cannot record, so stats are
  // span-derived either way.
  Tracer local_tracer(TracerOptions{TraceMode::kAll, /*capacity=*/256});
  Tracer* tracer = base.tracer != nullptr && base.tracer->enabled()
                       ? base.tracer
                       : &local_tracer;
  Span init_span = tracer->StartSpan("shard.init", 0, /*opt_in=*/true);
  init_span.SetAttribute("table_rows", table.num_rows());
  init_span.SetAttribute("num_shards", options_.num_shards);
  init_span.SetAttribute("partition",
                         ShardPartitionName(options_.partition));

  TABULA_ASSIGN_OR_RETURN(encoder_,
                          KeyEncoder::Make(table, base.cubed_attributes));
  std::vector<size_t> all_cols(base.cubed_attributes.size());
  for (size_t i = 0; i < all_cols.size(); ++i) all_cols[i] = i;
  TABULA_ASSIGN_OR_RETURN(packer_, KeyPacker::Make(encoder_, all_cols));
  lattice_ = Lattice(base.cubed_attributes.size());

  // ONE global sample over the FULL table, drawn exactly as the
  // single-instance engine draws it. Sharing it across shards is what
  // makes the per-shard loss states merge to the single-instance
  // states (same reference ⇒ same accumulation), which in turn makes
  // the merged iceberg set equal the single-instance set.
  global_sample_rows_ =
      Tabula::DrawGlobalSample(table, base, {}, 0, table.num_rows());
  global_sample_ = DatasetView(&table, global_sample_rows_);
  stats_.global_sample_tuples = global_sample_.size();

  // Partition the row space. Shard row lists stay ascending under both
  // schemes, so per-shard accumulation order is deterministic.
  const size_t k = options_.num_shards;
  const size_t n = table.num_rows();
  std::vector<std::vector<RowId>> rows(k);
  if (options_.partition == ShardPartition::kHash) {
    for (size_t s = 0; s < k; ++s) rows[s].reserve(n / k + 1);
    for (size_t r = 0; r < n; ++r) {
      rows[HashKey64(r) % k].push_back(static_cast<RowId>(r));
    }
  } else {
    for (size_t s = 0; s < k; ++s) {
      for (size_t r = n * s / k; r < n * (s + 1) / k; ++r) {
        rows[s].push_back(static_cast<RowId>(r));
      }
    }
  }

  Span build_span = tracer->StartSpan("shard.build_all", init_span.id());
  auto built = BuildPartitions(std::move(rows), encoder_, global_sample_rows_,
                               tracer, build_span.id());
  stats_.build_millis = build_span.End();
  if (!built.ok()) return built.status();
  parts_ = std::move(built).value();

  stats_.num_shards = k;
  stats_.shard_build_millis.clear();
  stats_.shard_iceberg_cells.clear();
  for (const auto& part : parts_) {
    stats_.shard_build_millis.push_back(part->stats_.total_millis);
    stats_.shard_iceberg_cells.push_back(part->cube_.size());
  }

  // Merge + θ re-verification.
  Span merge_span = tracer->StartSpan("shard.merge", init_span.id());
  std::vector<const Tabula*> part_ptrs;
  for (const auto& part : parts_) part_ptrs.push_back(part.get());
  TABULA_ASSIGN_OR_RETURN(
      MergeOutput merge,
      MergeShardCubes(part_ptrs, encoder_, global_sample_,
                      global_sample_rows_));
  merged_ = std::move(merge.merged);
  override_samples_ = std::move(merge.overrides);
  stats_.merged_iceberg_cells = merged_.size();
  stats_.conflict_cells = merge.conflict_cells;
  stats_.union_accepted_cells = merge.union_accepted_cells;
  stats_.verified_cells = merge.verified_cells;
  stats_.resampled_cells = merge.resampled_cells;
  merge_span.SetAttribute("merged_iceberg_cells", merged_.size());
  merge_span.SetAttribute("conflict_cells", merge.conflict_cells);
  merge_span.SetAttribute("resampled_cells", merge.resampled_cells);
  stats_.merge_millis = merge_span.End();
  for (auto& part : parts_) part->cube_.DropRawData();

  // Tiered store: each partition registers its samples at kWarm in its
  // slice of the budget, and so does the override store (inert when
  // base.store.budget_bytes == 0). After the merge, which read every
  // build-time sample resident.
  for (auto& part : parts_) TABULA_RETURN_NOT_OK(part->AssignInitialTiers());
  TABULA_RETURN_NOT_OK(AssignOverrideTiers());

  refreshed_rows_ = n;
  init_span.SetAttribute("merged_iceberg_cells",
                         stats_.merged_iceberg_cells);
  stats_.total_millis = init_span.End();
  // Coordinator-serial work + slowest shard: the wall clock a pool with
  // >= K workers delivers (see the ShardedInitStats doc).
  double slowest_shard = 0.0;
  for (double ms : stats_.shard_build_millis) {
    slowest_shard = std::max(slowest_shard, ms);
  }
  stats_.critical_path_millis =
      stats_.total_millis - stats_.build_millis + slowest_shard;
  return Status::OK();
}

Result<std::vector<std::unique_ptr<Tabula>>> ShardedTabula::BuildPartitions(
    std::vector<std::vector<RowId>> rows, const KeyEncoder& enc,
    const std::vector<RowId>& ref_rows, Tracer* tracer,
    uint64_t parent_span) const {
  // One coarse task per partition. Nested ParallelFor calls inside a
  // worker run inline, so each task is a self-contained sequential
  // build — no cross-shard synchronization until the merge barrier, and
  // the output is a pure function of the partition's rows regardless of
  // worker count. Stage spans need a recording tracer; a local one
  // stands in for the caller's when it cannot record.
  Tracer local_tracer(TracerOptions{TraceMode::kAll, /*capacity=*/64});
  if (tracer == nullptr || !tracer->enabled()) tracer = &local_tracer;
  const size_t k = rows.size();
  std::vector<std::unique_ptr<Tabula>> parts(k);
  std::vector<Status> statuses(k, Status::OK());
  std::vector<std::future<void>> futures;
  futures.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    futures.push_back(ThreadPool::Global().Submit([&, s] {
      statuses[s] = [&]() -> Status {
        Span span = tracer->StartSpan("shard.build", parent_span,
                                      /*opt_in=*/true);
        TABULA_FAULT_POINT("shard.build");
        span.SetAttribute("rows", rows[s].size());
        TABULA_ASSIGN_OR_RETURN(
            parts[s], Tabula::BuildPartition(*table_, PartitionOptions(), enc,
                                             ref_rows, std::move(rows[s]),
                                             tracer, span.id()));
        span.SetAttribute("iceberg_cells", parts[s]->cube_.size());
        span.SetAttribute("spatial_cells", parts[s]->grid_.present()
                                               ? parts[s]->grid_.TotalCells()
                                               : 0);
        parts[s]->stats_.total_millis = span.End();
        return Status::OK();
      }();
    }));
  }
  Status first_error = Status::OK();
  for (size_t s = 0; s < k; ++s) {
    try {
      futures[s].get();
    } catch (const std::exception& e) {
      // A thrown injected fault (or any escaped exception) fails the
      // build like a Status would — atomically, nothing published.
      if (first_error.ok()) {
        first_error = Status::Internal(std::string("shard build threw: ") +
                                       e.what());
      }
    }
    if (first_error.ok() && !statuses[s].ok()) first_error = statuses[s];
  }
  TABULA_RETURN_NOT_OK(first_error);
  return parts;
}

Result<ShardedTabula::MergeOutput> ShardedTabula::MergeShardCubes(
    const std::vector<const Tabula*>& parts, const KeyEncoder& enc,
    const DatasetView& ref, const std::vector<RowId>& ref_rows) const {
  TABULA_FAULT_POINT("shard.merge");
  const TabulaOptions& base = options_.base;
  const LossFunction* loss = base.effective_loss();
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<BoundLoss> bound,
                          loss->Bind(*table_, ref));

  // 1. Exact cross-shard state merge: each shard contributes at most
  //    one finest state per key, folded in ascending shard order, so
  //    the merged state equals the single-instance accumulation up to
  //    floating-point fold order.
  FlatHashMap<LossState> merged_finest;
  for (const Tabula* part : parts) {
    merged_finest.reserve(merged_finest.size() + part->finest_states_.size());
    part->finest_states_.ForEach([&](uint64_t key, const LossState& state) {
      auto [slot, inserted] = merged_finest.TryEmplace(key);
      if (inserted) {
        *slot = state;
      } else {
        slot->Merge(state);
      }
    });
  }

  // 2. Roll up the merged states and classify the *global* iceberg set.
  std::vector<FlatHashMap<LossState>> maps =
      Tabula::RollUpLattice(packer_, lattice_, std::move(merged_finest));

  // 3. Per merged-iceberg cell: gather the union of shard-local
  //    samples and decide how the θ bound is restored (see DESIGN.md
  //    "Sharding" for the per-loss-class argument):
  //      - union-closed loss, no conflict → accept without a check;
  //      - reference-free state → exact re-verification from the
  //        merged state (no raw scan), re-sample on violation;
  //      - otherwise (conflict under a reference-bound state) → direct
  //        loss evaluation against the collected raw rows.
  MergeOutput out;
  struct PendingCell {
    CuboidMask cuboid = 0;
    bool verify_first = false;  ///< direct-loss check before resampling
    bool augmented = false;     ///< candidate includes the global sample
    std::vector<RowId> candidate;
  };
  FlatHashMap<PendingCell> needs_raw;
  const bool union_closed = loss->UnionClosed();
  const bool ref_free = !loss->StateDependsOnReference();
  // With the tiered store enabled a shard-local sample may be demoted
  // (its SampleTable slot reads empty); re-derive it deterministically —
  // build seed over the slice's ascending rows — so the merge sees the
  // exact build-time bytes and classifies like a store-disabled run.
  GreedySamplerOptions sampler_opts = base.sampler;
  sampler_opts.seed = base.seed;
  GreedySampler sampler(loss, base.threshold, sampler_opts);
  for (size_t m = 0; m < lattice_.num_cuboids(); ++m) {
    CuboidMask mask = static_cast<CuboidMask>(m);
    // Global-sample rows grouped by this cuboid's cell key: a conflict
    // cell's absent slices are, per their shards' dry runs, within θ of
    // the global sample, so these rows stand in for the slices the
    // union sample misses (the same rows a WHERE-filtered global answer
    // would serve). Only reference-dependent losses use this — their
    // coverage-style loss can only improve with extra candidate rows,
    // whereas a mean-style (reference-free) loss is evaluated exactly
    // from the merged state and extra uniform rows would shift the
    // union's statistic as often as they correct it.
    FlatHashMap<std::vector<RowId>> global_in_cell;
    if (!ref_free) {
      for (RowId r : ref_rows) {
        global_in_cell[packer_.PackRowMasked(enc, r, mask)].push_back(r);
      }
    }
    Status status = Status::OK();
    maps[m].ForEach([&](uint64_t key, const LossState& state) {
      if (!status.ok()) return;
      if (bound->Finalize(state) <= base.threshold) return;  // global covers
      std::vector<RowId> candidate;
      bool conflict = false;
      for (const Tabula* part : parts) {
        const IcebergCell* cell = part->cube_.Find(key);
        if (cell != nullptr) {
          const auto& sample = part->samples_.sample(cell->sample_id);
          if (sample.empty() && store_enabled()) {
            // Demoted slice (samples are never legitimately empty —
            // every iceberg cell has rows): restore the build bytes.
            std::vector<RowId> slice;
            status = part->GatherCellRows(*cell, &slice);
            if (!status.ok()) return;
            auto redrawn = sampler.Sample(DatasetView(table_, slice));
            if (!redrawn.ok()) {
              status = redrawn.status();
              return;
            }
            candidate.insert(candidate.end(), redrawn.value().begin(),
                             redrawn.value().end());
          } else {
            candidate.insert(candidate.end(), sample.begin(), sample.end());
          }
        } else if (part->present_cells_.Contains(key)) {
          // This shard holds rows of the cell but its slice was within
          // θ of the global sample — the union sample does not cover
          // the slice, so the cell's shard-local statuses disagree.
          conflict = true;
        }
      }
      if (conflict) {
        ++out.conflict_cells;
        if (!ref_free) {
          const std::vector<RowId>* aug = global_in_cell.Find(key);
          if (aug != nullptr) {
            candidate.insert(candidate.end(), aug->begin(), aug->end());
          }
        }
      }
      if (union_closed && !conflict) {
        ++out.union_accepted_cells;
        out.merged[key] = MergedCell{mask, false, false, 0};
        return;
      }
      if (ref_free) {
        // loss(raw, candidate) == Bind(candidate)->Finalize(state(raw))
        // exactly — no raw rows needed for the check itself.
        auto cand_bound =
            loss->Bind(*table_, DatasetView(table_, candidate));
        if (!cand_bound.ok()) {
          status = cand_bound.status();
          return;
        }
        ++out.verified_cells;
        if (cand_bound.value()->Finalize(state) <= base.threshold) {
          out.merged[key] = MergedCell{mask, false, false, 0};
          return;
        }
        needs_raw[key] = PendingCell{mask, /*verify_first=*/false,
                                     /*augmented=*/false,
                                     std::move(candidate)};
      } else {
        needs_raw[key] = PendingCell{mask, /*verify_first=*/true, conflict,
                                     std::move(candidate)};
      }
    });
    TABULA_RETURN_NOT_OK(status);
  }

  // 4. Collect full raw rows for the cells still pending (conflicted
  //    reference-bound cells and union-violating reference-free ones).
  //    A freshly built partition still holds each local iceberg cell's
  //    raw rows, so most of a cell assembles by concatenation; only
  //    slices without them (conflict slices, or partitions past their
  //    first merge) are collected from the partition — one pass over
  //    its rows per affected cuboid.
  if (!needs_raw.empty()) {
    FlatHashMap<std::vector<RowId>> raw_rows(needs_raw.size());
    for (const Tabula* part : parts) {
      FlatHashMap<CuboidMask> wanted;
      needs_raw.ForEach([&](uint64_t key, const PendingCell& cell) {
        const IcebergCell* local = part->cube_.Find(key);
        if (local != nullptr && !local->raw_rows.empty()) {
          std::vector<RowId>& rows = raw_rows[key];
          rows.insert(rows.end(), local->raw_rows.begin(),
                      local->raw_rows.end());
        } else if (part->present_cells_.Contains(key)) {
          wanted[key] = cell.cuboid;
        }
      });
      if (!wanted.empty()) part->CollectCellRows(wanted, &raw_rows);
    }
    // Shard slices are disjoint row sets; ascending order restores the
    // exact vector a single full-table scan would have produced, so
    // the re-drawn samples are independent of shard count and scheme.
    raw_rows.ForEach([&](uint64_t, std::vector<RowId>& rows) {
      std::sort(rows.begin(), rows.end());
    });

    // 5. Verify / re-sample in ascending key order so override sample
    //    ids assign deterministically.
    for (auto& [key, rows] : raw_rows.ExtractSorted()) {
      PendingCell* cell = needs_raw.Find(key);
      TABULA_CHECK(cell != nullptr);
      DatasetView raw(table_, std::move(rows));
      if (cell->verify_first) {
        ++out.verified_cells;
        DatasetView cand(table_, cell->candidate);
        TABULA_ASSIGN_OR_RETURN(double measured, loss->Loss(raw, cand));
        if (measured <= base.threshold) {
          out.merged[key] =
              MergedCell{cell->cuboid, false, cell->augmented, 0};
          continue;
        }
      }
      TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample,
                              sampler.Sample(raw));
      uint32_t id = out.overrides.Add(std::move(sample));
      out.merged[key] = MergedCell{cell->cuboid, true, false, id};
      ++out.resampled_cells;
    }
  }
  return out;
}

const std::vector<RowId>& ShardedTabula::shard_rows(size_t i) const {
  TABULA_CHECK(i < parts_.size());
  return *parts_[i]->partition_rows_;
}

const CubeTable& ShardedTabula::shard_cube(size_t i) const {
  TABULA_CHECK(i < parts_.size());
  return parts_[i]->cube_;
}

uint64_t ShardedTabula::AddRefreshListener(std::function<void()> listener) {
  uint64_t id = next_listener_id_++;
  refresh_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void ShardedTabula::RemoveRefreshListener(uint64_t id) {
  for (auto it = refresh_listeners_.begin(); it != refresh_listeners_.end();
       ++it) {
    if (it->first == id) {
      refresh_listeners_.erase(it);
      return;
    }
  }
}

void ShardedTabula::NotifyRefreshListeners() {
  for (auto& [id, listener] : refresh_listeners_) listener();
}

size_t ShardedTabula::ShardForNewRow(RowId row,
                                     const std::vector<size_t>& sizes) const {
  if (options_.partition == ShardPartition::kHash) {
    return HashKey64(row) % options_.num_shards;
  }
  // kRange: the smallest shard owns the append (ties → lowest index),
  // so steady appends touch one shard at a time and stay balanced.
  size_t best = 0;
  for (size_t s = 1; s < sizes.size(); ++s) {
    if (sizes[s] < sizes[best]) best = s;
  }
  return best;
}

}  // namespace tabula
