/// Shard-manifest persistence: one file holding the partition (per-shard
/// row lists with fingerprints), every shard's local cube + samples, and
/// the merged directory with its override samples. Each shard's cube,
/// samples, grid and tier records go through the same section codec as
/// the plain cube file (core/cube_codec.h). Written temp-then-rename
/// like the plain cube format, so a failure mid-write (full disk,
/// injected fault) never leaves a partial manifest at the destination.

#include <algorithm>
#include <fstream>
#include <mutex>
#include <shared_mutex>

#include "common/binary_io.h"
#include "core/cube_codec.h"
#include "core/fingerprint.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

constexpr uint32_t kShardMagic = 0x54424C53;  // "TBLS"
/// v1: full-table fingerprint in the header, covered row count at the
/// tail. v2 moves the covered row count into the header and
/// fingerprints only that prefix, so a manifest saved mid-ingest (rows
/// appended but not folded yet) stays loadable after a crash once the
/// journal replays the tail. v3 appends each shard's spatial grid (a
/// presence flag plus a length-prefixed blob). v1/v2 files are still
/// accepted — a spatial-enabled load of one rebuilds the grids from
/// the shard row lists, deterministically.
/// v4 appends tiered-store records (one tier word per shard sample and
/// per override sample; kWarm/kCold only — K > 1 never spills and never
/// persists kHot) and is written ONLY when the store is enabled, so a
/// store-disabled engine keeps emitting byte-identical v3 manifests.
/// Cold samples persist as empty row lists; a tier-aware load re-derives
/// them lazily on first hit. v1–v3 manifests load into a store-enabled
/// engine as all-kWarm.
constexpr uint32_t kShardVersion = 4;
constexpr uint32_t kPreStoreShardVersion = 3;

}  // namespace

Status ShardedTabula::Save(const std::string& path) const {
  // With the store enabled, concurrent query promotes mutate the sample
  // tables under each store's exclusive section; holding every store's
  // shared lock makes the manifest a consistent snapshot.
  std::vector<std::shared_lock<std::shared_mutex>> store_locks;
  if (store_enabled()) {
    for (const auto& part : parts_) store_locks.emplace_back(*part->store_mu_);
    store_locks.emplace_back(*store_mu_);
  }
  return SaveAtomically(path, [&](BinaryWriter* w) -> Status {
    // The manifest covers exactly the rows the cube has folded in
    // (shard row lists never reference pending rows).
    WriteCubeHeader(w, kShardMagic,
                    store_enabled() ? kShardVersion : kPreStoreShardVersion,
                    *table_, refreshed_rows_, options_.base);
    w->WriteU64(options_.num_shards);
    w->WriteU32(static_cast<uint32_t>(options_.partition));
    w->WriteVector(global_sample_rows_);
    TABULA_FAULT_POINT("persistence.write");

    CubeSectionWriter sections(w);
    for (const auto& part : parts_) {
      w->WriteVector(*part->partition_rows_);
      w->WriteU64(RowListFingerprint(*part->partition_rows_));
      sections.Cells(part->cube_, part->samples_);
      // v3: the shard's spatial grid.
      sections.Grid(part->grid_);
      TABULA_FAULT_POINT("persistence.write");
    }

    // The merged directory in ascending key order, so the manifest
    // bytes are a pure function of the cube (determinism tests compare
    // manifests byte-for-byte).
    w->WriteU64(merged_.size());
    for (uint64_t key : merged_.SortedKeys()) {
      const MergedCell* cell = merged_.Find(key);
      w->WriteU64(key);
      w->WriteU32(cell->cuboid);
      // Flags word: bit 0 = override sample, bit 1 = global-augmented.
      w->WriteU32((cell->has_override ? 1u : 0u) |
                 (cell->augment_global ? 2u : 0u));
      w->WriteU32(cell->override_id);
    }
    w->WriteU64(override_samples_.size());
    for (uint32_t id = 0; id < override_samples_.size(); ++id) {
      w->WriteVector(override_samples_.sample(id));
    }
    TABULA_FAULT_POINT("persistence.write");

    // v4: tiered-store records — one tier word per shard sample, then
    // one per override sample (counts repeated for integrity).
    if (store_enabled()) {
      for (const auto& part : parts_) {
        sections.Tiers(part->store_, part->samples_.size(),
                       TierSection::kManifest);
      }
      sections.Tiers(override_store_, override_samples_.size(),
                     TierSection::kManifest);
      TABULA_FAULT_POINT("persistence.write");
    }

    return Status::OK();
  });
}

Result<std::unique_ptr<ShardedTabula>> ShardedTabula::Load(
    const Table& table, ShardedTabulaOptions options,
    const std::string& path, bool resume_partial) {
  if (options.num_shards < 2) {
    return Status::InvalidArgument(
        "num_shards must be >= 2 (a single-instance cube file loads into a "
        "plain Tabula)");
  }
  if (options.base.effective_loss() == nullptr) {
    return Status::InvalidArgument("TabulaOptions.loss must be set");
  }

  TABULA_FAULT_POINT("persistence.read");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  BinaryReader r(&in);
  TABULA_ASSIGN_OR_RETURN(
      CubeHeader header,
      ReadCubeHeader(&r, kShardMagic, kShardVersion, table, options.base,
                     resume_partial, "manifest"));
  const uint32_t version = header.version;
  const uint64_t saved_rows = header.rows;
  const bool want_store = options.base.store.budget_bytes > 0;
  TABULA_ASSIGN_OR_RETURN(uint64_t num_shards, r.ReadU64());
  if (num_shards != options.num_shards) {
    return Status::InvalidArgument(
        "manifest holds " + std::to_string(num_shards) +
        " shards, options specify " + std::to_string(options.num_shards));
  }
  TABULA_ASSIGN_OR_RETURN(uint32_t partition, r.ReadU32());
  if (partition != static_cast<uint32_t>(options.partition)) {
    return Status::InvalidArgument(
        "manifest partitioning differs from options");
  }

  auto sharded = std::unique_ptr<ShardedTabula>(new ShardedTabula());
  sharded->table_ = &table;
  sharded->options_ = std::move(options);
  const std::vector<std::string>& attrs =
      sharded->options_.base.cubed_attributes;
  TABULA_ASSIGN_OR_RETURN(sharded->encoder_, KeyEncoder::Make(table, attrs));
  std::vector<size_t> all_cols(attrs.size());
  for (size_t i = 0; i < all_cols.size(); ++i) all_cols[i] = i;
  TABULA_ASSIGN_OR_RETURN(sharded->packer_,
                          KeyPacker::Make(sharded->encoder_, all_cols));
  sharded->lattice_ = Lattice(attrs.size());
  TABULA_RETURN_NOT_OK(sharded->ValidateStoreOptions());

  CubeSectionReader sections(&r, saved_rows, "manifest");
  TABULA_ASSIGN_OR_RETURN(sharded->global_sample_rows_,
                          r.ReadVector<RowId>());
  TABULA_RETURN_NOT_OK(
      sections.CheckRows(sharded->global_sample_rows_, "'s global sample"));
  sharded->global_sample_ =
      DatasetView(&table, sharded->global_sample_rows_);

  for (uint64_t s = 0; s < num_shards; ++s) {
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows, r.ReadVector<RowId>());
    TABULA_ASSIGN_OR_RETURN(uint64_t row_fp, r.ReadU64());
    if (row_fp != RowListFingerprint(rows)) {
      return Status::DataLoss(
          "shard row-list fingerprint mismatch; manifest is corrupt");
    }
    TABULA_ASSIGN_OR_RETURN(
        std::unique_ptr<Tabula> part,
        Tabula::NewPartition(table, sharded->PartitionOptions(),
                             sharded->encoder_, sharded->global_sample_rows_,
                             std::move(rows)));
    TABULA_RETURN_NOT_OK(sections.Cells(&part->cube_, &part->samples_));
    // Spatial grid (v3): adopt the persisted samples when they match the
    // configured geometry, else rebuild deterministically from the
    // shard's rows. Decoding always consumes the blob.
    std::optional<SpatialGrid> saved_grid;
    if (version >= 3) {
      TABULA_ASSIGN_OR_RETURN(saved_grid, sections.Grid());
    }
    if (sharded->options_.base.spatial.levels > 0) {
      TABULA_RETURN_NOT_OK(part->AdoptOrBuildGrid(std::move(saved_grid),
                                                  &*part->partition_rows_));
    }
    sharded->parts_.push_back(std::move(part));
  }

  TABULA_ASSIGN_OR_RETURN(uint64_t num_merged, r.ReadU64());
  sharded->merged_.reserve(num_merged);
  for (uint64_t i = 0; i < num_merged; ++i) {
    TABULA_ASSIGN_OR_RETURN(uint64_t key, r.ReadU64());
    MergedCell cell;
    TABULA_ASSIGN_OR_RETURN(cell.cuboid, r.ReadU32());
    TABULA_ASSIGN_OR_RETURN(uint32_t flags, r.ReadU32());
    if ((flags & ~3u) != 0) {
      return Status::DataLoss("unknown merged-cell flags " +
                              std::to_string(flags));
    }
    cell.has_override = (flags & 1u) != 0;
    cell.augment_global = (flags & 2u) != 0;
    TABULA_ASSIGN_OR_RETURN(cell.override_id, r.ReadU32());
    auto [slot, inserted] = sharded->merged_.TryEmplace(key, cell);
    (void)slot;
    if (!inserted) {
      return Status::DataLoss("manifest repeats merged cell key " +
                              std::to_string(key));
    }
  }
  TABULA_ASSIGN_OR_RETURN(uint64_t num_overrides, r.ReadU64());
  for (uint64_t i = 0; i < num_overrides; ++i) {
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows, r.ReadVector<RowId>());
    TABULA_RETURN_NOT_OK(sections.CheckRows(rows, ""));
    sharded->override_samples_.Add(std::move(rows));
  }
  Status override_status = Status::OK();
  sharded->merged_.ForEach([&](uint64_t, const MergedCell& cell) {
    if (cell.has_override &&
        cell.override_id >= sharded->override_samples_.size()) {
      override_status =
          Status::DataLoss("manifest has a dangling override-sample link");
    }
  });
  TABULA_RETURN_NOT_OK(override_status);

  // v4: tiered-store records. Cold samples were persisted as empty row
  // lists, so loading them without a store to lazily re-derive them
  // would serve empty (θ-violating) answers — hence the hard error.
  if (version >= 4) {
    std::vector<std::vector<SampleStore::TierRecord>> part_tiers;
    for (const auto& part : sharded->parts_) {
      TABULA_ASSIGN_OR_RETURN(
          part_tiers.emplace_back(),
          sections.Tiers(part->samples_, TierSection::kManifest, want_store));
    }
    TABULA_ASSIGN_OR_RETURN(
        std::vector<SampleStore::TierRecord> override_tiers,
        sections.Tiers(sharded->override_samples_, TierSection::kManifest,
                       want_store));
    if (want_store) {
      // Adopt the persisted tiers NOW — the tier assignment below skips
      // configured stores / tracked ids (a reconfigure would wipe the
      // adoption) and only enforces the budgets.
      for (size_t s = 0; s < num_shards; ++s) {
        TABULA_RETURN_NOT_OK(
            sharded->parts_[s]->AdoptTierRecords(part_tiers[s]));
      }
      SampleStoreOptions override_opts = sharded->options_.base.store;
      override_opts.budget_bytes = sharded->OverrideStoreBudget();
      TABULA_RETURN_NOT_OK(sharded->override_store_.Configure(override_opts));
      std::vector<uint32_t> orefs(sharded->override_samples_.size(), 0);
      sharded->merged_.ForEach([&](uint64_t, const MergedCell& cell) {
        if (cell.has_override) ++orefs[cell.override_id];
      });
      const uint64_t tuple_bytes = sharded->BytesPerTuple();
      for (uint32_t id = 0; id < sharded->override_samples_.size(); ++id) {
        sharded->override_store_.Adopt(
            id, override_tiers[id],
            sharded->override_samples_.sample(id).size() * tuple_bytes,
            orefs[id]);
      }
    }
  }

  if (version >= 2) {
    // v2 carries the covered row count in the header (`saved_rows`).
    sharded->refreshed_rows_ = saved_rows;
  } else {
    TABULA_ASSIGN_OR_RETURN(sharded->refreshed_rows_, r.ReadU64());
    if (sharded->refreshed_rows_ > table.num_rows()) {
      return Status::DataLoss(
          "manifest covers more rows than the table holds");
    }
    if (sharded->refreshed_rows_ != table.num_rows() && !resume_partial) {
      return Status::InvalidArgument(
          "shard manifest covers only " +
          std::to_string(sharded->refreshed_rows_) + " of " +
          std::to_string(table.num_rows()) +
          " rows (stale cube); pass resume_partial to load it and "
          "Refresh() to catch up");
    }
  }
  // The persisted row lists must partition [0, refreshed_rows) exactly —
  // every row in one shard, no row in two.
  std::vector<uint8_t> seen(sharded->refreshed_rows_, 0);
  size_t assigned = 0;
  for (const auto& part : sharded->parts_) {
    for (RowId row : *part->partition_rows_) {
      if (row >= sharded->refreshed_rows_) {
        return Status::DataLoss("shard row " + std::to_string(row) +
                                " lies beyond the manifest's row horizon");
      }
      if (seen[row]) {
        return Status::DataLoss("row " + std::to_string(row) +
                                " assigned to two shards");
      }
      seen[row] = 1;
      ++assigned;
    }
  }
  if (assigned != sharded->refreshed_rows_) {
    return Status::DataLoss(
        "shard row lists do not cover the manifest's row horizon");
  }

  sharded->stats_.num_shards = num_shards;
  sharded->stats_.global_sample_tuples = sharded->global_sample_.size();
  sharded->stats_.merged_iceberg_cells = sharded->merged_.size();
  sharded->stats_.shard_build_millis.assign(num_shards, 0.0);
  for (const auto& part : sharded->parts_) {
    sharded->stats_.shard_iceberg_cells.push_back(part->cube_.size());
  }
  // Finest states and present-key sets are NOT persisted; the first
  // ingest cycle re-derives them per partition. Replica liveness is
  // runtime state, so a load always starts with every replica up.
  // Tiered store: v4 adopted tiers above are preserved (tier assignment
  // skips tracked ids); a v1–v3 manifest registers all-kWarm.
  for (auto& part : sharded->parts_) {
    part->refreshed_rows_ = sharded->refreshed_rows_;
    TABULA_RETURN_NOT_OK(part->AssignInitialTiers());
  }
  TABULA_RETURN_NOT_OK(sharded->AssignOverrideTiers());
  sharded->InitReplicas();
  return sharded;
}

}  // namespace tabula
