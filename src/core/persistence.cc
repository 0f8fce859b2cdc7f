#include <cstring>
#include <fstream>

#include "common/binary_io.h"
#include "common/stopwatch.h"
#include "core/cube_codec.h"
#include "core/fingerprint.h"
#include "core/tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

constexpr uint32_t kMagic = 0x54424C43;  // "TBLC"
/// v1: fingerprint of the full table. v2 adds the covered row count and
/// fingerprints only that prefix, so a cube saved mid-ingest (rows
/// appended but not folded yet) stays loadable after a crash once the
/// journal replays the tail. v3 appends the spatial grid (a presence
/// flag plus a length-prefixed blob of samples + counts; row lists and
/// loss states are rebuilt at load). v4 appends the tiered-store
/// records (one tier word + cold-spill pointer per sample) and is
/// written ONLY when the store is enabled — a disabled-store engine
/// writes v3, byte-identical to the pre-tiering build. v1–v3 files load
/// into a store-enabled engine as all-kWarm; a v4 file with any
/// non-warm tier refuses to load into a disabled-store engine.
constexpr uint32_t kVersion = 4;
constexpr uint32_t kPreStoreVersion = 3;

}  // namespace

uint64_t TableFingerprint(const Table& table, size_t limit_rows) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(limit_rows);
  mix(table.num_columns());
  if (limit_rows == 0) return h;
  for (size_t probe = 0; probe < 16; ++probe) {
    RowId row = static_cast<RowId>((probe * 2654435761ull) % limit_rows);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      Value v = table.GetValue(c, row);
      if (v.is_string()) {
        for (char ch : v.AsString()) mix(static_cast<uint64_t>(ch));
      } else if (v.is_int64()) {
        mix(static_cast<uint64_t>(v.AsInt64()));
      } else if (v.is_double()) {
        double d = v.AsDouble();
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
      }
    }
  }
  return h;
}

uint64_t TableFingerprint(const Table& table) {
  return TableFingerprint(table, table.num_rows());
}

uint64_t RowListFingerprint(const std::vector<RowId>& rows) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(rows.size());
  for (RowId r : rows) mix(r);
  return h;
}

Status Tabula::AdoptOrBuildGrid(std::optional<SpatialGrid> saved,
                                const std::vector<RowId>* rows) {
  SpatialGrid::Context ctx = SpatialContext();
  const SpatialGridOptions& want = options_.spatial;
  if (saved.has_value() && saved->options().levels == want.levels &&
      saved->options().x_column == want.x_column &&
      saved->options().y_column == want.y_column) {
    grid_ = std::move(*saved);
    TABULA_RETURN_NOT_OK(grid_.RebuildTransient(ctx, rows));
  } else {
    TABULA_ASSIGN_OR_RETURN(grid_, SpatialGrid::Build(ctx, want, rows));
  }
  stats_.spatial_cells = grid_.TotalCells();
  stats_.spatial_sample_tuples = grid_.SampleTuples();
  return Status::OK();
}

Status Tabula::Save(const std::string& path) const {
  // Tier records and sample slots must snapshot consistently against
  // concurrent lazy promotes.
  std::shared_lock<std::shared_mutex> store_lock;
  if (store_enabled()) {
    store_lock = std::shared_lock<std::shared_mutex>(*store_mu_);
  }
  return SaveAtomically(path, [&](BinaryWriter* w) -> Status {
    WriteCubeHeader(w, kMagic, store_enabled() ? kVersion : kPreStoreVersion,
                    *table_, refreshed_rows_, options_);
    w->WriteVector(global_sample_rows_);
    TABULA_FAULT_POINT("persistence.write");

    CubeSectionWriter sections(w);
    sections.Cells(cube_, samples_);
    TABULA_FAULT_POINT("persistence.write");

    // Stats snapshot so a loaded cube still reports its build costs.
    w->WriteDouble(stats_.dry_run_millis);
    w->WriteDouble(stats_.real_run_millis);
    w->WriteDouble(stats_.selection_millis);
    w->WriteU64(stats_.total_cells);
    w->WriteU64(stats_.iceberg_cells);
    w->WriteU64(stats_.iceberg_cuboids);
    w->WriteU64(stats_.cells_sharing_samples);
    TABULA_FAULT_POINT("persistence.write");

    // v3: the spatial grid blob.
    sections.Grid(grid_);
    TABULA_FAULT_POINT("persistence.write");

    // v4: one tier record per sample slot. Cold slots saved their
    // (empty) sample vector above; the spill pointer lets a load
    // restore the demoted bytes without re-sampling.
    if (store_enabled()) {
      sections.Tiers(store_, samples_.size(), TierSection::kCubeFile);
      TABULA_FAULT_POINT("persistence.write");
    }
    return Status::OK();
  });
}

Result<std::unique_ptr<Tabula>> Tabula::Load(const Table& table,
                                             TabulaOptions options,
                                             const std::string& path,
                                             bool resume_partial) {
  if (options.effective_loss() == nullptr) {
    return Status::InvalidArgument("TabulaOptions.loss must be set");
  }
  Stopwatch timer;
  TABULA_FAULT_POINT("persistence.read");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  BinaryReader r(&in);
  TABULA_ASSIGN_OR_RETURN(CubeHeader header,
                          ReadCubeHeader(&r, kMagic, kVersion, table, options,
                                         resume_partial, "cube file"));
  const uint32_t version = header.version;
  const uint64_t saved_rows = header.rows;

  TABULA_ASSIGN_OR_RETURN(std::vector<RowId> global_rows,
                          r.ReadVector<RowId>());
  CubeSectionReader sections(&r, saved_rows, "cube file");
  TABULA_RETURN_NOT_OK(sections.CheckRows(global_rows, "'s global sample"));
  TABULA_ASSIGN_OR_RETURN(KeyEncoder encoder,
                          KeyEncoder::Make(table, options.cubed_attributes));
  TABULA_ASSIGN_OR_RETURN(
      std::unique_ptr<Tabula> tabula,
      NewPartition(table, std::move(options), std::move(encoder),
                   std::move(global_rows), std::nullopt));
  TABULA_RETURN_NOT_OK(sections.Cells(&tabula->cube_, &tabula->samples_));

  TabulaInitStats& stats = tabula->stats_;
  TABULA_ASSIGN_OR_RETURN(stats.dry_run_millis, r.ReadDouble());
  TABULA_ASSIGN_OR_RETURN(stats.real_run_millis, r.ReadDouble());
  TABULA_ASSIGN_OR_RETURN(stats.selection_millis, r.ReadDouble());
  TABULA_ASSIGN_OR_RETURN(stats.total_cells, r.ReadU64());
  TABULA_ASSIGN_OR_RETURN(stats.iceberg_cells, r.ReadU64());
  TABULA_ASSIGN_OR_RETURN(stats.iceberg_cuboids, r.ReadU64());
  TABULA_ASSIGN_OR_RETURN(stats.cells_sharing_samples, r.ReadU64());

  // Spatial grid (v3+): the persisted samples when they match the
  // configured geometry, else a deterministic rebuild. The grid
  // describes exactly the covered prefix, like the cube.
  std::optional<SpatialGrid> saved_grid;
  if (version >= 3) {
    TABULA_ASSIGN_OR_RETURN(saved_grid, sections.Grid());
  }
  if (tabula->options_.spatial.levels > 0) {
    std::vector<RowId> prefix;
    if (saved_rows != table.num_rows()) {
      prefix.reserve(saved_rows);
      for (RowId row = 0; row < saved_rows; ++row) prefix.push_back(row);
    }
    TABULA_RETURN_NOT_OK(tabula->AdoptOrBuildGrid(
        std::move(saved_grid),
        saved_rows != table.num_rows() ? &prefix : nullptr));
  }

  // v4: tier records. A store-enabled engine adopts them (cold cells
  // stay cold, spill pointers restore without re-sampling); a
  // disabled-store engine accepts only all-kWarm files — anything else
  // would silently serve cold cells' empty slots.
  if (version >= 4) {
    TABULA_ASSIGN_OR_RETURN(
        std::vector<SampleStore::TierRecord> tier_recs,
        sections.Tiers(tabula->samples_, TierSection::kCubeFile,
                       tabula->store_enabled()));
    // All-warm v4 ≡ v3 for a disabled store; nothing to adopt.
    if (tabula->store_enabled()) {
      TABULA_RETURN_NOT_OK(tabula->AdoptTierRecords(tier_recs));
    }
  }

  stats.representative_samples = tabula->samples_.size();
  uint64_t tuple_bytes = tabula->BytesPerTuple();
  stats.global_sample_bytes = tabula->global_sample_.size() * tuple_bytes;
  stats.cube_table_bytes = tabula->cube_.MemoryBytes();
  stats.sample_table_bytes = tabula->samples_.MemoryBytes(tuple_bytes);
  stats.total_millis = timer.ElapsedMillis();  // load time, not build time
  // The cube answers for exactly the rows the file covered; a resumed
  // load leaves the tail pending for the next Refresh()/ingest cycle
  // (and tags answers stale until it runs).
  tabula->refreshed_rows_ = saved_rows;
  // Tiered store: track any samples the v4 records did not cover (v1–v3
  // files enter as all-kWarm), build the finest-row index lazy promotes
  // gather through, and enforce the (possibly smaller) budget.
  TABULA_RETURN_NOT_OK(tabula->AssignInitialTiers());
  return tabula;
}

}  // namespace tabula
