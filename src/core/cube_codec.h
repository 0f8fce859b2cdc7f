#ifndef TABULA_CORE_CUBE_CODEC_H_
#define TABULA_CORE_CUBE_CODEC_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "core/tabula.h"
#include "cube/cube_table.h"
#include "spatial/spatial_grid.h"
#include "store/sample_store.h"

namespace tabula {

/// The header both file formats open with: magic, version, the covered
/// row count (v2+) and its prefix fingerprint, then the loss name, θ and
/// cubed attributes the cube was built with.
void WriteCubeHeader(BinaryWriter* w, uint32_t magic, uint32_t version,
                     const Table& table, uint64_t rows,
                     const TabulaOptions& options);

struct CubeHeader {
  uint32_t version = 0;
  /// Rows the file covers (every table row for a v1 file).
  uint64_t rows = 0;
};

/// Reads and validates a header against `table` and `options`: the
/// magic, a version in [1, max_version], the covered prefix (all table
/// rows unless `resume_partial`) and its fingerprint, and the build
/// configuration. Errors name the file kind (`what`).
Result<CubeHeader> ReadCubeHeader(BinaryReader* r, uint32_t magic,
                                  uint32_t max_version, const Table& table,
                                  const TabulaOptions& options,
                                  bool resume_partial,
                                  const std::string& what);

/// Writes `path` temp-then-rename: the destination is replaced only
/// after every byte landed, so a failure mid-write (a full disk, an
/// injected `persistence.open` / `persistence.write` fault) leaves any
/// prior file at `path` intact instead of half-overwritten.
Status SaveAtomically(const std::string& path,
                      const std::function<Status(BinaryWriter*)>& write);

/// Layout of a tier-record section. The cube file (TBLC v4) persists a
/// tier word plus the cold-spill pointer per sample; a shard manifest
/// (TBLS v4) persists the tier word alone, and only kWarm/kCold — K > 1
/// never spills and never persists kHot, and a kWarm record must carry
/// its sample bytes.
enum class TierSection { kCubeFile, kManifest };

/// \brief Writer of the sections every persisted cube shares: the
/// iceberg-cell directory with its sample table, the spatial-grid blob,
/// and the tier records. The TBLC cube file and each shard section of a
/// TBLS manifest are both built from these, so the two formats cannot
/// drift apart.
class CubeSectionWriter {
 public:
  explicit CubeSectionWriter(BinaryWriter* w) : w_(w) {}

  /// Cell count + (key, cuboid, sample id) per cell, then sample count +
  /// one row-id vector per sample.
  void Cells(const CubeTable& cube, const SampleTable& samples);
  /// Presence word, then (when present) the grid as one length-prefixed
  /// blob.
  void Grid(const SpatialGrid& grid);
  /// Record count, then one record per sample slot in `format`.
  void Tiers(const SampleStore& store, size_t num_samples,
             TierSection format);

 private:
  BinaryWriter* w_;
};

/// \brief Reader of the CubeSectionWriter sections. Every row id is
/// validated against `row_horizon` (the rows the file covers) before it
/// is trusted; errors name the file kind (`what`: "cube file",
/// "manifest").
class CubeSectionReader {
 public:
  CubeSectionReader(BinaryReader* r, uint64_t row_horizon, std::string what)
      : r_(r), row_horizon_(row_horizon), what_(std::move(what)) {}

  Status Cells(CubeTable* cube, SampleTable* samples);
  /// nullopt when the writer recorded no grid.
  Result<std::optional<SpatialGrid>> Grid();
  /// Records for exactly `samples.size()` slots. Without a store to
  /// restore them (`store_enabled` false) any non-kWarm record is
  /// refused: its sample bytes are not in the file.
  Result<std::vector<SampleStore::TierRecord>> Tiers(
      const SampleTable& samples, TierSection format, bool store_enabled);

  /// Fails when any row id lies at or beyond the row horizon.
  Status CheckRows(const std::vector<RowId>& rows,
                   const std::string& context) const;

 private:
  BinaryReader* r_;
  uint64_t row_horizon_;
  std::string what_;
};

}  // namespace tabula

#endif  // TABULA_CORE_CUBE_CODEC_H_
