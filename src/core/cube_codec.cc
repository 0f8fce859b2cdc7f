#include "core/cube_codec.h"

#include <filesystem>
#include <fstream>

#include "core/fingerprint.h"
#include "testing/fault_injection.h"

namespace tabula {

void WriteCubeHeader(BinaryWriter* w, uint32_t magic, uint32_t version,
                     const Table& table, uint64_t rows,
                     const TabulaOptions& options) {
  w->WriteU32(magic);
  w->WriteU32(version);
  // The file describes exactly the rows the cube has folded in;
  // fingerprint that prefix so pending (appended-but-unfolded) rows
  // don't tie the file to a table state the cube never saw.
  w->WriteU64(rows);
  w->WriteU64(TableFingerprint(table, rows));
  w->WriteString(options.effective_loss()->name());
  w->WriteDouble(options.threshold);
  w->WriteU64(options.cubed_attributes.size());
  for (const auto& attr : options.cubed_attributes) w->WriteString(attr);
}

Result<CubeHeader> ReadCubeHeader(BinaryReader* r, uint32_t magic,
                                  uint32_t max_version, const Table& table,
                                  const TabulaOptions& options,
                                  bool resume_partial,
                                  const std::string& what) {
  CubeHeader header;
  TABULA_ASSIGN_OR_RETURN(uint32_t got_magic, r->ReadU32());
  TABULA_ASSIGN_OR_RETURN(header.version, r->ReadU32());
  if (got_magic != magic) {
    return Status::ParseError("not a Tabula " + what + " (bad magic)");
  }
  if (header.version < 1 || header.version > max_version) {
    return Status::ParseError("unsupported " + what + " version " +
                              std::to_string(header.version));
  }
  // v1 files carry no covered row count; their full-table fingerprint
  // only matches when the table has not grown since the save, so
  // assuming full coverage is exact.
  header.rows = table.num_rows();
  if (header.version >= 2) {
    TABULA_ASSIGN_OR_RETURN(header.rows, r->ReadU64());
  }
  if (header.rows > table.num_rows()) {
    return Status::InvalidArgument(
        what + " covers " + std::to_string(header.rows) +
        " rows but the table only has " + std::to_string(table.num_rows()));
  }
  if (header.rows != table.num_rows() && !resume_partial) {
    return Status::InvalidArgument(
        what + " covers only " + std::to_string(header.rows) + " of " +
        std::to_string(table.num_rows()) +
        " rows (stale cube); pass resume_partial to load it and Refresh() "
        "to catch up");
  }
  TABULA_ASSIGN_OR_RETURN(uint64_t fingerprint, r->ReadU64());
  if (fingerprint != TableFingerprint(table, header.rows)) {
    return Status::InvalidArgument(
        what + " was built on a different table (fingerprint mismatch); "
        "re-run Initialize()");
  }
  const std::string loss = options.effective_loss()->name();
  TABULA_ASSIGN_OR_RETURN(std::string loss_name, r->ReadString());
  if (loss_name != loss) {
    return Status::InvalidArgument(what + " was built with loss '" +
                                   loss_name + "', options specify '" +
                                   loss + "'");
  }
  TABULA_ASSIGN_OR_RETURN(double threshold, r->ReadDouble());
  if (threshold != options.threshold) {
    return Status::InvalidArgument(
        what + " was built with threshold " + std::to_string(threshold) +
        ", options specify " + std::to_string(options.threshold));
  }
  TABULA_ASSIGN_OR_RETURN(uint64_t num_attrs, r->ReadU64());
  std::vector<std::string> attrs(num_attrs);
  for (auto& attr : attrs) {
    TABULA_ASSIGN_OR_RETURN(attr, r->ReadString());
  }
  if (attrs != options.cubed_attributes) {
    return Status::InvalidArgument(
        what + "'s cubed attributes differ from options");
  }
  return header;
}

Status SaveAtomically(const std::string& path,
                      const std::function<Status(BinaryWriter*)>& write) {
  const std::string tmp = path + ".tmp";
  Status written = [&]() -> Status {
    TABULA_FAULT_POINT("persistence.open");
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open '" + tmp + "' for writing");
    }
    BinaryWriter w(&out);
    TABULA_RETURN_NOT_OK(write(&w));
    out.flush();
    if (!w.ok() || !out) {
      return Status::IOError("write failed for '" + tmp + "'");
    }
    return Status::OK();
  }();
  std::error_code ec;
  if (!written.ok()) {
    std::filesystem::remove(tmp, ec);  // best effort; ignore errors
    return written;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::string reason = ec.message();
    std::filesystem::remove(tmp, ec);
    return Status::IOError("cannot move '" + tmp + "' over '" + path +
                           "': " + reason);
  }
  return Status::OK();
}

void CubeSectionWriter::Cells(const CubeTable& cube,
                              const SampleTable& samples) {
  w_->WriteU64(cube.size());
  for (const auto& cell : cube.cells()) {
    w_->WriteU64(cell.key);
    w_->WriteU32(cell.cuboid);
    w_->WriteU32(cell.sample_id);
  }
  w_->WriteU64(samples.size());
  for (uint32_t id = 0; id < samples.size(); ++id) {
    w_->WriteVector(samples.sample(id));
  }
}

void CubeSectionWriter::Grid(const SpatialGrid& grid) {
  // One length-prefixed blob, so a reader could skip it wholesale (none
  // does — version gating keeps misparses impossible).
  w_->WriteU32(grid.present() ? 1u : 0u);
  if (grid.present()) {
    BufferWriter gw;
    grid.EncodeTo(&gw);
    w_->WriteString(std::string(gw.data(), gw.size()));
  }
}

void CubeSectionWriter::Tiers(const SampleStore& store, size_t num_samples,
                              TierSection format) {
  w_->WriteU64(num_samples);
  for (uint32_t id = 0; id < num_samples; ++id) {
    SampleStore::TierRecord rec = store.record(id);
    w_->WriteU32(static_cast<uint32_t>(rec.tier));
    if (format == TierSection::kCubeFile) {
      w_->WriteU64(rec.spill_offset);
      w_->WriteU64(rec.spill_len);
    }
  }
}

Status CubeSectionReader::CheckRows(const std::vector<RowId>& rows,
                                    const std::string& context) const {
  for (RowId row : rows) {
    if (row >= row_horizon_) {
      return Status::DataLoss(what_ + context + " references row " +
                              std::to_string(row) + " beyond the table");
    }
  }
  return Status::OK();
}

Status CubeSectionReader::Cells(CubeTable* cube, SampleTable* samples) {
  TABULA_ASSIGN_OR_RETURN(uint64_t num_cells, r_->ReadU64());
  for (uint64_t i = 0; i < num_cells; ++i) {
    IcebergCell cell;
    TABULA_ASSIGN_OR_RETURN(cell.key, r_->ReadU64());
    TABULA_ASSIGN_OR_RETURN(cell.cuboid, r_->ReadU32());
    TABULA_ASSIGN_OR_RETURN(cell.sample_id, r_->ReadU32());
    cube->Add(std::move(cell));
  }
  TABULA_ASSIGN_OR_RETURN(uint64_t num_samples, r_->ReadU64());
  for (uint64_t i = 0; i < num_samples; ++i) {
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows, r_->ReadVector<RowId>());
    // Samples can only reference rows the file covers.
    TABULA_RETURN_NOT_OK(CheckRows(rows, ""));
    samples->Add(std::move(rows));
  }
  for (const auto& cell : cube->cells()) {
    if (cell.sample_id != kInvalidSampleId &&
        cell.sample_id >= samples->size()) {
      return Status::DataLoss(what_ + " has a dangling sample link");
    }
  }
  return Status::OK();
}

Result<std::optional<SpatialGrid>> CubeSectionReader::Grid() {
  TABULA_ASSIGN_OR_RETURN(uint32_t has_grid, r_->ReadU32());
  if (has_grid == 0) return std::optional<SpatialGrid>();
  TABULA_ASSIGN_OR_RETURN(std::string blob, r_->ReadString());
  BufferReader gr(blob);
  TABULA_ASSIGN_OR_RETURN(SpatialGrid grid, SpatialGrid::DecodeFrom(&gr));
  for (uint32_t l = 0; l < grid.num_levels(); ++l) {
    uint32_t cells = (1u << l) * (1u << l);
    for (uint32_t i = 0; i < cells; ++i) {
      TABULA_RETURN_NOT_OK(
          CheckRows(grid.cell(l, i).sample, "'s spatial grid"));
    }
  }
  return std::optional<SpatialGrid>(std::move(grid));
}

Result<std::vector<SampleStore::TierRecord>> CubeSectionReader::Tiers(
    const SampleTable& samples, TierSection format, bool store_enabled) {
  TABULA_ASSIGN_OR_RETURN(uint64_t count, r_->ReadU64());
  if (count != samples.size()) {
    return Status::DataLoss(what_ +
                            "'s tier records do not match its sample table");
  }
  const bool manifest = format == TierSection::kManifest;
  std::vector<SampleStore::TierRecord> recs(count);
  for (uint64_t i = 0; i < count; ++i) {
    TABULA_ASSIGN_OR_RETURN(uint32_t word, r_->ReadU32());
    if (word > static_cast<uint32_t>(SampleTier::kCold) ||
        (manifest && word == static_cast<uint32_t>(SampleTier::kHot))) {
      return Status::ParseError(what_ + " has an unknown sample tier " +
                                std::to_string(word));
    }
    recs[i].tier = static_cast<SampleTier>(word);
    if (!store_enabled && recs[i].tier != SampleTier::kWarm) {
      return Status::InvalidArgument(
          what_ + " carries demoted or hot sample tiers; loading it "
          "requires store.budget_bytes > 0");
    }
    if (manifest) {
      if (recs[i].tier == SampleTier::kWarm &&
          samples.sample(static_cast<uint32_t>(i)).empty()) {
        return Status::DataLoss(what_ +
                                " marks an empty sample resident (kWarm)");
      }
    } else {
      TABULA_ASSIGN_OR_RETURN(recs[i].spill_offset, r_->ReadU64());
      TABULA_ASSIGN_OR_RETURN(recs[i].spill_len, r_->ReadU64());
    }
  }
  return recs;
}

}  // namespace tabula
