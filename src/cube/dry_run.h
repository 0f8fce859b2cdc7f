#ifndef TABULA_CUBE_DRY_RUN_H_
#define TABULA_CUBE_DRY_RUN_H_

#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "cube/lattice.h"
#include "exec/group_by.h"
#include "loss/loss_function.h"
#include "storage/table.h"

namespace tabula {

/// Dry-run output for one cuboid: its iceberg cell table (paper Table I)
/// plus the exact cell count the cost model needs.
struct CuboidDryRunInfo {
  CuboidMask mask = 0;
  /// Exact number of (non-empty) cells in this cuboid.
  size_t total_cells = 0;
  /// Full-width packed keys of the cells whose
  /// loss(cell data, Sam_global) > θ.
  std::vector<uint64_t> iceberg_keys;
};

/// Result of the dry-run stage (Section III-B1).
struct DryRunResult {
  /// Indexed by cuboid mask (size 2^n).
  std::vector<CuboidDryRunInfo> cuboids;
  size_t total_cells = 0;
  size_t total_iceberg_cells = 0;
  /// Cuboids containing at least one iceberg cell.
  size_t iceberg_cuboids = 0;
  double millis = 0.0;
  /// Per-stage breakdown of `millis` (RunDryRun only; the legacy engine
  /// leaves them zero): the finest-cuboid fold, the lattice roll-up, and
  /// the θ finalize/classify pass.
  double fold_millis = 0.0;
  double rollup_millis = 0.0;
  double finalize_millis = 0.0;

  /// The finest-cuboid loss states (RunDryRun only): the engine keeps
  /// them as its incremental-maintenance state and a shard partition's
  /// merge input.
  FlatHashMap<LossState> finest_states;
  /// Every non-empty cell key at every lattice level; filled only when
  /// RunDryRun is asked to keep present cells (a shard partition).
  FlatHashSet present_cells;
};

/// \brief Stage 1 of cube initialization: iceberg-cell lookup.
///
/// Because the loss function is algebraic while SAMPLING() is holistic,
/// Tabula first materializes only the loss measure: one GroupBy over `rows`
/// at the finest cuboid accumulates per-cell LossStates against the fixed
/// global sample, and every coarser cuboid is derived by merging states
/// along the lattice — the rows are scanned exactly once. Cells whose
/// finalized loss exceeds θ are iceberg cells; everything else will be
/// answered by the global sample with the guarantee already verified.
///
/// The fold runs on the flat-hash engine (common/flat_hash.h) with
/// deterministic chunking, the lattice roll-up is parallel across
/// same-level cuboids, and every cuboid's iceberg_keys come out sorted —
/// so the result is byte-identical at any thread count.
///
/// \param rows the rows to cube (all table rows, or one partition's
///        ascending row list).
/// \param packer full-width packer over all cubed attributes.
Result<DryRunResult> RunDryRun(const DatasetView& rows,
                               const KeyEncoder& encoder,
                               const KeyPacker& packer, const Lattice& lattice,
                               const LossFunction& loss,
                               const DatasetView& global_sample, double theta,
                               bool keep_present_cells = false);

}  // namespace tabula

#endif  // TABULA_CUBE_DRY_RUN_H_
