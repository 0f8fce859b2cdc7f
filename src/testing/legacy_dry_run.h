#ifndef TABULA_TESTING_LEGACY_DRY_RUN_H_
#define TABULA_TESTING_LEGACY_DRY_RUN_H_

#include "common/status.h"
#include "cube/dry_run.h"

namespace tabula {

/// The pre-flat-hash dry-run engine — std::unordered_map folds, serial
/// lattice roll-up, thread-count-dependent chunking — kept as a
/// reference implementation only: bench_fig10_cubing_overhead's
/// before/after comparison and a differential oracle for RunDryRun
/// (iceberg-cell sets must match modulo ordering). Nothing on the
/// production path calls it.
Result<DryRunResult> RunDryRunLegacy(const Table& table,
                                     const KeyEncoder& encoder,
                                     const KeyPacker& packer,
                                     const Lattice& lattice,
                                     const LossFunction& loss,
                                     const DatasetView& global_sample,
                                     double theta);

}  // namespace tabula

#endif  // TABULA_TESTING_LEGACY_DRY_RUN_H_
