#ifndef TABULA_TESTING_REFERENCE_REAL_RUN_H_
#define TABULA_TESTING_REFERENCE_REAL_RUN_H_

#include "common/status.h"
#include "cube/real_run.h"

namespace tabula {

/// The per-row scalar real run — every cuboid's cell keys packed row by
/// row with PackRowMasked, rows collected by the iceberg semi-join or the
/// full GroupBy (Inequation 1 picks, as in RunRealRun), then the same
/// largest-first sampling queue — kept as a reference implementation
/// only: bench_fig10_cubing_overhead's before/after comparison and the
/// differential oracle for RunRealRun (cubes must be byte-identical:
/// keys, raw rows and samples). Nothing on the production path calls it.
Result<RealRunResult> RunRealRunScalarReference(
    const DatasetView& rows, const KeyEncoder& encoder,
    const KeyPacker& packer, const DryRunResult& dry_run,
    const LossFunction& loss, double theta,
    const GreedySamplerOptions& sampler_options,
    RealRunPathPolicy path_policy = RealRunPathPolicy::kAuto);

}  // namespace tabula

#endif  // TABULA_TESTING_REFERENCE_REAL_RUN_H_
