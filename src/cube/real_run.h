#ifndef TABULA_CUBE_REAL_RUN_H_
#define TABULA_CUBE_REAL_RUN_H_

#include <vector>

#include "common/status.h"
#include "cube/cube_table.h"
#include "cube/dry_run.h"
#include "sampling/greedy_sampler.h"

namespace tabula {

/// How the real run fetches iceberg-cell raw data per cuboid. kAuto is
/// the paper's behaviour (Inequation 1 decides); the forced modes exist
/// for the cost-model ablation bench.
enum class RealRunPathPolicy { kAuto, kAlwaysJoin, kAlwaysGroupBy };

/// Which collection engine the real run uses. kVectorized packs every
/// row's finest-cuboid key once (batched columnar PackRows) and derives
/// each cuboid's keys with the two-op mask transform
/// (KeyPacker::TransformFor); kScalarReference is the per-row
/// PackRowMasked engine, preserved for head-to-head benching and as the
/// differential oracle — both must produce byte-identical cubes.
enum class RealRunEngine { kVectorized, kScalarReference };

/// Per-cuboid diagnostics from the real-run stage.
struct CuboidRealRunInfo {
  CuboidMask mask = 0;
  size_t iceberg_cells = 0;
  /// Which side of Inequation 1 won: true = equi-join/prune path.
  bool used_join_path = false;
  double millis = 0.0;
};

/// Result of the real-run stage (Section III-B2, Algorithm 2).
struct RealRunResult {
  CubeTable cube;
  std::vector<CuboidRealRunInfo> per_cuboid;
  /// Tuples across all local samples (pre-selection).
  size_t local_sample_tuples = 0;
  double millis = 0.0;
  /// Per-stage breakdown of `millis`: the one-time finest-key packing
  /// pass (kVectorized only), iceberg-row collection across all cuboids,
  /// and the greedy per-cell sampling.
  double pack_millis = 0.0;
  double collect_millis = 0.0;
  double sample_millis = 0.0;
};

/// \brief Stage 2 of cube initialization: sampling-cube construction.
///
/// Skips every cuboid without iceberg cells, and for each iceberg cuboid
/// fetches the raw data of its iceberg cells among `rows` — via a full
/// GroupBy or via the iceberg-cell semi-join, whichever the cost model
/// picks over |rows| — then runs the greedy SAMPLING() aggregate
/// (Algorithm 1) per iceberg cell. Each cell's raw rows come out in
/// `rows` order, so an ascending view yields ascending cell rows.
Result<RealRunResult> RunRealRun(
    const DatasetView& rows, const KeyEncoder& encoder,
    const KeyPacker& packer,
    const Lattice& lattice, const DryRunResult& dry_run,
    const LossFunction& loss, double theta,
    const GreedySamplerOptions& sampler_options,
    RealRunPathPolicy path_policy = RealRunPathPolicy::kAuto,
    RealRunEngine engine = RealRunEngine::kVectorized);

}  // namespace tabula

#endif  // TABULA_CUBE_REAL_RUN_H_
