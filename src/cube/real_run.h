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

/// Per-cuboid diagnostics from the real-run stage.
struct CuboidRealRunInfo {
  CuboidMask mask = 0;
  size_t iceberg_cells = 0;
  /// Which side of Inequation 1 won: true = equi-join/prune path.
  bool used_join_path = false;
  /// Time to collect this cuboid's iceberg-cell rows. Sampling is not
  /// per cuboid: it is RealRunResult::sample_millis, one pass over all
  /// cells.
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
  /// pass, iceberg-row collection across all cuboids
  /// (the sum of per_cuboid[i].millis), and the one greedy sampling pass
  /// over every iceberg cell.
  double pack_millis = 0.0;
  double collect_millis = 0.0;
  double sample_millis = 0.0;
};

/// \brief Stage 2 of cube initialization: sampling-cube construction.
///
/// Skips every cuboid without iceberg cells, and for each iceberg cuboid
/// fetches the raw data of its iceberg cells among `rows` — via a full
/// GroupBy or via the iceberg-cell semi-join, whichever the cost model
/// picks over |rows|. Every row's finest-cuboid key is packed once
/// (batched columnar PackRows); each cuboid's keys derive from it with
/// the two-op mask transform (KeyPacker::TransformFor). Then it runs the
/// greedy SAMPLING() aggregate (Algorithm 1) for every iceberg cell of
/// every cuboid in one work queue, largest cell first, with no barrier
/// between cuboids. Cells enter the cube in cuboid order, then ascending
/// key order. Each cell's raw rows come out in `rows` order, so an
/// ascending view yields ascending cell rows. The per-row scalar engine
/// it replaced is RunRealRunScalarReference (src/testing/), the oracle.
Result<RealRunResult> RunRealRun(
    const DatasetView& rows, const KeyEncoder& encoder,
    const KeyPacker& packer, const DryRunResult& dry_run,
    const LossFunction& loss, double theta,
    const GreedySamplerOptions& sampler_options,
    RealRunPathPolicy path_policy = RealRunPathPolicy::kAuto);

}  // namespace tabula

#endif  // TABULA_CUBE_REAL_RUN_H_
