/// Reproduces Figure 10: cubing overhead on a small dataset — Tabula vs
/// the fully materialized sampling cube (FullSamCube) and the partially
/// materialized cube built by executing the initialization query
/// literally (PartSamCube). The paper runs this on 5 GB of NYCtaxi
/// (1/20th of the full table) because the naive cubes cannot scale; we
/// use 1/4 of the bench scale for the same reason. Histogram-aware loss,
/// as in the paper.
///
/// Paper shapes to check: Tabula ≈ 40× faster to initialize than either
/// cube; FullSamCube 50–100× more memory than Tabula; PartSamCube 5–8×.

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "baselines/sample_cube.h"
#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/tabula.h"
#include "cube/dry_run.h"
#include "cube/real_run.h"
#include "exec/vector_ops.h"
#include "sampling/random_sampler.h"
#include "testing/legacy_dry_run.h"

namespace {

using namespace tabula;
using namespace tabula::bench;

/// True when two real-run cubes are byte-identical: same cells in the
/// same order, same raw row lists, same local samples.
bool CubesIdentical(const RealRunResult& a, const RealRunResult& b) {
  if (a.cube.size() != b.cube.size()) return false;
  for (size_t i = 0; i < a.cube.cells().size(); ++i) {
    const IcebergCell& ca = a.cube.cells()[i];
    const IcebergCell& cb = b.cube.cells()[i];
    if (ca.key != cb.key || ca.cuboid != cb.cuboid ||
        ca.raw_rows != cb.raw_rows || ca.local_sample != cb.local_sample) {
      return false;
    }
  }
  return true;
}

/// Before/after comparison of the cube-build engines on identical
/// inputs, with differential checks at every seam:
///  - dry run: the preserved std::unordered_map reference
///    (RunDryRunLegacy) vs the vectorized flat-hash roll-up (RunDryRun);
///    both must find the exact same iceberg cells.
///  - real run: the per-row scalar reference (kScalarReference) vs the
///    batched columnar engine (kVectorized: one PackRows pass + two-op
///    mask transforms per cuboid); both must produce byte-identical
///    cubes — raw rows AND samples.
/// Prints the per-stage breakdown (fold/rollup/finalize, pack/collect/
/// sample) and writes BENCH_fig10_cubing_overhead.json. Returns the
/// combined (legacy dry + scalar real) / (new dry + vectorized real)
/// wall-clock speedup — 0 on error or any differential mismatch.
double CompareBuildEngines(const Table& table, double theta) {
  // All 7 experiment attributes: the lattice then has 128 cuboids and
  // ~30K cells, the regime the flat-hash engine targets (insert-heavy
  // folds and roll-ups where std::unordered_map pays a node allocation
  // per new cell). Mean loss, whose Accumulate is two additions, so the
  // measured time is the aggregation engine — key packing plus hash-table
  // traffic — rather than per-row loss evaluation, which is byte-for-byte
  // identical in both engines (the histogram loss would spend ~90% of the
  // dry run in nearest-neighbor queries and mask the comparison). The
  // figure sweep below keeps the paper's histogram loss and 4 attributes.
  auto attrs = Attributes(7);
  MeanLoss mean_loss("fare_amount");
  const LossFunction* loss = &mean_loss;
  auto encoder = KeyEncoder::Make(table, attrs);
  if (!encoder.ok()) return 0.0;
  std::vector<size_t> all_cols(attrs.size());
  for (size_t i = 0; i < all_cols.size(); ++i) all_cols[i] = i;
  auto packer = KeyPacker::Make(*encoder, all_cols);
  if (!packer.ok()) return 0.0;
  Lattice lattice(attrs.size());
  Rng rng(42);
  DatasetView all(&table);
  std::vector<RowId> sample_rows =
      RandomSample(all, SerflingSampleSize(), &rng);
  DatasetView global_sample(&table, sample_rows);

  // Best-of-5 per engine, interleaved so cache warm-up is symmetric.
  double legacy_ms = 1e300, flat_ms = 1e300;
  DryRunResult legacy_result, flat_result;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch t1;
    auto legacy = RunDryRunLegacy(table, *encoder, *packer, lattice, *loss,
                                  global_sample, theta);
    double ms1 = t1.ElapsedMillis();
    Stopwatch t2;
    auto flat = RunDryRun(DatasetView(&table), *encoder, *packer, lattice,
                          *loss, global_sample, theta);
    double ms2 = t2.ElapsedMillis();
    if (!legacy.ok() || !flat.ok()) {
      std::printf("dry-run engine ERROR: %s\n",
                  (!legacy.ok() ? legacy.status() : flat.status())
                      .ToString()
                      .c_str());
      return 0.0;
    }
    if (ms1 < legacy_ms) legacy_ms = ms1;
    if (ms2 < flat_ms) flat_ms = ms2;
    legacy_result = std::move(legacy).value();
    flat_result = std::move(flat).value();
  }

  // Differential oracle: identical iceberg-cell sets, cuboid by cuboid
  // (the legacy engine's keys are unsorted; sort before comparing).
  bool identical = legacy_result.total_cells == flat_result.total_cells &&
                   legacy_result.total_iceberg_cells ==
                       flat_result.total_iceberg_cells;
  for (size_t m = 0;
       identical && m < legacy_result.cuboids.size(); ++m) {
    std::vector<uint64_t> legacy_keys = legacy_result.cuboids[m].iceberg_keys;
    std::sort(legacy_keys.begin(), legacy_keys.end());
    identical = legacy_keys == flat_result.cuboids[m].iceberg_keys;
  }

  if (std::getenv("TABULA_BENCH_CUBOID_STATS") != nullptr) {
    for (const auto& c : flat_result.cuboids) {
      std::printf("cuboid mask=%llu cells=%zu iceberg=%zu\n",
                  static_cast<unsigned long long>(c.mask), c.total_cells,
                  c.iceberg_keys.size());
    }
  }

  // Real-run engines on the (identical) dry-run output, best-of-5
  // interleaved like the dry runs.
  GreedySamplerOptions sampler_opts;
  double scalar_real_ms = 1e300, vec_real_ms = 1e300;
  RealRunResult scalar_real, vec_real;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch t1;
    auto scalar = RunRealRun(DatasetView(&table), *encoder, *packer, lattice,
                             flat_result, *loss, theta, sampler_opts,
                             RealRunPathPolicy::kAuto,
                             RealRunEngine::kScalarReference);
    double ms1 = t1.ElapsedMillis();
    Stopwatch t2;
    auto vectorized = RunRealRun(DatasetView(&table), *encoder, *packer,
                                 lattice, flat_result, *loss, theta,
                                 sampler_opts, RealRunPathPolicy::kAuto,
                                 RealRunEngine::kVectorized);
    double ms2 = t2.ElapsedMillis();
    if (!scalar.ok() || !vectorized.ok()) {
      std::printf("real-run engine ERROR: %s\n",
                  (!scalar.ok() ? scalar.status() : vectorized.status())
                      .ToString()
                      .c_str());
      return 0.0;
    }
    if (ms1 < scalar_real_ms) scalar_real_ms = ms1;
    if (ms2 < vec_real_ms) vec_real_ms = ms2;
    scalar_real = std::move(scalar).value();
    vec_real = std::move(vectorized).value();
  }
  const bool cubes_identical = CubesIdentical(scalar_real, vec_real);

  double dry_speedup = flat_ms > 0.0 ? legacy_ms / flat_ms : 0.0;
  double real_speedup =
      vec_real_ms > 0.0 ? scalar_real_ms / vec_real_ms : 0.0;
  double combined_speedup =
      flat_ms + vec_real_ms > 0.0
          ? (legacy_ms + scalar_real_ms) / (flat_ms + vec_real_ms)
          : 0.0;

  PrintHeader("Cube-build engines: reference vs vectorized columnar");
  std::printf("rows=%zu threads=%zu theta=$%.2f simd=%s\n", table.num_rows(),
              ThreadPool::Global().num_threads(), theta,
              vec::SimdEnabled() ? "avx2" : "scalar");
  std::printf("%-28s %12s %12s\n", "stage", "reference", "vectorized");
  std::printf("%-28s %12.1f %12.1f\n", "dry_run_ms", legacy_ms, flat_ms);
  std::printf("%-28s %12s %12.1f\n", "  fold_ms", "-",
              flat_result.fold_millis);
  std::printf("%-28s %12s %12.1f\n", "  rollup_ms", "-",
              flat_result.rollup_millis);
  std::printf("%-28s %12s %12.1f\n", "  finalize_ms", "-",
              flat_result.finalize_millis);
  std::printf("%-28s %12.1f %12.1f\n", "real_run_ms", scalar_real_ms,
              vec_real_ms);
  std::printf("%-28s %12s %12.1f\n", "  pack_ms", "-", vec_real.pack_millis);
  std::printf("%-28s %12.1f %12.1f\n", "  collect_ms",
              scalar_real.collect_millis, vec_real.collect_millis);
  std::printf("%-28s %12.1f %12.1f\n", "  sample_ms",
              scalar_real.sample_millis, vec_real.sample_millis);
  std::printf("%-28s %12.1f %12.1f\n", "combined_ms",
              legacy_ms + scalar_real_ms, flat_ms + vec_real_ms);
  std::printf(
      "dry speedup: %.2fx   real speedup: %.2fx   combined: %.2fx\n",
      dry_speedup, real_speedup, combined_speedup);
  std::printf("iceberg sets identical: %s   cubes byte-identical: %s\n",
              identical ? "yes" : "NO", cubes_identical ? "yes" : "NO");
  PrintCsvHeader("figure,engine,dry_run_ms,real_run_ms,speedup");
  PrintCsvRow("10e,reference," + std::to_string(legacy_ms) + "," +
              std::to_string(scalar_real_ms) + ",1.0");
  PrintCsvRow("10e,vectorized," + std::to_string(flat_ms) + "," +
              std::to_string(vec_real_ms) + "," +
              std::to_string(combined_speedup));

  JsonObject payload;
  payload.Set("bench", std::string("fig10_cubing_overhead"))
      .Set("rows", static_cast<double>(table.num_rows()))
      .Set("threads", static_cast<double>(ThreadPool::Global().num_threads()))
      .Set("theta", theta)
      .Set("simd", std::string(vec::SimdEnabled() ? "avx2" : "scalar"))
      .Set("iceberg_cells",
           static_cast<double>(flat_result.total_iceberg_cells))
      .Set("total_cells", static_cast<double>(flat_result.total_cells))
      .Set("legacy_dry_run_ms", legacy_ms)
      .Set("flat_dry_run_ms", flat_ms)
      .Set("dry_fold_ms", flat_result.fold_millis)
      .Set("dry_rollup_ms", flat_result.rollup_millis)
      .Set("dry_finalize_ms", flat_result.finalize_millis)
      .Set("scalar_real_run_ms", scalar_real_ms)
      .Set("vectorized_real_run_ms", vec_real_ms)
      .Set("real_pack_ms", vec_real.pack_millis)
      .Set("real_collect_ms", vec_real.collect_millis)
      .Set("real_sample_ms", vec_real.sample_millis)
      .Set("speedup", dry_speedup)
      .Set("real_speedup", real_speedup)
      .Set("combined_speedup", combined_speedup)
      .Set("iceberg_sets_identical", std::string(identical ? "yes" : "no"))
      .Set("cubes_identical", std::string(cubes_identical ? "yes" : "no"));
  WriteBenchJson("fig10_cubing_overhead", payload);

  return identical && cubes_identical ? combined_speedup : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tabula;
  using namespace tabula::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  TaxiGeneratorOptions gen;
  gen.num_rows = std::max<size_t>(config.rows / 4, 1000);
  gen.seed = config.seed;
  auto table = TaxiGenerator(gen).Generate();
  auto attrs = Attributes(4);
  auto loss = MakeLossFunction("histogram_loss", {.columns = {"fare_amount"}}).value();

  std::printf("Figure 10 reproduction: cubing overhead on a small dataset\n");
  std::printf("rows=%zu (paper: 5GB NYCtaxi), histogram-aware loss, "
              "%zu attributes\n",
              table->num_rows(), attrs.size());

  // Engine before/after + differential checks. In --smoke mode this is
  // the whole run: CI fails the build on a >20% combined dry+real
  // regression (speedup < 1/1.2 would mean the new engines got slower
  // than the preserved references), on an iceberg-set mismatch, or on a
  // real-run cube byte mismatch.
  double speedup = CompareBuildEngines(*table, 0.5);
  if (smoke) {
    if (speedup <= 0.0) {
      std::printf("SMOKE FAIL: engines disagree or errored\n");
      return 1;
    }
    if (speedup < 1.0 / 1.2) {
      std::printf("SMOKE FAIL: vectorized build regressed >20%% "
                  "(combined speedup %.2fx)\n",
                  speedup);
      return 1;
    }
    std::printf("SMOKE OK: combined speedup %.2fx, outputs identical\n",
                speedup);
    return 0;
  }

  PrintHeader("Figure 10(a,b): initialization time and memory");
  std::printf("%-10s %-14s %14s %14s %10s\n", "theta", "approach",
              "init_ms", "memory", "cells");
  PrintCsvHeader("figure,theta,approach,init_ms,memory_bytes,materialized");

  for (double theta : HistogramThresholdsDollar()) {
    char label[32];
    std::snprintf(label, sizeof(label), "$%.2f", theta);

    // Tabula.
    {
      TabulaOptions opts;
      opts.cubed_attributes = attrs;
      opts.loss = loss.get();
      opts.threshold = theta;
      Stopwatch timer;
      auto tabula = Tabula::Initialize(*table, opts);
      double ms = timer.ElapsedMillis();
      if (!tabula.ok()) {
        std::printf("Tabula ERROR %s\n", tabula.status().ToString().c_str());
        continue;
      }
      uint64_t mem = tabula.value()->init_stats().TotalBytes();
      std::printf("%-10s %-14s %14.0f %14s %10zu\n", label, "Tabula", ms,
                  HumanBytes(mem).c_str(),
                  tabula.value()->init_stats().representative_samples);
      char row[160];
      std::snprintf(row, sizeof(row), "10,%s,Tabula,%.1f,%llu,%zu", label,
                    ms, static_cast<unsigned long long>(mem),
                    tabula.value()->init_stats().representative_samples);
      PrintCsvRow(row);
    }
    // PartSamCube and FullSamCube.
    for (auto mode : {MaterializedSampleCube::Mode::kPartial,
                      MaterializedSampleCube::Mode::kFull}) {
      MaterializedSampleCube cube(*table, attrs, loss.get(), theta, mode);
      Stopwatch timer;
      Status st = cube.Prepare();
      double ms = timer.ElapsedMillis();
      if (!st.ok()) {
        std::printf("%s ERROR %s\n", cube.name().c_str(),
                    st.ToString().c_str());
        continue;
      }
      std::printf("%-10s %-14s %14.0f %14s %10zu\n", label,
                  cube.name().c_str(), ms,
                  HumanBytes(cube.MemoryBytes()).c_str(),
                  cube.num_materialized_cells());
      char row[160];
      std::snprintf(row, sizeof(row), "10,%s,%s,%.1f,%llu,%zu", label,
                    cube.name().c_str(), ms,
                    static_cast<unsigned long long>(cube.MemoryBytes()),
                    cube.num_materialized_cells());
      PrintCsvRow(row);
    }
  }
  return 0;
}
