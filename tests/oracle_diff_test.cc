/// Differential tests (SQLite-TH3 style): the optimized cube pipeline —
/// the algebraic dry-run roll-up, the cost-model fetch paths, the
/// lazy-forward greedy sampler — against the deliberately naive
/// reference implementations in src/testing/oracle.h, across many
/// random tables and seeds. Agreement is the test: the oracle shares no
/// code with the production path beyond the LossFunction interface.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "cube/dry_run.h"
#include "cube/real_run.h"
#include "data/synthetic_gen.h"
#include "loss/mean_loss.h"
#include "loss/min_dist_loss.h"
#include "sampling/greedy_sampler.h"
#include "sampling/random_sampler.h"
#include "testing/oracle.h"

namespace tabula {
namespace {

std::unique_ptr<Table> SmallTable(uint64_t seed, size_t rows,
                                  size_t num_cols) {
  SyntheticGeneratorOptions gen;
  gen.seed = seed;
  gen.num_rows = rows;
  gen.cell_spread = 1.2;
  gen.noise = 0.1;
  gen.columns.clear();
  Rng rng(seed * 31 + 7);
  for (size_t c = 0; c < num_cols; ++c) {
    SyntheticColumnSpec col;
    col.name = "c" + std::to_string(c);
    col.cardinality = 2 + static_cast<uint32_t>(rng.UniformInt(0, 2));
    col.zipf_skew = rng.Bernoulli(0.5) ? 0.7 : 0.0;
    gen.columns.push_back(col);
  }
  return SyntheticGenerator(gen).Generate();
}

std::vector<std::string> ColNames(size_t num_cols) {
  std::vector<std::string> names;
  for (size_t c = 0; c < num_cols; ++c) {
    names.push_back("c" + std::to_string(c));
  }
  return names;
}

/// A random cell-sized raw view: a contiguous-ish random subset of rows.
DatasetView RandomRaw(const Table& table, uint64_t seed, size_t min_rows,
                      size_t max_rows) {
  Rng rng(seed);
  size_t n = static_cast<size_t>(
      rng.UniformInt(static_cast<int64_t>(min_rows),
                     static_cast<int64_t>(max_rows)));
  n = std::min(n, table.num_rows());
  std::vector<uint32_t> picked = rng.SampleWithoutReplacement(
      static_cast<uint32_t>(table.num_rows()), static_cast<uint32_t>(n));
  std::vector<RowId> rows(picked.begin(), picked.end());
  std::sort(rows.begin(), rows.end());
  return DatasetView(&table, std::move(rows));
}

/// ---------------------------------------------------------------------
/// Sampler differential: production GreedySampler (lazy-forward,
/// incremental evaluators) vs NaiveGreedySample (direct loss, no
/// acceleration). Both scan candidates in the same seeded shuffle
/// order, so on exact loss ties they pick the same candidate; the
/// samples must match EXACTLY — element order included. Any divergence
/// means an optimization changed the algorithm, not just its speed.
/// ---------------------------------------------------------------------

/// `exact` = true demands element-for-element equality (the exhaustive
/// path's chunked scan provably shares the naive tie-break: smallest
/// shuffled-pool index wins). The lazy-forward (CELF) heap breaks exact
/// gain TIES by heap order instead, so submodular losses may substitute
/// an equally-good candidate; with `exact` = false that is the ONLY
/// divergence allowed — sizes must still match, and at the first
/// diverging pick both candidates must yield the same loss to within
/// FP noise. Anything beyond a tied swap is a real algorithmic bug.
void RunSamplerDifferential(const LossFunction& loss, uint64_t seed,
                            double theta, bool exact) {
  std::unique_ptr<Table> table = SmallTable(seed, 400, 2);
  DatasetView raw = RandomRaw(*table, seed * 131 + 1, 30, 220);

  GreedySamplerOptions opts;
  opts.seed = seed;
  opts.max_candidates = 0;  // the naive reference has no pool cap
  GreedySampler sampler(&loss, theta, opts);
  Result<std::vector<RowId>> fast = sampler.Sample(raw);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  Result<std::vector<RowId>> naive =
      NaiveGreedySample(*table, loss, theta, raw, seed);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();

  if (exact) {
    EXPECT_EQ(fast.value(), naive.value())
        << "seed=" << seed << " theta=" << theta
        << " fast_size=" << fast.value().size()
        << " naive_size=" << naive.value().size();
  } else {
    ASSERT_EQ(fast.value().size(), naive.value().size())
        << "seed=" << seed << " theta=" << theta;
    // Find the first diverging pick. Everything before it must agree;
    // the two picks there must be an exact gain tie.
    size_t i = 0;
    while (i < fast.value().size() &&
           fast.value()[i] == naive.value()[i]) {
      ++i;
    }
    if (i < fast.value().size()) {
      std::vector<RowId> prefix(fast.value().begin(),
                                fast.value().begin() + i);
      double alts[2];
      const RowId picks[2] = {fast.value()[i], naive.value()[i]};
      for (int k = 0; k < 2; ++k) {
        std::vector<RowId> trial = prefix;
        trial.push_back(picks[k]);
        DatasetView view(table.get(), std::move(trial));
        Result<double> l = loss.Loss(raw, view);
        ASSERT_TRUE(l.ok());
        alts[k] = l.value();
      }
      EXPECT_NEAR(alts[0], alts[1],
                  1e-9 * std::max(1.0, std::abs(alts[0])))
          << "seed=" << seed << " pick " << i
          << ": lazy-forward chose a strictly worse candidate ("
          << picks[0] << " vs " << picks[1] << ")";
    }
  }

  // Both must independently satisfy the deterministic guarantee.
  for (const std::vector<RowId>* s : {&fast.value(), &naive.value()}) {
    DatasetView sample_view(table.get(), *s);
    Result<double> l = loss.Loss(raw, sample_view);
    ASSERT_TRUE(l.ok());
    EXPECT_LE(l.value(), theta * (1.0 + 1e-9) + 1e-12)
        << "seed=" << seed;
  }
}

TEST(SamplerDifferential, MeanLossMatchesNaiveAcross40Seeds) {
  MeanLoss loss("value");
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 977);
    double theta = 0.01 + rng.UniformDouble(0.0, 0.08);
    RunSamplerDifferential(loss, seed, theta, /*exact=*/true);
  }
}

TEST(SamplerDifferential, HeatmapLossMatchesNaiveAcross15Seeds) {
  // The heatmap loss is submodular, so this exercises the lazy-forward
  // (CELF) heap against naive exhaustive rounds.
  std::unique_ptr<LossFunction> loss = MakeHeatmapLoss("x", "y");
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 571);
    double theta = 0.01 + rng.UniformDouble(0.0, 0.04);
    RunSamplerDifferential(*loss, seed, theta, /*exact=*/false);
  }
}

TEST(SamplerDifferential, CappedPoolStillMeetsThetaAcrossSeeds) {
  // With a candidate cap the chosen sample may legitimately differ from
  // the uncapped greedy run (the pool only grows on demand), but the
  // deterministic guarantee must hold regardless — the termination
  // check is always against the full raw data.
  MeanLoss loss("value");
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    std::unique_ptr<Table> table = SmallTable(seed, 400, 2);
    DatasetView raw = RandomRaw(*table, seed * 131 + 1, 60, 220);
    const double theta = 0.02;
    GreedySamplerOptions opts;
    opts.seed = seed;
    opts.max_candidates = 8;  // force repeated pool doubling
    GreedySampler sampler(&loss, theta, opts);
    Result<std::vector<RowId>> sample = sampler.Sample(raw);
    ASSERT_TRUE(sample.ok());
    DatasetView sample_view(table.get(), sample.value());
    Result<double> l = loss.Loss(raw, sample_view);
    ASSERT_TRUE(l.ok());
    EXPECT_LE(l.value(), theta * (1.0 + 1e-9) + 1e-12) << "seed=" << seed;
  }
}

/// ---------------------------------------------------------------------
/// Cube differential: dry-run iceberg marking and real-run samples vs
/// the brute-force oracle cube (independent full scan per cuboid,
/// direct loss per cell — no LossState roll-up).
/// ---------------------------------------------------------------------

struct CubeFixture {
  std::unique_ptr<Table> table;
  KeyEncoder encoder;
  KeyPacker packer;
  Lattice lattice{1};
  std::vector<RowId> global_rows;
  DatasetView global_sample;
};

CubeFixture MakeCubeFixture(uint64_t seed, size_t rows, size_t num_cols) {
  CubeFixture f;
  f.table = SmallTable(seed, rows, num_cols);
  auto enc = KeyEncoder::Make(*f.table, ColNames(num_cols));
  EXPECT_TRUE(enc.ok());
  f.encoder = std::move(enc).value();
  std::vector<size_t> all_cols(num_cols);
  for (size_t i = 0; i < num_cols; ++i) all_cols[i] = i;
  auto packer = KeyPacker::Make(f.encoder, all_cols);
  EXPECT_TRUE(packer.ok());
  f.packer = std::move(packer).value();
  f.lattice = Lattice(num_cols);
  Rng rng(seed * 17 + 3);
  DatasetView all(f.table.get());
  f.global_rows = RandomSample(all, rows / 6, &rng);
  f.global_sample = DatasetView(f.table.get(), f.global_rows);
  return f;
}

TEST(CubeDifferential, DryRunIcebergMarkingMatchesOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const size_t num_cols = 2 + (seed % 2);
    CubeFixture f = MakeCubeFixture(seed, 360, num_cols);
    MeanLoss loss("value");
    const double theta = 0.04;

    auto dry = RunDryRun(DatasetView(f.table.get()), f.encoder, f.packer,
                         f.lattice, loss, f.global_sample, theta);
    ASSERT_TRUE(dry.ok()) << dry.status().ToString();
    auto oracle = BuildOracleCube(*f.table, f.encoder, f.packer, loss,
                                  f.global_sample, theta);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    EXPECT_EQ(dry.value().total_cells, oracle.value().total_cells)
        << "seed=" << seed;
    EXPECT_EQ(dry.value().total_iceberg_cells, oracle.value().iceberg_cells)
        << "seed=" << seed;

    for (const CuboidDryRunInfo& cuboid : dry.value().cuboids) {
      // Exact per-cuboid cell counts.
      size_t oracle_cells = 0;
      std::set<uint64_t> oracle_iceberg;
      for (const OracleCell& cell : oracle.value().cells) {
        if (cell.cuboid != cuboid.mask) continue;
        ++oracle_cells;
        if (cell.iceberg) oracle_iceberg.insert(cell.key);
      }
      EXPECT_EQ(cuboid.total_cells, oracle_cells)
          << "seed=" << seed << " cuboid=" << cuboid.mask;
      std::set<uint64_t> dry_iceberg(cuboid.iceberg_keys.begin(),
                                     cuboid.iceberg_keys.end());
      EXPECT_EQ(dry_iceberg, oracle_iceberg)
          << "seed=" << seed << " cuboid=" << cuboid.mask
          << ": the rolled-up LossState classification disagrees with "
             "the direct per-cell loss";
    }
  }
}

TEST(CubeDifferential, RealRunSamplesMatchOracleOnBothCostPaths) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CubeFixture f = MakeCubeFixture(seed, 360, 2);
    MeanLoss loss("value");
    const double theta = 0.04;

    auto dry = RunDryRun(DatasetView(f.table.get()), f.encoder, f.packer,
                         f.lattice, loss, f.global_sample, theta);
    ASSERT_TRUE(dry.ok());
    auto oracle = BuildOracleCube(*f.table, f.encoder, f.packer, loss,
                                  f.global_sample, theta);
    ASSERT_TRUE(oracle.ok());

    GreedySamplerOptions sampler_opts;
    sampler_opts.seed = seed;

    // Force BOTH data-fetch paths; Inequation 1 may only pick between
    // them, never change what gets sampled.
    RealRunResult runs[2];
    const RealRunPathPolicy policies[2] = {RealRunPathPolicy::kAlwaysJoin,
                                           RealRunPathPolicy::kAlwaysGroupBy};
    for (int p = 0; p < 2; ++p) {
      auto real = RunRealRun(DatasetView(f.table.get()), f.encoder, f.packer,
                             dry.value(), loss, theta, sampler_opts,
                             policies[p]);
      ASSERT_TRUE(real.ok()) << real.status().ToString();
      runs[p] = std::move(real).value();
    }

    for (const RealRunResult& run : runs) {
      // Exactly the oracle's iceberg cells got local samples.
      EXPECT_EQ(run.cube.size(), oracle.value().iceberg_cells)
          << "seed=" << seed;
      for (const IcebergCell& cell : run.cube.cells()) {
        const OracleCell* want = oracle.value().Find(cell.key);
        ASSERT_NE(want, nullptr) << "seed=" << seed
                                 << ": sampled a non-oracle cell";
        EXPECT_TRUE(want->iceberg);
        // The cell's raw rows must be exactly the oracle's direct scan.
        std::vector<RowId> got_rows = cell.raw_rows;
        std::vector<RowId> want_rows = want->rows;
        std::sort(got_rows.begin(), got_rows.end());
        std::sort(want_rows.begin(), want_rows.end());
        EXPECT_EQ(got_rows, want_rows) << "seed=" << seed;
        // And its local sample must meet θ by DIRECT loss against them.
        DatasetView raw(f.table.get(), want->rows);
        DatasetView sample(f.table.get(), cell.local_sample);
        Result<double> l = loss.Loss(raw, sample);
        ASSERT_TRUE(l.ok());
        EXPECT_LE(l.value(), theta * (1.0 + 1e-9) + 1e-12)
            << "seed=" << seed;
      }
    }

    // The two forced paths must produce IDENTICAL cubes: same cells,
    // same local samples (the sampler is seeded identically; only the
    // data-fetch strategy differs).
    ASSERT_EQ(runs[0].cube.size(), runs[1].cube.size());
    for (const IcebergCell& cell : runs[0].cube.cells()) {
      const IcebergCell* other = runs[1].cube.Find(cell.key);
      ASSERT_NE(other, nullptr) << "seed=" << seed;
      EXPECT_EQ(cell.local_sample, other->local_sample)
          << "seed=" << seed
          << ": join vs GroupBy fetch changed the sample";
    }
  }
}

}  // namespace
}  // namespace tabula
