/// Property-based (parameterized) suites for the system's invariants:
/// the deterministic guarantee across losses × thresholds × seeds, the
/// algebraic roll-up identity, key-packing round-trips, and the spatial
/// index's exactness across metrics and point distributions.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <unordered_set>

#include "common/rng.h"
#include "core/tabula.h"
#include "cube/cost_model.h"
#include "cube/dry_run.h"
#include "data/taxi_gen.h"
#include "data/workload.h"
#include "loss/mean_loss.h"
#include "loss/min_dist_loss.h"
#include "loss/regression_loss.h"
#include "sampling/greedy_sampler.h"
#include "sampling/random_sampler.h"

namespace tabula {
namespace {

/// Loss-function factory keyed by name, used across the suites.
std::unique_ptr<LossFunction> MakeLossByName(const std::string& name) {
  if (name == "mean") return std::make_unique<MeanLoss>("fare_amount");
  if (name == "heatmap") return MakeHeatmapLoss("pickup_x", "pickup_y");
  if (name == "heatmap_manhattan") {
    return MakeHeatmapLoss("pickup_x", "pickup_y",
                           DistanceMetric::kManhattan);
  }
  if (name == "histogram") return MakeHistogramLoss("fare_amount");
  if (name == "regression") {
    return std::make_unique<RegressionLoss>("fare_amount", "tip_amount");
  }
  return nullptr;
}

/// Per-loss threshold scale: a "tight" and a "loose" setting that are
/// meaningful for that loss's units.
std::pair<double, double> ThresholdsFor(const std::string& name) {
  if (name == "mean") return {0.02, 0.15};
  if (name == "heatmap" || name == "heatmap_manhattan") {
    return {0.004, 0.02};
  }
  if (name == "histogram") return {0.25, 1.0};
  if (name == "regression") return {1.0, 6.0};
  return {0.1, 0.5};
}

// ---------------------------------------------------------------------
// Property: the greedy sampler ALWAYS meets the threshold.
// ---------------------------------------------------------------------

using SamplerParam = std::tuple<std::string /*loss*/, int /*tight/loose*/,
                                uint64_t /*seed*/>;

class GreedyGuaranteeProperty
    : public ::testing::TestWithParam<SamplerParam> {};

TEST_P(GreedyGuaranteeProperty, SampleLossNeverExceedsThreshold) {
  const auto& [loss_name, tightness, seed] = GetParam();
  TaxiGeneratorOptions gen;
  gen.num_rows = 4000;
  gen.seed = seed;
  auto table = TaxiGenerator(gen).Generate();

  auto loss = MakeLossByName(loss_name);
  ASSERT_NE(loss, nullptr);
  auto [tight, loose] = ThresholdsFor(loss_name);
  double theta = tightness == 0 ? tight : loose;

  GreedySamplerOptions opts;
  opts.seed = seed;
  GreedySampler sampler(loss.get(), theta, opts);

  // Whole table plus a handful of skewed subpopulations.
  Rng rng(seed);
  std::vector<DatasetView> views;
  views.emplace_back(table.get());
  for (int i = 0; i < 3; ++i) {
    size_t n = static_cast<size_t>(rng.UniformInt(5, 2000));
    views.emplace_back(table.get(),
                       RandomSample(views[0], n, &rng));
  }
  for (const auto& raw : views) {
    auto sample = sampler.Sample(raw);
    ASSERT_TRUE(sample.ok());
    DatasetView sample_view(table.get(), sample.value());
    EXPECT_LE(loss->Loss(raw, sample_view).value(), theta)
        << loss_name << " theta=" << theta << " n=" << raw.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLosses, GreedyGuaranteeProperty,
    ::testing::Combine(::testing::Values("mean", "heatmap",
                                         "heatmap_manhattan", "histogram",
                                         "regression"),
                       ::testing::Values(0, 1),
                       ::testing::Values(1u, 17u, 4242u)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == 0 ? "_tight" : "_loose") + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Property: dry-run classification == direct loss computation.
// ---------------------------------------------------------------------

class DryRunExactnessProperty
    : public ::testing::TestWithParam<std::string> {};

TEST_P(DryRunExactnessProperty, RollUpMatchesDirectLoss) {
  const std::string& loss_name = GetParam();
  TaxiGeneratorOptions gen;
  gen.num_rows = 8000;
  gen.seed = 77;
  auto table = TaxiGenerator(gen).Generate();

  auto loss = MakeLossByName(loss_name);
  auto [tight, loose] = ThresholdsFor(loss_name);
  double theta = (tight + loose) / 2;

  std::vector<std::string> attrs{"payment_type", "rate_code"};
  auto enc = KeyEncoder::Make(*table, attrs);
  ASSERT_TRUE(enc.ok());
  auto packer = KeyPacker::Make(*enc, {0, 1});
  ASSERT_TRUE(packer.ok());
  Lattice lattice(2);
  Rng rng(5);
  DatasetView all(table.get());
  std::vector<RowId> global_rows = RandomSample(all, 500, &rng);
  DatasetView global(table.get(), global_rows);

  auto dry = RunDryRun(DatasetView(table.get()), *enc, *packer, lattice, *loss,
                       global, theta);
  ASSERT_TRUE(dry.ok());

  for (CuboidMask mask = 0; mask < 4; ++mask) {
    std::unordered_map<uint64_t, std::vector<RowId>> cells;
    for (RowId r = 0; r < table->num_rows(); ++r) {
      cells[packer->PackRowMasked(*enc, r, mask)].push_back(r);
    }
    std::unordered_set<uint64_t> iceberg(
        dry->cuboids[mask].iceberg_keys.begin(),
        dry->cuboids[mask].iceberg_keys.end());
    EXPECT_EQ(dry->cuboids[mask].total_cells, cells.size());
    for (const auto& [key, rows] : cells) {
      DatasetView cell(table.get(), rows);
      double direct = loss->Loss(cell, global).value();
      EXPECT_EQ(iceberg.count(key) > 0, direct > theta)
          << loss_name << " mask=" << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, DryRunExactnessProperty,
                         ::testing::Values("mean", "heatmap", "histogram",
                                           "regression"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Property: LossState merging is order-insensitive and matches a
// single accumulation pass (the algebraic requirement).
// ---------------------------------------------------------------------

class MergeInvarianceProperty : public ::testing::TestWithParam<std::string> {
};

TEST_P(MergeInvarianceProperty, ArbitrarySplitsMergeIdentically) {
  const std::string& loss_name = GetParam();
  TaxiGeneratorOptions gen;
  gen.num_rows = 2000;
  gen.seed = 3;
  auto table = TaxiGenerator(gen).Generate();
  auto loss = MakeLossByName(loss_name);

  Rng rng(11);
  DatasetView all(table.get());
  DatasetView ref(table.get(), RandomSample(all, 200, &rng));
  auto bound = loss->Bind(*table, ref);
  ASSERT_TRUE(bound.ok());

  LossState whole;
  for (RowId r = 0; r < table->num_rows(); ++r) {
    bound.value()->Accumulate(&whole, r);
  }
  double expected = bound.value()->Finalize(whole);

  for (int trial = 0; trial < 5; ++trial) {
    // Random partition into 4 chunks, merged in random order.
    std::vector<LossState> parts(4);
    for (RowId r = 0; r < table->num_rows(); ++r) {
      bound.value()->Accumulate(
          &parts[static_cast<size_t>(rng.UniformInt(0, 3))], r);
    }
    std::vector<size_t> order{0, 1, 2, 3};
    rng.Shuffle(&order);
    LossState merged = parts[order[0]];
    for (size_t i = 1; i < 4; ++i) merged.Merge(parts[order[i]]);
    EXPECT_NEAR(bound.value()->Finalize(merged), expected, 1e-9)
        << loss_name << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, MergeInvarianceProperty,
                         ::testing::Values("mean", "heatmap", "histogram",
                                           "regression"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Property: KeyPacker round-trips arbitrary code/null combinations.
// ---------------------------------------------------------------------

class KeyPackerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyPackerProperty, RoundTripWithRandomNulls) {
  TaxiGeneratorOptions gen;
  gen.num_rows = 3000;
  gen.seed = 1;
  auto table = TaxiGenerator(gen).Generate();
  auto attrs = TaxiGenerator::ExperimentAttributes();
  auto enc = KeyEncoder::Make(*table, attrs);
  ASSERT_TRUE(enc.ok());
  std::vector<size_t> cols(attrs.size());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  auto packer = KeyPacker::Make(*enc, cols);
  ASSERT_TRUE(packer.ok());

  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint32_t> codes(attrs.size());
    for (size_t k = 0; k < attrs.size(); ++k) {
      codes[k] = rng.Bernoulli(0.3)
                     ? kNullCode
                     : static_cast<uint32_t>(
                           rng.UniformInt(0, enc->Cardinality(k) - 1));
    }
    uint64_t key = packer->PackCodes(codes);
    EXPECT_EQ(packer->Unpack(key), codes);
    // Nulling each position is idempotent and order-independent.
    uint64_t all_null = key;
    for (size_t k = 0; k < attrs.size(); ++k) {
      all_null = packer->WithNull(all_null, k);
    }
    EXPECT_EQ(all_null, packer->PackCodes(std::vector<uint32_t>(
                            attrs.size(), kNullCode)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyPackerProperty,
                         ::testing::Values(1u, 2u, 3u));

// ---------------------------------------------------------------------
// Property: end-to-end Tabula guarantee across losses and thresholds.
// ---------------------------------------------------------------------

using TabulaParam = std::tuple<std::string, int>;

class TabulaGuaranteeProperty
    : public ::testing::TestWithParam<TabulaParam> {};

TEST_P(TabulaGuaranteeProperty, EveryWorkloadQueryWithinTheta) {
  const auto& [loss_name, tightness] = GetParam();
  TaxiGeneratorOptions gen;
  gen.num_rows = 25000;
  gen.seed = 9;
  auto table = TaxiGenerator(gen).Generate();
  auto loss = MakeLossByName(loss_name);
  auto [tight, loose] = ThresholdsFor(loss_name);
  double theta = tightness == 0 ? tight : loose;
  // The tight heat-map threshold on 25k rows is exercised in the
  // end-to-end suite; keep the property suite fast with the loose one.
  if ((loss_name == "heatmap" || loss_name == "heatmap_manhattan") &&
      tightness == 0) {
    theta = 0.008;
  }

  TabulaOptions opts;
  opts.cubed_attributes = {"payment_type", "rate_code", "passenger_count"};
  opts.loss = loss.get();
  opts.threshold = theta;
  auto tabula = Tabula::Initialize(*table, opts);
  ASSERT_TRUE(tabula.ok()) << tabula.status().ToString();

  WorkloadOptions wopts;
  wopts.num_queries = 40;
  wopts.seed = 123;
  auto workload = GenerateWorkload(*table, opts.cubed_attributes, wopts);
  ASSERT_TRUE(workload.ok());
  for (const auto& q : workload.value()) {
    auto answer = tabula.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(answer.ok());
    auto pred = BoundPredicate::Bind(*table, q.where);
    DatasetView truth(table.get(), pred->FilterAll());
    if (truth.empty()) continue;
    EXPECT_LE(loss->Loss(truth, answer->result.sample).value(), theta)
        << loss_name << " θ=" << theta << " " << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLosses, TabulaGuaranteeProperty,
    ::testing::Combine(::testing::Values("mean", "heatmap", "histogram",
                                         "regression"),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == 0 ? "_tight" : "_loose");
    });

// ---------------------------------------------------------------------
// Property: the guarantee survives incremental maintenance under every
// loss function.
// ---------------------------------------------------------------------

class RefreshGuaranteeProperty
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RefreshGuaranteeProperty, GuaranteeHoldsAfterSkewedAppends) {
  const std::string& loss_name = GetParam();
  TaxiGeneratorOptions gen;
  gen.num_rows = 12000;
  gen.seed = 61;
  auto table = TaxiGenerator(gen).Generate();
  auto loss = MakeLossByName(loss_name);
  auto [tight, loose] = ThresholdsFor(loss_name);
  double theta = loose;

  TabulaOptions opts;
  opts.cubed_attributes = {"payment_type", "rate_code"};
  opts.loss = loss.get();
  opts.threshold = theta;
  auto tabula = Tabula::Initialize(*table, opts);
  ASSERT_TRUE(tabula.ok()) << tabula.status().ToString();

  // Append rides from a different seed (shifted hotspots/means).
  TaxiGeneratorOptions extra_gen;
  extra_gen.num_rows = 3000;
  extra_gen.seed = 62;
  auto extra = TaxiGenerator(extra_gen).Generate();
  for (RowId r = 0; r < extra->num_rows(); ++r) {
    ASSERT_TRUE(table->AppendRowFrom(*extra, r).ok());
  }
  Tabula::RefreshStats stats;
  ASSERT_TRUE(tabula.value()->Refresh(&stats).ok());

  WorkloadOptions wopts;
  wopts.num_queries = 25;
  wopts.seed = 3;
  auto workload = GenerateWorkload(*table, opts.cubed_attributes, wopts);
  ASSERT_TRUE(workload.ok());
  for (const auto& q : workload.value()) {
    auto answer = tabula.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(answer.ok());
    auto pred = BoundPredicate::Bind(*table, q.where);
    DatasetView truth(table.get(), pred->FilterAll());
    if (truth.empty()) continue;
    EXPECT_LE(loss->Loss(truth, answer->result.sample).value(), theta)
        << loss_name << " " << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, RefreshGuaranteeProperty,
                         ::testing::Values("mean", "heatmap", "histogram",
                                           "regression"),
                         [](const auto& info) { return info.param; });

/// ------------------------------------------------------------------
/// Cost-model properties (paper Inequation 1). The chooser is pure
/// arithmetic, so its edge cases can be pinned exhaustively: degenerate
/// inputs must pick a sane path, and the decision must respect the
/// obvious monotonicities.
/// ------------------------------------------------------------------

TEST(CostModelProperty, DegenerateInputsPickASanePath) {
  // No iceberg cells: nothing to group — join (prune everything) wins
  // regardless of the other arguments, including nonsense ones.
  for (double n : {0.0, 1.0, 1e3, 1e9}) {
    for (double k : {0.0, 1.0, 7.0, 1e6}) {
      EXPECT_TRUE(PreferJoinPath(n, 0.0, k)) << "n=" << n << " k=" << k;
      EXPECT_TRUE(PreferJoinPath(n, -3.0, k)) << "n=" << n << " k=" << k;
    }
  }
  // A single-cell (or empty) cuboid: GroupBy degenerates to one scan and
  // the join path can never beat it.
  for (double n : {0.0, 1.0, 1e3, 1e9}) {
    for (double i : {0.5, 1.0, 2.0}) {
      EXPECT_FALSE(PreferJoinPath(n, i, 1.0)) << "n=" << n << " i=" << i;
      EXPECT_FALSE(PreferJoinPath(n, i, 0.0)) << "n=" << n << " i=" << i;
    }
  }
  // Empty and single-row tables must not crash or take the join path's
  // per-row prune cost for free: with no log() advantage either way the
  // comparison is 0 < 0 and GroupBy (the simpler plan) wins.
  EXPECT_FALSE(PreferJoinPath(0.0, 2.0, 10.0));
  EXPECT_FALSE(PreferJoinPath(1.0, 2.0, 10.0));
}

TEST(CostModelProperty, AllIcebergNeverPrefersJoin) {
  // i == k: the prune keeps every row, so the join path pays the
  // membership test for nothing. GroupBy must win at any scale.
  for (double n : {10.0, 1e4, 1e8}) {
    for (double k : {2.0, 64.0, 1e5}) {
      EXPECT_FALSE(PreferJoinPath(n, k, k)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(CostModelProperty, DecisionIsMonotoneInIcebergCells) {
  // Fixing N and k, the join path can only get less attractive as i
  // grows (both its terms are increasing in i): once the chooser flips
  // to GroupBy it must never flip back.
  for (double n : {1e4, 1e6, 1e8}) {
    for (double k : {100.0, 1e4}) {
      bool prev = PreferJoinPath(n, 1.0, k);
      for (double i = 2.0; i <= k; i *= 2.0) {
        bool cur = PreferJoinPath(n, std::min(i, k), k);
        EXPECT_FALSE(!prev && cur)
            << "flipped back to join at n=" << n << " k=" << k << " i=" << i;
        prev = cur;
      }
    }
  }
}

TEST(CostModelProperty, NonIntegerInputsBehaveLikeNearbyIntegers) {
  // Estimates arrive as doubles (selectivity-scaled); fractional inputs
  // must interpolate, not explode. Bracket each fractional decision by
  // its integer neighbours: if both neighbours agree, so must it.
  for (double n : {1e4, 1e6}) {
    for (double k : {100.0, 1e4}) {
      for (double i = 1.5; i < 40.0; i += 3.7) {
        bool lo = PreferJoinPath(n, std::floor(i), k);
        bool hi = PreferJoinPath(n, std::ceil(i), k);
        if (lo == hi) {
          EXPECT_EQ(PreferJoinPath(n, i, k), lo)
              << "n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(CostModelProperty, IcebergRowFractionClampsAndDegrades) {
  // Plain ratio inside the valid range...
  EXPECT_DOUBLE_EQ(IcebergRowFraction(1.0, 4.0), 0.25);
  EXPECT_DOUBLE_EQ(IcebergRowFraction(0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(IcebergRowFraction(4.0, 4.0), 1.0);
  // ...clamped against estimator noise pushing it out of [0, 1]...
  EXPECT_DOUBLE_EQ(IcebergRowFraction(5.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(IcebergRowFraction(-1.0, 4.0), 0.0);
  // ...and a conservative 1.0 (prune keeps everything) when the total
  // is unknown or nonsense, so a bad estimate can't starve the scan.
  EXPECT_DOUBLE_EQ(IcebergRowFraction(3.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(IcebergRowFraction(3.0, -2.0), 1.0);
  // Monotone in i for fixed k.
  for (double k : {1.0, 10.0, 1e6}) {
    double prev = IcebergRowFraction(0.0, k);
    for (double i = 0.25; i <= 2.0 * k; i *= 2.0) {
      double cur = IcebergRowFraction(i, k);
      EXPECT_GE(cur, prev) << "k=" << k << " i=" << i;
      EXPECT_GE(cur, 0.0);
      EXPECT_LE(cur, 1.0);
      prev = cur;
    }
  }
}

}  // namespace
}  // namespace tabula
