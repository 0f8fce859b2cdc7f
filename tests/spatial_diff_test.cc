/// Range-oracle differential suite — the pin for the spatial surface
/// (DESIGN.md §10): bbox answers from BOTH engines against a
/// brute-force x/y scan, across 20+ seeds, bbox sizes from a single
/// finest cell to the full extent, and shard counts K ∈ {1, 2, 4}.
///
/// The contract under test:
///  - every served range answer meets loss(truth, sample) <= θ, truth
///    gathered by a direct inclusive scan of the x/y columns (zero grid
///    code involved);
///  - an `empty_cell` range answer is really empty, and vice versa;
///  - K = 1 runs the plain engine (a sharded engine needs K >= 2);
///  - hybrid bbox+equality answers are byte-identical across every K
///    (matching rows are globally sorted before the exact/greedy
///    decision, so the shard count cannot leak into the bytes);
///  - equality-only queries are bit-identical with the grid enabled vs
///    disabled — the pre-spatial surface is untouched;
///  - appends + Refresh preserve all of the above;
///  - malformed / mixed requests fail kInvalidArgument, never crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <set>

#include "common/rng.h"
#include "core/tabula.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "engine_at_k.h"
#include "loss/loss_registry.h"
#include "shard/sharded_tabula.h"
#include "spatial/spatial_grid.h"
#include "storage/predicate.h"

namespace tabula {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kShardCounts[] = {1, 2, 4};

struct Box {
  double x_lo = -kInf;
  double x_hi = kInf;
  double y_lo = -kInf;
  double y_hi = kInf;

  SpatialRange ToRange() const {
    SpatialRange r;
    r.bounds.push_back(SpatialBound{"x", x_lo, x_hi});
    r.bounds.push_back(SpatialBound{"y", y_lo, y_hi});
    return r;
  }
};

struct DiffFixture {
  std::unique_ptr<Table> table;
  std::vector<std::string> attrs;
};

DiffFixture MakeFixture(uint64_t seed, size_t rows) {
  SyntheticGeneratorOptions gen;
  gen.seed = seed * 65537 + 9;
  gen.num_rows = rows;
  SyntheticGenerator generator(gen);
  DiffFixture f;
  f.table = generator.Generate();
  f.attrs = generator.CategoricalColumns();
  return f;
}

std::shared_ptr<const LossFunction> MakeLoss(const std::string& name) {
  LossParams params;
  params.columns = name == "heatmap_loss"
                       ? std::vector<std::string>{"x", "y"}
                       : std::vector<std::string>{"value"};
  auto loss = MakeLossFunction(name, params);
  EXPECT_TRUE(loss.ok()) << loss.status().ToString();
  return std::shared_ptr<const LossFunction>(std::move(loss).value());
}

TabulaOptions MakePlainOptions(const DiffFixture& f, uint64_t seed,
                               std::shared_ptr<const LossFunction> loss,
                               double theta, size_t levels) {
  TabulaOptions o;
  o.cubed_attributes = f.attrs;
  o.owned_loss = std::move(loss);
  o.threshold = theta;
  o.seed = seed;
  o.spatial.x_column = "x";
  o.spatial.y_column = "y";
  o.spatial.levels = levels;
  return o;
}

ShardedTabulaOptions MakeShardOptions(const DiffFixture& f, uint64_t seed,
                                      size_t k,
                                      std::shared_ptr<const LossFunction> loss,
                                      double theta, size_t levels) {
  ShardedTabulaOptions o;
  o.base = MakePlainOptions(f, seed, std::move(loss), theta, levels);
  o.num_shards = k;
  o.partition =
      (seed + k) % 2 == 0 ? ShardPartition::kHash : ShardPartition::kRange;
  return o;
}

/// Brute-force range oracle: a direct inclusive scan of the x/y double
/// columns, optionally conjoined with the equality predicate — the
/// definition the grid path must reproduce.
std::vector<RowId> OracleRows(const Table& table, const Box& box,
                              const std::vector<PredicateTerm>& where) {
  const auto* xc = table.ColumnByName("x").value()->As<DoubleColumn>();
  const auto* yc = table.ColumnByName("y").value()->As<DoubleColumn>();
  std::vector<RowId> in_box;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    double x = xc->At(r);
    double y = yc->At(r);
    if (x >= box.x_lo && x <= box.x_hi && y >= box.y_lo && y <= box.y_hi) {
      in_box.push_back(r);
    }
  }
  if (where.empty()) return in_box;
  auto bound = BoundPredicate::Bind(table, where);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return bound.value().FilterRows(in_box);
}

/// Bbox sizes from one finest cell (side 1/2^levels of the unit extent)
/// to the full extent, plus random boxes with degenerate shapes.
std::vector<Box> MakeBoxes(uint64_t seed, size_t levels, size_t random_boxes) {
  std::vector<Box> boxes;
  boxes.push_back(Box{});  // full extent (both axes unbounded)
  Rng rng(seed * 31 + 17);
  // The size ladder: aligned boxes of side 2^-l for every grid level.
  for (size_t l = 0; l <= levels; ++l) {
    double side = 1.0 / static_cast<double>(1u << l);
    double ax = side * rng.UniformInt(0, static_cast<int>((1u << l) - 1));
    double ay = side * rng.UniformInt(0, static_cast<int>((1u << l) - 1));
    boxes.push_back(Box{ax, ax + side, ay, ay + side});
  }
  for (size_t i = 0; i < random_boxes; ++i) {
    Box b;
    auto pick = [&](double* lo, double* hi) {
      switch (rng.UniformInt(0, 4)) {
        case 0:  // unbounded axis
          *lo = -kInf;
          *hi = kInf;
          break;
        case 1: {  // point
          double v = rng.UniformDouble(0.0, 1.0);
          *lo = *hi = v;
          break;
        }
        case 2:  // hangs off the extent
          *lo = -0.5;
          *hi = rng.UniformDouble(0.0, 1.0);
          break;
        default: {
          double a = rng.UniformDouble(0.0, 1.0);
          double c = rng.UniformDouble(0.0, 1.0);
          *lo = std::min(a, c);
          *hi = std::max(a, c);
          break;
        }
      }
    };
    pick(&b.x_lo, &b.x_hi);
    pick(&b.y_lo, &b.y_hi);
    boxes.push_back(b);
  }
  return boxes;
}

/// The θ pin: empty-answer agreement with the oracle, and
/// loss(truth, sample) within the deterministic bound otherwise.
void CheckAgainstOracle(const DiffFixture& f, const LossFunction& loss,
                        double theta, const Box& box,
                        const std::vector<PredicateTerm>& where,
                        const TabulaQueryResult& result, size_t k,
                        uint64_t seed) {
  std::vector<RowId> truth = OracleRows(*f.table, box, where);
  if (result.empty_cell) {
    EXPECT_TRUE(truth.empty()) << "seed=" << seed << " k=" << k;
  } else {
    EXPECT_FALSE(truth.empty()) << "seed=" << seed << " k=" << k;
  }
  if (truth.empty()) return;
  DatasetView truth_view(f.table.get(), std::move(truth));
  auto l = loss.Loss(truth_view, result.sample);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  EXPECT_LE(l.value(), theta * (1.0 + 1e-7) + 1e-12)
      << "seed=" << seed << " k=" << k << " box=[" << box.x_lo << ","
      << box.x_hi << "]x[" << box.y_lo << "," << box.y_hi << "]";
}

void RunPureRangeDiff(const std::string& loss_name, uint64_t seed,
                      size_t rows, double theta, size_t levels) {
  DiffFixture f = MakeFixture(seed, rows);
  std::shared_ptr<const LossFunction> loss = MakeLoss(loss_name);

  auto plain = Tabula::Initialize(
      *f.table, MakePlainOptions(f, seed, loss, theta, levels));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_GT(plain.value()->init_stats().spatial_cells, 0u);

  std::vector<Box> boxes = MakeBoxes(seed, levels, 6);
  for (size_t k : kShardCounts) {
    auto sharded = EngineAtK::Initialize(
        *f.table, MakeShardOptions(f, seed, k, loss, theta, levels));
    ASSERT_TRUE(sharded.ok()) << "seed=" << seed << " k=" << k << ": "
                              << sharded.status().ToString();
    for (const Box& box : boxes) {
      QueryRequest req;
      req.range = box.ToRange();
      auto got = sharded.value()->Query(req);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const TabulaQueryResult& result = got.value().result;
      EXPECT_TRUE(result.unavailable_shards.empty());
      CheckAgainstOracle(f, *loss, theta, box, {}, result, k, seed);

      auto want = plain.value()->Query(req);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      CheckAgainstOracle(f, *loss, theta, box, {}, want.value().result, 0,
                         seed);
      EXPECT_EQ(result.empty_cell, want.value().result.empty_cell);
      if (k == 1) {
        // K = 1 is the plain engine: bit-identical to it.
        EXPECT_EQ(result.sample.ToRowIds(),
                  want.value().result.sample.ToRowIds())
            << "seed=" << seed;
      }
    }
  }
}

/// Mean loss (ratio-of-aggregates): NOT union-closed, so composing a
/// bbox answer exercises the exact-state verification (its state is
/// reference-free) and, when that rejects, the deterministic re-sample.
/// 20 seeds x 3 shard counts x ~12 boxes each.
TEST(SpatialDiff, PureRangeMeanLossWithinThetaAcross20Seeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RunPureRangeDiff("mean_loss", seed, 600, 0.08, 4);
  }
}

/// Heatmap loss (min-dist family): union-closed AND
/// reference-dependent, so composition takes the union-closure
/// acceptance and re-samples only via the gathered raw rows.
TEST(SpatialDiff, PureRangeHeatmapLossWithinTheta) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RunPureRangeDiff("heatmap_loss", seed, 400, 0.2, 3);
  }
}

/// Hybrid bbox + equality: within θ of the conjoined oracle, exact
/// (sorted truth, byte for byte) whenever the matching set fits the
/// resample cap, and byte-identical across every shard count — the
/// matching rows are globally sorted before the exact/greedy decision.
TEST(SpatialDiff, HybridRangePlusEqualityIsKInvariantByteForByte) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const double theta = 0.08;
    const size_t levels = 4;
    DiffFixture f = MakeFixture(seed, 600);
    std::shared_ptr<const LossFunction> loss = MakeLoss("mean_loss");
    auto plain = Tabula::Initialize(
        *f.table, MakePlainOptions(f, seed, loss, theta, levels));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    const size_t cap = plain.value()->options().spatial.resample_cap;

    WorkloadOptions wopt;
    wopt.num_queries = 4;
    wopt.seed = seed * 401 + 3;
    auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
    ASSERT_TRUE(qs.ok()) << qs.status().ToString();
    std::vector<Box> boxes = MakeBoxes(seed, levels, 3);

    for (size_t k : kShardCounts) {
      auto sharded = EngineAtK::Initialize(
          *f.table, MakeShardOptions(f, seed, k, loss, theta, levels));
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      for (const WorkloadQuery& q : qs.value()) {
        // The "All" vertex has no equality terms — that's the pure
        // range path (set-equal across K, not byte-equal), not hybrid.
        if (q.where.empty()) continue;
        for (const Box& box : boxes) {
          QueryRequest req(q.where);
          req.range = box.ToRange();
          auto got = sharded.value()->Query(req);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          auto want = plain.value()->Query(req);
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          const TabulaQueryResult& result = got.value().result;
          // Byte-identical across K (and to the plain engine).
          EXPECT_EQ(result.sample.ToRowIds(),
                    want.value().result.sample.ToRowIds())
              << "seed=" << seed << " k=" << k << " query=" << q.ToString();
          EXPECT_EQ(result.empty_cell, want.value().result.empty_cell);
          CheckAgainstOracle(f, *loss, theta, box, q.where, result, k, seed);
          std::vector<RowId> truth = OracleRows(*f.table, box, q.where);
          if (!truth.empty() && truth.size() <= cap) {
            // Below the cap the answer is exact: the sorted truth.
            EXPECT_EQ(result.sample.ToRowIds(), truth)
                << "seed=" << seed << " k=" << k;
          }
        }
      }
    }
  }
}

/// The pre-spatial pin: with the grid materialized, equality-only
/// queries are bit-identical to a grid-less engine — same
/// classification, same sample bytes, for both engines at every K.
TEST(SpatialDiff, EqualityOnlyQueriesBitIdenticalWithGridEnabled) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const double theta = 0.08;
    DiffFixture f = MakeFixture(seed, 500);
    std::shared_ptr<const LossFunction> loss = MakeLoss("mean_loss");

    auto without = Tabula::Initialize(
        *f.table, MakePlainOptions(f, seed, loss, theta, /*levels=*/0));
    auto with = Tabula::Initialize(
        *f.table, MakePlainOptions(f, seed, loss, theta, /*levels=*/4));
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    EXPECT_EQ(without.value()->init_stats().spatial_cells, 0u);
    EXPECT_GT(with.value()->init_stats().spatial_cells, 0u);

    WorkloadOptions wopt;
    wopt.num_queries = 12;
    wopt.seed = seed * 101 + 7;
    auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
    ASSERT_TRUE(qs.ok()) << qs.status().ToString();

    for (const WorkloadQuery& q : qs.value()) {
      auto a = without.value()->Query(QueryRequest(q.where));
      auto b = with.value()->Query(QueryRequest(q.where));
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a.value().result.sample.ToRowIds(),
                b.value().result.sample.ToRowIds())
          << "seed=" << seed << " query=" << q.ToString();
      EXPECT_EQ(a.value().result.from_local_sample,
                b.value().result.from_local_sample);
      EXPECT_EQ(a.value().result.empty_cell, b.value().result.empty_cell);
    }

    for (size_t k : {2u, 4u}) {
      auto sa = ShardedTabula::Initialize(
          *f.table, MakeShardOptions(f, seed, k, loss, theta, 0));
      auto sb = ShardedTabula::Initialize(
          *f.table, MakeShardOptions(f, seed, k, loss, theta, 4));
      ASSERT_TRUE(sa.ok() && sb.ok());
      for (const WorkloadQuery& q : qs.value()) {
        auto a = sa.value()->Query(QueryRequest(q.where));
        auto b = sb.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(a.value().result.sample.ToRowIds(),
                  b.value().result.sample.ToRowIds())
            << "seed=" << seed << " k=" << k << " query=" << q.ToString();
      }
    }
  }
}

/// Appends + Refresh: the grid absorbs the pending rows through the
/// staged ingest protocol on both engines, and range answers stay
/// within θ of the (grown) oracle; hybrid answers stay K-invariant.
TEST(SpatialDiff, RefreshKeepsRangeAnswersWithinTheta) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const double theta = 0.08;
    const size_t levels = 4;
    DiffFixture f = MakeFixture(seed, 500);
    std::shared_ptr<const LossFunction> loss = MakeLoss("mean_loss");

    auto plain = Tabula::Initialize(
        *f.table, MakePlainOptions(f, seed, loss, theta, levels));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    std::vector<std::unique_ptr<ShardedTabula>> engines;
    for (size_t k : {2u, 4u}) {
      auto e = ShardedTabula::Initialize(
          *f.table, MakeShardOptions(f, seed, k, loss, theta, levels));
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      engines.push_back(std::move(e).value());
    }

    // Donor rows with the same schema (including fresh x/y positions).
    DiffFixture donor = MakeFixture(seed + 177, 250);
    for (size_t r = 0; r < donor.table->num_rows(); ++r) {
      ASSERT_TRUE(
          f.table->AppendRowFrom(*donor.table, static_cast<RowId>(r)).ok());
    }
    ASSERT_TRUE(plain.value()->Refresh().ok());
    for (auto& e : engines) {
      Status st = e->Refresh();
      ASSERT_TRUE(st.ok()) << st.ToString();
    }

    std::vector<Box> boxes = MakeBoxes(seed + 53, levels, 5);
    for (const Box& box : boxes) {
      QueryRequest req;
      req.range = box.ToRange();
      auto want = plain.value()->Query(req);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      // The refreshed engine must see the appended rows: oracle over
      // the GROWN table, not the build-time prefix.
      CheckAgainstOracle(f, *loss, theta, box, {}, want.value().result, 1,
                         seed);
      EXPECT_FALSE(want.value().result.stale);
      for (auto& e : engines) {
        auto got = e->Query(req);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        CheckAgainstOracle(f, *loss, theta, box, {},
                           got.value().result, e->options().num_shards, seed);
      }
    }
  }
}

/// Malformed and mixed requests are rejected with kInvalidArgument (and
/// identical wording) by both engines — never a crash, never a wrong
/// answer.
TEST(SpatialDiff, MalformedAndMixedRangeRequestsRejected) {
  const uint64_t seed = 3;
  DiffFixture f = MakeFixture(seed, 300);
  std::shared_ptr<const LossFunction> loss = MakeLoss("mean_loss");
  auto plain = Tabula::Initialize(
      *f.table, MakePlainOptions(f, seed, loss, 0.08, 4));
  auto sharded = ShardedTabula::Initialize(
      *f.table, MakeShardOptions(f, seed, 4, loss, 0.08, 4));
  auto gridless = Tabula::Initialize(
      *f.table, MakePlainOptions(f, seed, loss, 0.08, 0));
  ASSERT_TRUE(plain.ok() && sharded.ok() && gridless.ok());

  auto expect_invalid = [&](const QueryRequest& req, const char* what) {
    for (int engine = 0; engine < 2; ++engine) {
      auto got = engine == 0 ? plain.value()->Query(req)
                             : sharded.value()->Query(req);
      ASSERT_FALSE(got.ok()) << what << " engine=" << engine;
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument)
          << what << ": " << got.status().ToString();
    }
  };

  {  // reversed bound
    QueryRequest req;
    req.range.bounds.push_back(SpatialBound{"x", 0.9, 0.1});
    expect_invalid(req, "reversed");
  }
  {  // non-grid column
    QueryRequest req;
    req.range.bounds.push_back(SpatialBound{"value", 0.1, 0.9});
    expect_invalid(req, "non-grid column");
  }
  {  // duplicate axis
    QueryRequest req;
    req.range.bounds.push_back(SpatialBound{"x", 0.1, 0.5});
    req.range.bounds.push_back(SpatialBound{"x", 0.2, 0.6});
    expect_invalid(req, "duplicate axis");
  }
  {  // mixing a range and an equality predicate on a grid column
    QueryRequest req;
    req.range.bounds.push_back(SpatialBound{"x", 0.1, 0.5});
    req.where.push_back(PredicateTerm{"y", CompareOp::kEq, Value(0.5)});
    expect_invalid(req, "mixed range+equality on grid column");
  }
  {  // a grid-less engine refuses range requests outright
    QueryRequest req;
    req.range.bounds.push_back(SpatialBound{"x", 0.1, 0.5});
    auto got = gridless.value()->Query(req);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
  {  // positional (BBOX-style) bounds resolve like named ones
    QueryRequest named;
    named.range.bounds.push_back(SpatialBound{"x", 0.2, 0.7});
    named.range.bounds.push_back(SpatialBound{"y", 0.1, 0.6});
    QueryRequest positional;
    positional.range.bounds.push_back(SpatialBound{"", 0.2, 0.7});
    positional.range.bounds.push_back(SpatialBound{"", 0.1, 0.6});
    auto a = plain.value()->Query(named);
    auto b = plain.value()->Query(positional);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().result.sample.ToRowIds(),
              b.value().result.sample.ToRowIds());
  }
}

/// Save/Load (cube file v3, manifest v3): a loaded engine serves
/// byte-identical range answers; a grid-less file loaded with spatial
/// enabled rebuilds the grid deterministically — same bytes again.
TEST(SpatialDiff, SaveLoadRoundTripsRangeAnswers) {
  const uint64_t seed = 5;
  const double theta = 0.08;
  const size_t levels = 4;
  DiffFixture f = MakeFixture(seed, 500);
  std::shared_ptr<const LossFunction> loss = MakeLoss("mean_loss");

  auto plain = Tabula::Initialize(
      *f.table, MakePlainOptions(f, seed, loss, theta, levels));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const std::string path = ::testing::TempDir() + "/spatial_cube.tblc";
  ASSERT_TRUE(plain.value()->Save(path).ok());
  auto loaded = Tabula::Load(
      *f.table, MakePlainOptions(f, seed, loss, theta, levels), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->init_stats().spatial_cells,
            plain.value()->init_stats().spatial_cells);

  // A grid-less save loaded with spatial enabled rebuilds the grid.
  auto gridless = Tabula::Initialize(
      *f.table, MakePlainOptions(f, seed, loss, theta, 0));
  ASSERT_TRUE(gridless.ok());
  const std::string path0 = ::testing::TempDir() + "/gridless_cube.tblc";
  ASSERT_TRUE(gridless.value()->Save(path0).ok());
  auto rebuilt = Tabula::Load(
      *f.table, MakePlainOptions(f, seed, loss, theta, levels), path0);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_GT(rebuilt.value()->init_stats().spatial_cells, 0u);

  auto sharded = ShardedTabula::Initialize(
      *f.table, MakeShardOptions(f, seed, 4, loss, theta, levels));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const std::string spath = ::testing::TempDir() + "/spatial_cube.tbls";
  ASSERT_TRUE(sharded.value()->Save(spath).ok());
  auto sloaded = ShardedTabula::Load(
      *f.table, MakeShardOptions(f, seed, 4, loss, theta, levels), spath);
  ASSERT_TRUE(sloaded.ok()) << sloaded.status().ToString();

  std::vector<Box> boxes = MakeBoxes(seed + 29, levels, 6);
  for (const Box& box : boxes) {
    QueryRequest req;
    req.range = box.ToRange();
    auto want = plain.value()->Query(req);
    auto a = loaded.value()->Query(req);
    auto b = rebuilt.value()->Query(req);
    ASSERT_TRUE(want.ok() && a.ok() && b.ok());
    EXPECT_EQ(a.value().result.sample.ToRowIds(),
              want.value().result.sample.ToRowIds());
    EXPECT_EQ(b.value().result.sample.ToRowIds(),
              want.value().result.sample.ToRowIds());

    auto swant = sharded.value()->Query(req);
    auto sgot = sloaded.value()->Query(req);
    ASSERT_TRUE(swant.ok() && sgot.ok());
    EXPECT_EQ(sgot.value().result.sample.ToRowIds(),
              swant.value().result.sample.ToRowIds());
    CheckAgainstOracle(f, *loss, theta, box, {}, sgot.value().result, 4,
                       seed);
  }
}

/// ---------------------------------------------------------------------
/// Degenerate-edge boundary classification (white box).
///
/// The random-box suites above almost never land a bound EXACTLY on a
/// grid cell edge, which is where an interior-vs-boundary off-by-one
/// would hide: `Decompose` classifies cells by clamped AxisIndex of the
/// bound while the boundary re-filter and the oracle use the closed
/// compare (`InBox`). These cases pin the seam directly: a lattice table
/// whose coordinates and cell edges are exact binary fractions (k/16
/// over extent [0,1], so `AxisIndex` computes k with no rounding), swept
/// with boxes whose bounds sit exactly on cell edges, on the pinned
/// extent min/max, and on degenerate point/sliver shapes.
/// ---------------------------------------------------------------------

struct LatticeFixture {
  std::unique_ptr<Table> table;
  std::shared_ptr<const LossFunction> loss;
  std::vector<RowId> ref_rows;
  SpatialGrid::Context ctx;
  SpatialGridOptions opts;

  /// 17x17 lattice points at exact multiples of 1/16, plus off-lattice
  /// interior rows so interior cells are non-trivially populated.
  explicit LatticeFixture(uint64_t seed) {
    Schema schema({{"x", DataType::kDouble},
                   {"y", DataType::kDouble},
                   {"value", DataType::kDouble}});
    table = std::make_unique<Table>(schema);
    for (int iy = 0; iy <= 16; ++iy) {
      for (int ix = 0; ix <= 16; ++ix) {
        EXPECT_TRUE(table
                        ->AppendRow({Value(ix / 16.0), Value(iy / 16.0),
                                     Value(static_cast<double>(ix + iy))})
                        .ok());
      }
    }
    Rng rng(seed * 977 + 5);
    for (int i = 0; i < 400; ++i) {
      EXPECT_TRUE(table
                      ->AppendRow({Value(rng.UniformDouble(0.0, 1.0)),
                                   Value(rng.UniformDouble(0.0, 1.0)),
                                   Value(rng.UniformDouble(-1.0, 1.0))})
                      .ok());
    }
    loss = MakeLoss("mean_loss");
    for (RowId r = 0; r < 128; ++r) ref_rows.push_back(r);
    ctx.table = table.get();
    ctx.loss = loss.get();
    ctx.threshold = 0.08;
    ctx.sampler.seed = seed;
    ctx.ref = DatasetView(table.get(), ref_rows);
    opts.x_column = "x";
    opts.y_column = "y";
    opts.levels = 5;  // finest grid 16x16: cell edges at exact k/16
  }
};

std::vector<RowId> LatticeOracle(const Table& table,
                                 const SpatialGrid::ResolvedBBox& box) {
  const auto* xc = table.ColumnByName("x").value()->As<DoubleColumn>();
  const auto* yc = table.ColumnByName("y").value()->As<DoubleColumn>();
  std::vector<RowId> out;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    double x = xc->At(r);
    double y = yc->At(r);
    if (x >= box.x_lo && x <= box.x_hi && y >= box.y_lo && y <= box.y_hi) {
      out.push_back(r);
    }
  }
  return out;
}

/// The full boundary-classification contract for one box:
///  - interior cells and boundary finest cells are disjoint;
///  - every row of every interior cell satisfies the CLOSED box (an
///    interior cell's rows are taken wholesale, no re-filter — one row
///    on the wrong side of an edge-aligned bound breaks this);
///  - GatherRangeRows (interior wholesale + boundary closed re-filter)
///    reproduces the inclusive oracle scan exactly;
///  - RangeQuery's emptiness and raw_count agree with the oracle.
void CheckEdgeBox(const LatticeFixture& f, const SpatialGrid& grid,
                  const SpatialGrid::ResolvedBBox& box) {
  SCOPED_TRACE(::testing::Message()
               << "box=[" << box.x_lo << "," << box.x_hi << "]x[" << box.y_lo
               << "," << box.y_hi << "]");
  const SpatialGrid::Decomposition d = grid.Decompose(box);
  const uint32_t n = grid.finest_dim();

  std::set<uint32_t> finest_ids;
  for (const auto& [level, index] : d.interior) {
    const uint32_t dim = 1u << level;
    const uint32_t scale = n / dim;
    const uint32_t ix = index % dim;
    const uint32_t iy = index / dim;
    for (uint32_t fy = iy * scale; fy < (iy + 1) * scale; ++fy) {
      for (uint32_t fx = ix * scale; fx < (ix + 1) * scale; ++fx) {
        EXPECT_TRUE(finest_ids.insert(fy * n + fx).second)
            << "interior cells overlap at finest id " << fy * n + fx;
      }
    }
  }
  for (uint32_t cell : d.boundary) {
    EXPECT_TRUE(finest_ids.insert(cell).second)
        << "boundary finest cell " << cell << " overlaps interior";
  }

  // Every interior finest cell's rows satisfy the closed box.
  const auto* xc = f.table->ColumnByName("x").value()->As<DoubleColumn>();
  const auto* yc = f.table->ColumnByName("y").value()->As<DoubleColumn>();
  for (const auto& [level, index] : d.interior) {
    const uint32_t dim = 1u << level;
    const uint32_t scale = n / dim;
    const uint32_t ix = index % dim;
    const uint32_t iy = index / dim;
    for (uint32_t fy = iy * scale; fy < (iy + 1) * scale; ++fy) {
      for (uint32_t fx = ix * scale; fx < (ix + 1) * scale; ++fx) {
        for (RowId r : grid.cell(grid.num_levels() - 1, fy * n + fx).rows) {
          const double x = xc->At(r);
          const double y = yc->At(r);
          EXPECT_TRUE(x >= box.x_lo && x <= box.x_hi && y >= box.y_lo &&
                      y <= box.y_hi)
              << "interior cell (" << level << "," << index
              << ") holds non-matching row " << r << " at (" << x << "," << y
              << ")";
        }
      }
    }
  }

  auto rows = grid.GatherRangeRows(f.ctx, box);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const std::vector<RowId> truth = LatticeOracle(*f.table, box);
  EXPECT_EQ(*rows, truth);

  auto answer = grid.RangeQuery(f.ctx, box);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->raw_count, truth.size());
}

TEST(SpatialDiff, BoundsExactlyOnCellEdgesClassifyConsistently) {
  LatticeFixture f(7);
  auto grid = SpatialGrid::Build(f.ctx, f.opts, nullptr);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();

  // Sweep every edge value k/16 as a low bound, a high bound, and both
  // (width exactly one, two, four cells) — rows sit ON those edges.
  for (int k = 0; k <= 16; ++k) {
    const double e = k / 16.0;
    CheckEdgeBox(f, *grid, {e, 1.0, 0.0, 1.0});
    CheckEdgeBox(f, *grid, {0.0, e, 0.0, 1.0});
    CheckEdgeBox(f, *grid, {0.0, 1.0, e, 1.0});
    CheckEdgeBox(f, *grid, {0.0, 1.0, 0.0, e});
    if (k + 4 <= 16) {
      CheckEdgeBox(f, *grid, {e, e + 4 / 16.0, e, e + 4 / 16.0});
    }
    if (k + 1 <= 16) {
      CheckEdgeBox(f, *grid, {e, e + 1 / 16.0, 0.25, 0.75});
    }
  }
}

TEST(SpatialDiff, PinnedExtentAndDegenerateBoxesClassifyConsistently) {
  LatticeFixture f(11);
  auto grid = SpatialGrid::Build(f.ctx, f.opts, nullptr);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();

  // Bounds pinned exactly to the data extent (the sentinel branch in
  // Decompose), hanging past it, and unbounded.
  CheckEdgeBox(f, *grid, {0.0, 1.0, 0.0, 1.0});
  CheckEdgeBox(f, *grid, {-kInf, kInf, -kInf, kInf});
  CheckEdgeBox(f, *grid, {0.0, 1.5, -0.5, 1.0});
  CheckEdgeBox(f, *grid, {1.0, 1.0, 0.0, 1.0});  // sliver ON extent max
  CheckEdgeBox(f, *grid, {0.0, 0.0, 0.0, 1.0});  // sliver ON extent min
  CheckEdgeBox(f, *grid, {1.0, 2.0, 0.0, 1.0});  // starts AT extent max

  // Point boxes lo == hi exactly on cell corners (lattice rows live
  // there, so a misclassified corner drops or duplicates real rows).
  for (int k = 0; k <= 16; k += 4) {
    const double e = k / 16.0;
    CheckEdgeBox(f, *grid, {e, e, e, e});
    CheckEdgeBox(f, *grid, {e, e, 0.0, 1.0});
  }

  // Disjoint-from-extent boxes must come back empty, not crash.
  CheckEdgeBox(f, *grid, {2.0, 3.0, 0.0, 1.0});
  CheckEdgeBox(f, *grid, {-3.0, -2.0, -3.0, -2.0});
}

/// A zero-width axis (every row at the same x) degenerates the extent:
/// cell width 0, AxisIndex collapses to 0. Classification must still be
/// consistent — everything lands in the edge column and the closed
/// re-filter keeps answers exact.
TEST(SpatialDiff, ZeroWidthExtentAxisStaysConsistent) {
  Schema schema({{"x", DataType::kDouble},
                 {"y", DataType::kDouble},
                 {"value", DataType::kDouble}});
  Table table(schema);
  Rng rng(91);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(table
                    .AppendRow({Value(0.5), Value(i / 200.0),
                                Value(rng.UniformDouble(-1.0, 1.0))})
                    .ok());
  }
  auto loss = MakeLoss("mean_loss");
  std::vector<RowId> ref_rows;
  for (RowId r = 0; r < 64; ++r) ref_rows.push_back(r);
  SpatialGrid::Context ctx;
  ctx.table = &table;
  ctx.loss = loss.get();
  ctx.threshold = 0.08;
  ctx.sampler.seed = 91;
  ctx.ref = DatasetView(&table, ref_rows);
  SpatialGridOptions opts;
  opts.x_column = "x";
  opts.y_column = "y";
  opts.levels = 4;
  auto grid = SpatialGrid::Build(ctx, opts, nullptr);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();

  const SpatialGrid::ResolvedBBox boxes[] = {
      {0.5, 0.5, 0.0, 1.0},    // point axis ON the collapsed extent
      {0.5, 0.5, 0.25, 0.75},  // plus an interior y window
      {0.4, 0.6, 0.0, 0.5},    // straddles the collapsed extent
      {0.6, 0.7, 0.0, 1.0},    // strictly past it: empty
      {-kInf, kInf, 0.5, 0.5},
  };
  for (const auto& box : boxes) {
    auto rows = grid->GatherRangeRows(ctx, box);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(*rows, LatticeOracle(table, box))
        << "box=[" << box.x_lo << "," << box.x_hi << "]x[" << box.y_lo << ","
        << box.y_hi << "]";
  }
}

}  // namespace
}  // namespace tabula
