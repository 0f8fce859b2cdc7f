#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.h"
#include "cube/cost_model.h"
#include "cube/dry_run.h"
#include "cube/lattice.h"
#include "cube/real_run.h"
#include "loss/mean_loss.h"
#include "sampling/random_sampler.h"
#include "storage/table.h"

namespace tabula {
namespace {

/// Small table with a deliberately skewed group so iceberg cells exist:
/// group ("b", *) has values far from the global mean.
std::unique_ptr<Table> SkewedTable(size_t n = 4000, uint64_t seed = 5) {
  Schema schema({{"g1", DataType::kCategorical},
                 {"g2", DataType::kCategorical},
                 {"v", DataType::kDouble}});
  auto table = std::make_unique<Table>(schema);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    bool outlier = rng.Bernoulli(0.08);
    const char* g1 = outlier ? "b" : "a";
    const char* g2 = rng.Bernoulli(0.5) ? "p" : "q";
    double v = outlier ? rng.Normal(500.0, 5.0) : rng.Normal(50.0, 5.0);
    EXPECT_TRUE(table->AppendRow({Value(g1), Value(g2), Value(v)}).ok());
  }
  return table;
}

struct CubeFixture {
  std::unique_ptr<Table> table;
  KeyEncoder encoder;
  KeyPacker packer;
  Lattice lattice{2};
  std::vector<RowId> global_rows;

  explicit CubeFixture(size_t n = 4000) : table(SkewedTable(n)) {
    auto enc = KeyEncoder::Make(*table, {"g1", "g2"});
    EXPECT_TRUE(enc.ok());
    encoder = std::move(enc).value();
    auto pk = KeyPacker::Make(encoder, {0, 1});
    EXPECT_TRUE(pk.ok());
    packer = std::move(pk).value();
    Rng rng(1);
    DatasetView all(table.get());
    global_rows = RandomSample(all, 300, &rng);
  }

  DatasetView GlobalSample() const {
    return DatasetView(table.get(), global_rows);
  }
};

// ---------- Lattice ----------

TEST(LatticeTest, StructureOf3Attributes) {
  Lattice lattice(3);
  EXPECT_EQ(lattice.num_cuboids(), 8u);
  EXPECT_EQ(lattice.finest(), 0b111u);
  EXPECT_EQ(lattice.GroupingList(0b101), (std::vector<size_t>{0, 2}));
  auto parents = lattice.Parents(0b001);
  EXPECT_EQ(parents, (std::vector<CuboidMask>{0b011, 0b101}));
  auto children = lattice.Children(0b011);
  EXPECT_EQ(children, (std::vector<CuboidMask>{0b010, 0b001}));
}

TEST(LatticeTest, TopDownOrderIsByPopcount) {
  Lattice lattice(3);
  auto order = lattice.TopDownOrder();
  EXPECT_EQ(order.front(), 0b111u);
  EXPECT_EQ(order.back(), 0u);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(std::popcount(order[i - 1]), std::popcount(order[i]));
  }
}

TEST(LatticeTest, Labels) {
  std::vector<std::string> names{"D", "C", "M"};
  EXPECT_EQ(Lattice::Label(0b111, names), "D,C,M");
  EXPECT_EQ(Lattice::Label(0b100, names), "M");
  EXPECT_EQ(Lattice::Label(0, names), "All");
}

// ---------- Cost model ----------

TEST(CostModelTest, FewIcebergCellsPreferJoin) {
  // 1 iceberg cell out of 10k cells on a 1M-row table: pruning wins.
  EXPECT_TRUE(PreferJoinPath(1e6, 1.0, 1e4));
}

TEST(CostModelTest, ManyIcebergCellsPreferGroupBy) {
  // Nearly all cells iceberg: the prune pass is pure overhead.
  EXPECT_FALSE(PreferJoinPath(1e6, 9.9e3, 1e4));
}

TEST(CostModelTest, DegenerateInputs) {
  EXPECT_TRUE(PreferJoinPath(1e6, 0.0, 100.0));
  EXPECT_FALSE(PreferJoinPath(1e6, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(IcebergRowFraction(5, 10), 0.5);
  EXPECT_DOUBLE_EQ(IcebergRowFraction(20, 10), 1.0);
  EXPECT_DOUBLE_EQ(IcebergRowFraction(5, 0), 1.0);
}

// ---------- Cube / sample tables ----------

TEST(CubeTableTest, AddFindDrop) {
  CubeTable cube;
  IcebergCell cell;
  cell.key = 42;
  cell.cuboid = 0b01;
  cell.raw_rows = {1, 2, 3};
  cell.local_sample = {1};
  cube.Add(std::move(cell));
  ASSERT_NE(cube.Find(42), nullptr);
  EXPECT_EQ(cube.Find(42)->raw_rows.size(), 3u);
  EXPECT_EQ(cube.Find(7), nullptr);
  EXPECT_GT(cube.RawDataBytes(), 0u);
  cube.DropRawData();
  EXPECT_EQ(cube.RawDataBytes(), 0u);
  EXPECT_GT(cube.MemoryBytes(), 0u);
}

TEST(CubeTableTest, RemoveKeepsIndexConsistent) {
  CubeTable cube;
  for (uint64_t key : {10ull, 20ull, 30ull, 40ull}) {
    IcebergCell cell;
    cell.key = key;
    cell.sample_id = static_cast<uint32_t>(key);
    cube.Add(std::move(cell));
  }
  // Removing from the middle swaps the last cell in; lookups must still
  // find every remaining key.
  EXPECT_TRUE(cube.Remove(20));
  EXPECT_FALSE(cube.Remove(20));
  EXPECT_EQ(cube.size(), 3u);
  EXPECT_EQ(cube.Find(20), nullptr);
  for (uint64_t key : {10ull, 30ull, 40ull}) {
    const IcebergCell* cell = cube.Find(key);
    ASSERT_NE(cell, nullptr) << key;
    EXPECT_EQ(cell->key, key);
    EXPECT_EQ(cell->sample_id, static_cast<uint32_t>(key));
  }
  // Removing the last element and a head element also stays consistent.
  EXPECT_TRUE(cube.Remove(40));
  EXPECT_TRUE(cube.Remove(10));
  EXPECT_EQ(cube.size(), 1u);
  EXPECT_NE(cube.Find(30), nullptr);
}

TEST(SampleTableTest, AddAndMeasure) {
  SampleTable samples;
  uint32_t id0 = samples.Add({1, 2, 3});
  uint32_t id1 = samples.Add({4});
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(samples.TotalTuples(), 4u);
  EXPECT_EQ(samples.sample(id1), (std::vector<RowId>{4}));
  // Tuple-width costing scales linearly.
  EXPECT_GT(samples.MemoryBytes(100), samples.MemoryBytes(4));
}

// ---------- Dry run ----------

TEST(DryRunTest, FindsSkewedIcebergCells) {
  CubeFixture fx;
  MeanLoss loss("v");
  auto dry = RunDryRun(DatasetView(fx.table.get()), fx.encoder, fx.packer,
                       fx.lattice, loss, fx.GlobalSample(), 0.10);
  ASSERT_TRUE(dry.ok());
  // The skewed group ("b") deviates ~10x from the global mean: iceberg
  // cells must exist, and cells dominated by "a" must not all be iceberg.
  EXPECT_GT(dry->total_iceberg_cells, 0u);
  EXPECT_LT(dry->total_iceberg_cells, dry->total_cells);

  // Find the (g1=b, *) cell in the g1 cuboid.
  auto code_b = fx.encoder.CodeForValue(0, Value("b"));
  ASSERT_TRUE(code_b.ok());
  uint64_t key_b = fx.packer.PackCodes({code_b.value(), kNullCode});
  const auto& g1_info = dry->cuboids[0b01];
  EXPECT_NE(std::find(g1_info.iceberg_keys.begin(), g1_info.iceberg_keys.end(),
                      key_b),
            g1_info.iceberg_keys.end());
}

TEST(DryRunTest, CellCountsMatchDataCube) {
  CubeFixture fx;
  MeanLoss loss("v");
  auto dry = RunDryRun(DatasetView(fx.table.get()), fx.encoder, fx.packer,
                       fx.lattice, loss, fx.GlobalSample(), 0.10);
  ASSERT_TRUE(dry.ok());
  // g1 has 2 values, g2 has 2: cuboids have 4, 2, 2, 1 cells.
  EXPECT_EQ(dry->cuboids[0b11].total_cells, 4u);
  EXPECT_EQ(dry->cuboids[0b01].total_cells, 2u);
  EXPECT_EQ(dry->cuboids[0b10].total_cells, 2u);
  EXPECT_EQ(dry->cuboids[0b00].total_cells, 1u);
  EXPECT_EQ(dry->total_cells, 9u);
}

TEST(DryRunTest, RolledUpLossMatchesDirectComputation) {
  CubeFixture fx;
  MeanLoss loss("v");
  // θ chosen so iceberg-ness flips per cell; verify against direct loss.
  double theta = 0.10;
  auto dry = RunDryRun(DatasetView(fx.table.get()), fx.encoder, fx.packer,
                       fx.lattice, loss, fx.GlobalSample(), theta);
  ASSERT_TRUE(dry.ok());

  // For every cuboid and every cell, recompute loss(cell, global) directly
  // and check iceberg classification.
  for (CuboidMask mask = 0; mask < 4; ++mask) {
    GroupedRows groups = fx.lattice.GroupingList(mask).empty()
                             ? GroupedRows{}
                             : GroupedRows{};
    // Direct per-row partition under this mask.
    std::unordered_map<uint64_t, std::vector<RowId>> cells;
    for (RowId r = 0; r < fx.table->num_rows(); ++r) {
      cells[fx.packer.PackRowMasked(fx.encoder, r, mask)].push_back(r);
    }
    std::unordered_set<uint64_t> iceberg(dry->cuboids[mask].iceberg_keys.begin(),
                                         dry->cuboids[mask].iceberg_keys.end());
    for (const auto& [key, rows] : cells) {
      DatasetView cell_view(fx.table.get(), rows);
      double direct = loss.Loss(cell_view, fx.GlobalSample()).value();
      EXPECT_EQ(iceberg.count(key) > 0, direct > theta)
          << "mask=" << mask << " key=" << key << " direct=" << direct;
    }
  }
}

TEST(DryRunTest, LowerThresholdMoreIcebergCells) {
  CubeFixture fx;
  MeanLoss loss("v");
  auto strict = RunDryRun(DatasetView(fx.table.get()), fx.encoder, fx.packer,
                          fx.lattice, loss, fx.GlobalSample(), 0.001);
  auto loose = RunDryRun(DatasetView(fx.table.get()), fx.encoder, fx.packer,
                         fx.lattice, loss, fx.GlobalSample(), 0.5);
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(loose.ok());
  EXPECT_GE(strict->total_iceberg_cells, loose->total_iceberg_cells);
}

// ---------- Real run ----------

TEST(RealRunTest, MaterializesSamplesForAllIcebergCells) {
  CubeFixture fx;
  MeanLoss loss("v");
  double theta = 0.10;
  auto dry = RunDryRun(DatasetView(fx.table.get()), fx.encoder, fx.packer,
                       fx.lattice, loss, fx.GlobalSample(), theta);
  ASSERT_TRUE(dry.ok());
  GreedySamplerOptions opts;
  auto real = RunRealRun(DatasetView(fx.table.get()), fx.encoder, fx.packer,
                         *dry, loss, theta, opts);
  ASSERT_TRUE(real.ok());
  EXPECT_EQ(real->cube.size(), dry->total_iceberg_cells);
  for (const auto& cell : real->cube.cells()) {
    EXPECT_FALSE(cell.raw_rows.empty());
    ASSERT_FALSE(cell.local_sample.empty());
    // Guarantee: each local sample is within θ of its cell's raw data.
    DatasetView raw(fx.table.get(), cell.raw_rows);
    DatasetView sample(fx.table.get(), cell.local_sample);
    EXPECT_LE(loss.Loss(raw, sample).value(), theta);
  }
}

TEST(RealRunTest, SkipsNonIcebergCuboids) {
  CubeFixture fx;
  MeanLoss loss("v");
  auto dry = RunDryRun(DatasetView(fx.table.get()), fx.encoder, fx.packer,
                       fx.lattice, loss, fx.GlobalSample(), 0.10);
  ASSERT_TRUE(dry.ok());
  GreedySamplerOptions opts;
  auto real = RunRealRun(DatasetView(fx.table.get()), fx.encoder, fx.packer,
                         *dry, loss, 0.10, opts);
  ASSERT_TRUE(real.ok());
  size_t iceberg_cuboids = 0;
  for (const auto& info : dry->cuboids) {
    if (!info.iceberg_keys.empty()) ++iceberg_cuboids;
  }
  EXPECT_EQ(real->per_cuboid.size(), iceberg_cuboids);
}

TEST(RealRunTest, CellRawRowsMatchPartition) {
  CubeFixture fx(1000);
  MeanLoss loss("v");
  auto dry = RunDryRun(DatasetView(fx.table.get()), fx.encoder, fx.packer,
                       fx.lattice, loss, fx.GlobalSample(), 0.05);
  ASSERT_TRUE(dry.ok());
  GreedySamplerOptions opts;
  auto real = RunRealRun(DatasetView(fx.table.get()), fx.encoder, fx.packer,
                         *dry, loss, 0.05, opts);
  ASSERT_TRUE(real.ok());
  for (const auto& cell : real->cube.cells()) {
    // Recompute the cell's member rows directly.
    std::vector<RowId> expected;
    for (RowId r = 0; r < fx.table->num_rows(); ++r) {
      if (fx.packer.PackRowMasked(fx.encoder, r, cell.cuboid) == cell.key) {
        expected.push_back(r);
      }
    }
    std::vector<RowId> got = cell.raw_rows;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace tabula
