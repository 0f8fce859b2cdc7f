/// Differential suite for the SamGraph join (DESIGN.md §11 "SamGraph
/// join without raw re-scans"): the production join — one LossState per
/// cell for reference-free losses, sorted 1-D candidate ranking with a
/// tie fallback — must give the same edge sets, adjacency lists, edge
/// test count and representative selection as the reference join in
/// src/testing/ that re-folds raw rows for every edge test, for every
/// built-in loss, capped and uncapped, at pool widths {1, 3, 8}.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/tabula.h"
#include "cube/dry_run.h"
#include "cube/lattice.h"
#include "cube/real_run.h"
#include "data/taxi_gen.h"
#include "exec/key_encoder.h"
#include "loss/loss_registry.h"
#include "loss/mean_loss.h"
#include "loss/min_dist_loss.h"
#include "loss/regression_loss.h"
#include "loss/topk_loss.h"
#include "obs/trace.h"
#include "sampling/random_sampler.h"
#include "selection/rep_selection.h"
#include "selection/samgraph.h"
#include "storage/table.h"
#include "testing/reference_samgraph.h"

namespace tabula {
namespace {

struct PoolOverride {
  explicit PoolOverride(size_t threads) : pool(threads) {
    ThreadPool::SetGlobalForTest(&pool);
  }
  ~PoolOverride() { ThreadPool::SetGlobalForTest(nullptr); }
  ThreadPool pool;
};

/// Self-edge first, then the targets ascending.
std::vector<uint32_t> Canonical(uint32_t u, std::vector<uint32_t> out) {
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(out.front(), u) << "out-list must lead with the self-edge";
  std::sort(out.begin() + 1, out.end());
  return out;
}

void ExpectSameGraph(const SamGraph& got, const SamGraph& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  EXPECT_EQ(got.num_edges(), want.num_edges());
  EXPECT_EQ(got.loss_evaluations(), want.loss_evaluations());
  for (uint32_t u = 0; u < got.num_vertices(); ++u) {
    // The production out-lists are already canonical; the reference's
    // keep its ranked order, so only their membership must agree.
    EXPECT_EQ(got.OutEdges(u), Canonical(u, got.OutEdges(u))) << "u=" << u;
    EXPECT_EQ(got.OutEdges(u), Canonical(u, want.OutEdges(u))) << "u=" << u;
    EXPECT_EQ(got.InEdges(u), want.InEdges(u)) << "v=" << u;
  }
}

struct Selected {
  SelectionResult result;
  std::vector<uint32_t> sample_ids;
  std::vector<std::vector<RowId>> samples;
};

Selected Describe(const SelectionResult& result, const CubeTable& cube,
                  const SampleTable& table) {
  Selected out;
  out.result = result;
  for (const IcebergCell& cell : cube.cells()) {
    out.sample_ids.push_back(cell.sample_id);
  }
  for (uint32_t id = 0; id < table.size(); ++id) {
    out.samples.push_back(table.sample(id));
  }
  return out;
}

void ExpectSameSelection(const Selected& got, const Selected& want) {
  EXPECT_EQ(got.result.representatives, want.result.representatives);
  EXPECT_EQ(got.result.cells_sharing, want.result.cells_sharing);
  EXPECT_EQ(got.result.graph_edges, want.result.graph_edges);
  EXPECT_EQ(got.result.loss_evaluations, want.result.loss_evaluations);
  EXPECT_EQ(got.sample_ids, want.sample_ids);
  EXPECT_EQ(got.samples, want.samples);
}

/// Runs the production join and selection at pool widths {1, 3, 8} and
/// checks both against the reference join (and Algorithm 3 over it).
/// Returns the rank fallbacks, which must not depend on the width.
size_t ExpectMatchesReference(const std::string& label, const Table& table,
                              const CubeTable& cube, const LossFunction& loss,
                              double theta, size_t cap) {
  SCOPED_TRACE(label + " cap=" + std::to_string(cap));
  SamGraphOptions options;
  options.max_candidates_per_vertex = cap;
  auto want = BuildReferenceSamGraph(table, cube, loss, theta, options);
  EXPECT_TRUE(want.ok()) << want.status().ToString();
  if (!want.ok()) return 0;
  Selected want_sel;
  {
    CubeTable copy = cube;
    SampleTable samples;
    auto sel = SelectFromGraph(*want, &copy, &samples);
    EXPECT_TRUE(sel.ok()) << sel.status().ToString();
    if (!sel.ok()) return 0;
    want_sel = Describe(*sel, copy, samples);
  }

  size_t fallbacks = 0;
  for (size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PoolOverride o(threads);
    auto got = SamGraph::Build(table, cube, loss, theta, options);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok()) return 0;
    ExpectSameGraph(*got, *want);
    if (threads == 1) fallbacks = got->rank_fallbacks();
    EXPECT_EQ(got->rank_fallbacks(), fallbacks);
    EXPECT_LE(got->rank_fallbacks(), cube.size());

    CubeTable copy = cube;
    SampleTable samples;
    SelectionOptions sel_options;
    sel_options.graph = options;
    auto sel = SelectRepresentativeSamples(table, loss, theta, sel_options,
                                           &copy, &samples);
    EXPECT_TRUE(sel.ok()) << sel.status().ToString();
    if (!sel.ok()) return 0;
    EXPECT_EQ(sel->rank_fallbacks, fallbacks);
    ExpectSameSelection(Describe(*sel, copy, samples), want_sel);
  }
  return fallbacks;
}

/// Iceberg cells of a taxi table under `loss` at `theta`, from the real
/// dry-run / real-run stages.
CubeTable BuildCube(const Table& table, const LossFunction& loss,
                    double theta) {
  const std::vector<std::string> attrs = {"vendor_name", "pickup_weekday",
                                          "passenger_count", "payment_type"};
  auto enc = KeyEncoder::Make(table, attrs);
  EXPECT_TRUE(enc.ok()) << enc.status().ToString();
  auto packer = KeyPacker::Make(*enc, {0, 1, 2, 3});
  EXPECT_TRUE(packer.ok()) << packer.status().ToString();
  Lattice lattice(attrs.size());
  Rng rng(5);
  std::vector<RowId> global_rows = RandomSample(DatasetView(&table), 60, &rng);
  auto dry = RunDryRun(DatasetView(&table), *enc, *packer, lattice, loss,
                       DatasetView(&table, global_rows), theta);
  EXPECT_TRUE(dry.ok()) << dry.status().ToString();
  GreedySamplerOptions opts;
  auto real = RunRealRun(DatasetView(&table), *enc, *packer, *dry, loss,
                         theta, opts);
  EXPECT_TRUE(real.ok()) << real.status().ToString();
  return std::move(real->cube);
}

class SamGraphDiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TaxiGeneratorOptions gen;
    gen.num_rows = 4000;
    gen.seed = 17;
    table_ = TaxiGenerator(gen).Generate().release();
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  /// Every cap shape: uncapped, ranked (small and default caps), and
  /// the two unranked caps m - 1 and above.
  static void ExpectAllCaps(const std::string& label, const LossFunction& loss,
                            double theta) {
    CubeTable cube = BuildCube(*table_, loss, theta);
    ASSERT_GT(cube.size(), 70u) << label << ": too few iceberg cells";
    for (size_t cap : {size_t{0}, size_t{4}, size_t{64}, cube.size() - 1,
                       cube.size() + 10}) {
      ExpectMatchesReference(label, *table_, cube, loss, theta, cap);
    }
  }

  static Table* table_;
};

Table* SamGraphDiffTest::table_ = nullptr;

TEST_F(SamGraphDiffTest, MeanLossMatchesReference) {
  ExpectAllCaps("mean", MeanLoss("fare_amount"), 0.02);
}

TEST_F(SamGraphDiffTest, RegressionLossMatchesReference) {
  ExpectAllCaps("regression", RegressionLoss("trip_distance", "fare_amount"),
                0.5);
}

TEST_F(SamGraphDiffTest, TopKLossMatchesReference) {
  ExpectAllCaps("topk", TopKLoss("tip_amount", 5), 0.02);
}

TEST_F(SamGraphDiffTest, HeatmapLossMatchesReference) {
  // Reference-dependent with 2-D signatures: the per-edge fold and the
  // full selection stay; only the out-list order is canonicalized.
  auto heatmap = MakeHeatmapLoss("pickup_x", "pickup_y");
  // A loose θ keeps the cube small: every uncapped edge test runs a
  // nearest-neighbour search per raw row.
  ExpectAllCaps("heatmap", *heatmap, 2.0 * kNormalizedUnitsPerKm);
}

// ---------- Hand-built cubes for the ranking's edge cases ----------

/// One DOUBLE column `v` holding `values`.
std::unique_ptr<Table> ValueTable(const std::vector<double>& values) {
  Schema schema({{"v", DataType::kDouble}});
  auto table = std::make_unique<Table>(schema);
  for (double v : values) EXPECT_TRUE(table->AppendRow({Value(v)}).ok());
  return table;
}

/// Appends a cell over rows [first, first + n) of the value table whose
/// local sample is its first row.
void AddCell(CubeTable* cube, RowId first, size_t n) {
  IcebergCell cell;
  cell.key = cube->size();
  for (size_t i = 0; i < n; ++i) cell.raw_rows.push_back(first + i);
  cell.local_sample = {first};
  cube->Add(std::move(cell));
}

TEST(SamGraphRankingTest, TiesAtTheCapFallBackToTheFullSelection) {
  // Ten duplicate cells share one raw signature (mean 100) and sit in a
  // run of distinct cells; each duplicate's sample is a different row,
  // so its ten tied neighbours straddle the cap-th candidate for many
  // caps. The same for a second, wider run of 30 duplicates.
  std::vector<double> values;
  CubeTable cube;
  for (int c = 0; c < 40; ++c) {
    AddCell(&cube, values.size(), 3);
    const double mean = 60.0 + 2.0 * c;
    for (double d : {-1.0, 0.0, 1.0}) values.push_back(mean + d);
  }
  for (int dup = 0; dup < 10; ++dup) {
    AddCell(&cube, values.size(), 4);
    for (double d : {-3.0 + dup * 0.5, 0.0, 1.5, 1.5 - dup * 0.5}) {
      values.push_back(100.0 + d);
    }
  }
  for (int dup = 0; dup < 30; ++dup) {
    AddCell(&cube, values.size(), 2);
    values.push_back(140.0 + (dup % 5));
    values.push_back(140.0 - (dup % 5));
  }
  auto table = ValueTable(values);
  MeanLoss loss("v");
  size_t fallbacks = 0;
  for (size_t cap : {size_t{3}, size_t{5}, size_t{8}, size_t{15},
                     size_t{64}}) {
    fallbacks += ExpectMatchesReference("duplicates", *table, cube, loss,
                                        0.01, cap);
  }
  EXPECT_GT(fallbacks, 0u) << "no vertex tied at the cap boundary";
  // An uncapped and an unranked join never rank, so never fall back.
  EXPECT_EQ(ExpectMatchesReference("duplicates", *table, cube, loss, 0.01, 0),
            0u);
  EXPECT_EQ(ExpectMatchesReference("duplicates", *table, cube, loss, 0.01,
                                   cube.size() - 1),
            0u);
}

TEST(SamGraphRankingTest, NonFiniteSignatureKeepsTheFullSelection) {
  // One cell holds +inf among its raw rows (its sample does not), so its
  // raw signature is infinite and every vertex ranks by nth_element.
  std::vector<double> values;
  CubeTable cube;
  for (int c = 0; c < 30; ++c) {
    AddCell(&cube, values.size(), 3);
    const double mean = 10.0 + (c % 7);
    for (double d : {-0.5, 0.0, 0.5}) values.push_back(mean + d);
  }
  AddCell(&cube, values.size(), 3);
  values.push_back(12.0);
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(12.0);
  auto table = ValueTable(values);
  MeanLoss loss("v");
  for (size_t cap : {size_t{0}, size_t{4}, size_t{12}, cube.size() - 1}) {
    EXPECT_EQ(ExpectMatchesReference("non-finite", *table, cube, loss, 0.05,
                                     cap),
              0u);
  }
}

TEST(SamGraphRankingTest, TinyCubes) {
  auto table = ValueTable({1.0, 2.0, 3.0, 4.0});
  MeanLoss loss("v");
  for (size_t cells : {size_t{1}, size_t{2}, size_t{4}}) {
    CubeTable cube;
    for (size_t c = 0; c < cells; ++c) AddCell(&cube, c, 1);
    for (size_t cap : {size_t{0}, size_t{1}, size_t{2}}) {
      ExpectMatchesReference("tiny " + std::to_string(cells), *table, cube,
                             loss, 0.5, cap);
    }
  }
}

// ---------- Selection span attributes ----------

int64_t IntAttr(const SpanRecord& rec, const std::string& key) {
  const AttrValue* v = rec.FindAttribute(key);
  EXPECT_NE(v, nullptr) << "missing attribute " << key;
  if (v == nullptr || !std::holds_alternative<int64_t>(*v)) return -1;
  return std::get<int64_t>(*v);
}

TEST(SelectionSpanTest, CarriesGraphEdgesEdgeTestsAndRankFallbacks) {
  TaxiGeneratorOptions gen;
  gen.num_rows = 20000;
  gen.seed = 91;
  auto table = TaxiGenerator(gen).Generate();
  auto loss = MakeLossFunction("mean_loss", {.columns = {"fare_amount"}});
  ASSERT_TRUE(loss.ok());
  TabulaOptions options;
  options.cubed_attributes = {"vendor_name", "pickup_weekday",
                              "passenger_count", "payment_type"};
  options.owned_loss = std::move(loss).value();
  options.threshold = 0.02;
  auto tabula = Tabula::Initialize(*table, options);
  ASSERT_TRUE(tabula.ok()) << tabula.status().ToString();
  const TabulaInitStats& stats = tabula.value()->init_stats();
  const SpanRecord* sel = nullptr;
  for (const SpanRecord& rec : tabula.value()->init_trace()) {
    if (rec.name == "tabula.init.selection") sel = &rec;
  }
  ASSERT_NE(sel, nullptr);

  const int64_t m = static_cast<int64_t>(stats.iceberg_cells);
  const int64_t cap = static_cast<int64_t>(
      options.selection.graph.max_candidates_per_vertex);
  ASSERT_GT(m - 1, cap) << "the fixture must rank candidates";
  const int64_t edge_tests = IntAttr(*sel, "edge_tests");
  const int64_t graph_edges = IntAttr(*sel, "graph_edges");
  const int64_t fallbacks = IntAttr(*sel, "rank_fallbacks");
  // Every vertex tests exactly `cap` candidates; every vertex keeps its
  // self-edge; only ranked vertices can fall back.
  EXPECT_EQ(edge_tests, m * cap);
  EXPECT_GE(graph_edges, m);
  EXPECT_LE(graph_edges, m + edge_tests);
  EXPECT_GT(fallbacks, 0) << "taxi cubes repeat cells across cuboids";
  EXPECT_LE(fallbacks, m);
  EXPECT_EQ(IntAttr(*sel, "representatives"),
            static_cast<int64_t>(stats.representative_samples));
}

}  // namespace
}  // namespace tabula
