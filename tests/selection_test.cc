#include <gtest/gtest.h>

#include "common/rng.h"
#include "cube/dry_run.h"
#include "cube/real_run.h"
#include "loss/mean_loss.h"
#include "sampling/random_sampler.h"
#include "selection/rep_selection.h"
#include "selection/samgraph.h"
#include "storage/table.h"

namespace tabula {
namespace {

/// Table with several groups whose distributions come in two families, so
/// samples are highly reusable across iceberg cells.
std::unique_ptr<Table> FamiliesTable(size_t n = 6000, uint64_t seed = 13) {
  Schema schema({{"g1", DataType::kCategorical},
                 {"g2", DataType::kCategorical},
                 {"v", DataType::kDouble}});
  auto table = std::make_unique<Table>(schema);
  Rng rng(seed);
  const char* g1s[] = {"a", "b", "c", "d"};
  const char* g2s[] = {"p", "q", "r"};
  for (size_t i = 0; i < n; ++i) {
    const char* g1 = g1s[rng.UniformInt(0, 3)];
    const char* g2 = g2s[rng.UniformInt(0, 2)];
    // Family 1 (a, b): mean 200. Family 2 (c, d): mean 800.
    double base = (g1[0] == 'a' || g1[0] == 'b') ? 200.0 : 800.0;
    EXPECT_TRUE(
        table->AppendRow({Value(g1), Value(g2), Value(rng.Normal(base, 4.0))})
            .ok());
  }
  return table;
}

struct SelFixture {
  std::unique_ptr<Table> table;
  KeyEncoder encoder;
  KeyPacker packer;
  Lattice lattice{2};
  std::vector<RowId> global_rows;
  CubeTable cube;
  double theta = 0.05;
  MeanLoss loss{"v"};

  SelFixture() : table(FamiliesTable()) {
    auto enc = KeyEncoder::Make(*table, {"g1", "g2"});
    EXPECT_TRUE(enc.ok());
    encoder = std::move(enc).value();
    auto pk = KeyPacker::Make(encoder, {0, 1});
    EXPECT_TRUE(pk.ok());
    packer = std::move(pk).value();
    Rng rng(1);
    DatasetView all(table.get());
    global_rows = RandomSample(all, 400, &rng);

    auto dry = RunDryRun(DatasetView(table.get()), encoder, packer, lattice,
                         loss, DatasetView(table.get(), global_rows), theta);
    EXPECT_TRUE(dry.ok());
    GreedySamplerOptions opts;
    auto real = RunRealRun(DatasetView(table.get()), encoder, packer, lattice,
                           *dry, loss, theta, opts);
    EXPECT_TRUE(real.ok());
    cube = std::move(real->cube);
    EXPECT_GT(cube.size(), 2u);
  }
};

TEST(SamGraphTest, SelfEdgesAlwaysPresent) {
  SelFixture fx;
  SamGraphOptions opts;
  auto graph = SamGraph::Build(*fx.table, fx.cube, fx.loss, fx.theta, opts);
  ASSERT_TRUE(graph.ok());
  for (uint32_t v = 0; v < graph->num_vertices(); ++v) {
    const auto& in = graph->InEdges(v);
    EXPECT_NE(std::find(in.begin(), in.end(), v), in.end());
  }
}

TEST(SamGraphTest, EdgesRespectRepresentationDefinition) {
  SelFixture fx;
  SamGraphOptions opts;
  auto graph = SamGraph::Build(*fx.table, fx.cube, fx.loss, fx.theta, opts);
  ASSERT_TRUE(graph.ok());
  // Definition 5: edge u→v iff loss(raw(v), sample(u)) <= θ.
  for (uint32_t u = 0; u < graph->num_vertices(); ++u) {
    DatasetView sam_u(fx.table.get(), fx.cube.cells()[u].local_sample);
    for (uint32_t v : graph->OutEdges(u)) {
      DatasetView raw_v(fx.table.get(), fx.cube.cells()[v].raw_rows);
      EXPECT_LE(fx.loss.Loss(raw_v, sam_u).value(), fx.theta)
          << "edge " << u << "->" << v;
    }
  }
}

TEST(SamGraphTest, FamiliesShareRepresentatives) {
  SelFixture fx;
  SamGraphOptions opts;
  auto graph = SamGraph::Build(*fx.table, fx.cube, fx.loss, fx.theta, opts);
  ASSERT_TRUE(graph.ok());
  // Cells within the same value family have near-identical distributions,
  // so cross-cell edges must exist.
  EXPECT_GT(graph->num_edges(), graph->num_vertices());
}

TEST(SamGraphTest, CandidateCapBoundsEvaluations) {
  SelFixture fx;
  SamGraphOptions capped;
  capped.max_candidates_per_vertex = 2;
  auto graph = SamGraph::Build(*fx.table, fx.cube, fx.loss, fx.theta, capped);
  ASSERT_TRUE(graph.ok());
  EXPECT_LE(graph->loss_evaluations(), fx.cube.size() * 2);
}

TEST(RepSelectionTest, EveryCellLinksToAValidSample) {
  SelFixture fx;
  SampleTable samples;
  SelectionOptions opts;
  auto sel = SelectRepresentativeSamples(*fx.table, fx.loss, fx.theta, opts,
                                         &fx.cube, &samples);
  ASSERT_TRUE(sel.ok());
  EXPECT_GT(samples.size(), 0u);
  EXPECT_LE(samples.size(), fx.cube.size());
  for (const auto& cell : fx.cube.cells()) {
    ASSERT_NE(cell.sample_id, kInvalidSampleId);
    ASSERT_LT(cell.sample_id, samples.size());
  }
}

TEST(RepSelectionTest, RepresentativesFewerThanCellsWhenSimilar) {
  SelFixture fx;
  SampleTable samples;
  SelectionOptions opts;
  auto sel = SelectRepresentativeSamples(*fx.table, fx.loss, fx.theta, opts,
                                         &fx.cube, &samples);
  ASSERT_TRUE(sel.ok());
  // Two distribution families → far fewer representatives than cells.
  EXPECT_LT(sel->representatives, fx.cube.size());
  EXPECT_GT(sel->cells_sharing, 0u);
}

TEST(RepSelectionTest, BoundedErrorGuaranteeHolds) {
  // THE paper's core guarantee: after selection, the sample linked to any
  // iceberg cell is within θ of that cell's raw data.
  SelFixture fx;
  // Keep raw rows to verify after normalization drops them.
  std::vector<std::vector<RowId>> raw_copy;
  for (const auto& cell : fx.cube.cells()) raw_copy.push_back(cell.raw_rows);

  SampleTable samples;
  SelectionOptions opts;
  auto sel = SelectRepresentativeSamples(*fx.table, fx.loss, fx.theta, opts,
                                         &fx.cube, &samples);
  ASSERT_TRUE(sel.ok());
  for (size_t i = 0; i < fx.cube.size(); ++i) {
    const auto& cell = fx.cube.cells()[i];
    DatasetView raw(fx.table.get(), raw_copy[i]);
    DatasetView sample(fx.table.get(), samples.sample(cell.sample_id));
    EXPECT_LE(fx.loss.Loss(raw, sample).value(), fx.theta) << "cell " << i;
  }
}

TEST(RepSelectionTest, NormalizationDropsRawData) {
  SelFixture fx;
  SampleTable samples;
  SelectionOptions opts;
  ASSERT_TRUE(SelectRepresentativeSamples(*fx.table, fx.loss, fx.theta, opts,
                                          &fx.cube, &samples)
                  .ok());
  EXPECT_EQ(fx.cube.RawDataBytes(), 0u);
}

TEST(RepSelectionTest, PersistAllIsTabulaStar) {
  SelFixture fx;
  size_t cells = fx.cube.size();
  SampleTable samples;
  auto sel = PersistAllSamples(&fx.cube, &samples);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(samples.size(), cells);
  for (const auto& cell : fx.cube.cells()) {
    EXPECT_NE(cell.sample_id, kInvalidSampleId);
  }
}

TEST(RepSelectionTest, SelectionSmallerThanPersistAll) {
  SelFixture fx1;
  SampleTable with_sel;
  SelectionOptions opts;
  ASSERT_TRUE(SelectRepresentativeSamples(*fx1.table, fx1.loss, fx1.theta,
                                          opts, &fx1.cube, &with_sel)
                  .ok());
  SelFixture fx2;
  SampleTable without_sel;
  ASSERT_TRUE(PersistAllSamples(&fx2.cube, &without_sel).ok());
  EXPECT_LT(with_sel.TotalTuples(), without_sel.TotalTuples());
}

TEST(RepSelectionTest, EmptyCubeIsFine) {
  SelFixture fx;
  CubeTable empty;
  SampleTable samples;
  SelectionOptions opts;
  auto sel = SelectRepresentativeSamples(*fx.table, fx.loss, fx.theta, opts,
                                         &empty, &samples);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->representatives, 0u);
}

}  // namespace
}  // namespace tabula
