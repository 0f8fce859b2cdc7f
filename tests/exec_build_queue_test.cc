/// Determinism and differential suite for the cube build's work queue
/// (DESIGN.md §11 "One largest-first work queue"): the real run draws
/// every iceberg cell's sample in one largest-first pass and SamGraph
/// steals one vertex at a time, so the heat-map cube and its edges must
/// stay identical at any pool width; nested parallel calls made from a
/// caller's own drain run inline; and the cell-contiguous min-distance
/// evaluator must be bit-equal to the point-list oracle along a greedy
/// run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cube/dry_run.h"
#include "cube/lattice.h"
#include "cube/real_run.h"
#include "data/taxi_gen.h"
#include "exec/key_encoder.h"
#include "loss/min_dist_loss.h"
#include "sampling/random_sampler.h"
#include "selection/samgraph.h"
#include "storage/table.h"
#include "testing/reference_min_dist.h"

namespace tabula {
namespace {

struct PoolOverride {
  explicit PoolOverride(size_t threads) : pool(threads) {
    ThreadPool::SetGlobalForTest(&pool);
  }
  ~PoolOverride() { ThreadPool::SetGlobalForTest(nullptr); }
  ThreadPool pool;
};

// ---------- Nested parallel calls from the caller's drain ----------

TEST(ThreadPoolNestingTest, NestedCallFromCallerDrainRunsInline) {
  // Two workers each block in an outer unit until the caller's nested
  // loop returns (or a generous timeout passes). With three outer units
  // the caller always drains at least one. Its nested ParallelForChunked
  // must run every chunk on the calling thread without waiting on helper
  // tasks queued behind the blocked workers.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable cv;
  bool nested_done = false;
  std::atomic<size_t> released_by_timeout{0};
  std::atomic<size_t> nested_chunks{0};
  std::atomic<size_t> chunks_off_caller{0};
  pool.ParallelForGrains(
      3,
      [&](size_t, size_t, size_t) {
        if (std::this_thread::get_id() != caller) {
          std::unique_lock<std::mutex> lock(mu);
          if (!cv.wait_for(lock, std::chrono::seconds(10),
                           [&] { return nested_done; })) {
            released_by_timeout.fetch_add(1);
          }
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          if (nested_done) return;  // one nested call is enough
        }
        pool.ParallelForChunked(100, [&](size_t, size_t, size_t) {
          nested_chunks.fetch_add(1);
          if (std::this_thread::get_id() != caller) {
            chunks_off_caller.fetch_add(1);
          }
        });
        {
          std::lock_guard<std::mutex> lock(mu);
          nested_done = true;
        }
        cv.notify_all();
      },
      /*grain_rows=*/1);
  EXPECT_TRUE(nested_done);
  EXPECT_EQ(nested_chunks.load(), 1u) << "a nested call runs as one chunk";
  EXPECT_EQ(chunks_off_caller.load(), 0u);
  EXPECT_EQ(released_by_timeout.load(), 0u)
      << "the nested call waited for the outer loop's workers";

  // The marker is restored once the caller's drain ends: a top-level call
  // afterwards fans out again.
  std::atomic<size_t> chunks{0};
  pool.ParallelForChunked(100, [&](size_t, size_t, size_t) {
    chunks.fetch_add(1);
  });
  EXPECT_EQ(chunks.load(), 2u);
}

// ---------- Real-run cube and SamGraph edges across pool widths ------

struct BuildBytes {
  std::vector<uint64_t> keys;
  std::vector<CuboidMask> cuboids;
  std::vector<std::vector<RowId>> raw_rows;
  std::vector<std::vector<RowId>> samples;
  std::vector<CuboidMask> per_cuboid_masks;
  std::vector<size_t> per_cuboid_cells;
  std::vector<bool> per_cuboid_join;
  size_t local_sample_tuples = 0;
  std::vector<std::vector<uint32_t>> out_edges;
  size_t loss_evaluations = 0;

  bool operator==(const BuildBytes& o) const {
    return keys == o.keys && cuboids == o.cuboids &&
           raw_rows == o.raw_rows && samples == o.samples &&
           per_cuboid_masks == o.per_cuboid_masks &&
           per_cuboid_cells == o.per_cuboid_cells &&
           per_cuboid_join == o.per_cuboid_join &&
           local_sample_tuples == o.local_sample_tuples &&
           out_edges == o.out_edges && loss_evaluations == o.loss_evaluations;
  }
};

BuildBytes BuildHeatmap(const Table& table, size_t max_candidates) {
  BuildBytes out;
  const std::vector<std::string> attrs = {"vendor_name", "pickup_weekday",
                                          "passenger_count"};
  auto enc = KeyEncoder::Make(table, attrs);
  EXPECT_TRUE(enc.ok()) << enc.status().ToString();
  auto packer = KeyPacker::Make(*enc, {0, 1, 2});
  EXPECT_TRUE(packer.ok()) << packer.status().ToString();
  Lattice lattice(3);
  auto loss = MakeHeatmapLoss("pickup_x", "pickup_y");
  const double theta = 0.5 * kNormalizedUnitsPerKm;
  Rng rng(3);
  std::vector<RowId> global_rows = RandomSample(DatasetView(&table), 150, &rng);
  DatasetView global(&table, global_rows);

  auto dry = RunDryRun(DatasetView(&table), *enc, *packer, lattice, *loss,
                       global, theta);
  EXPECT_TRUE(dry.ok()) << dry.status().ToString();
  GreedySamplerOptions opts;
  opts.max_candidates = max_candidates;
  auto real = RunRealRun(DatasetView(&table), *enc, *packer, *dry, *loss,
                         theta, opts);
  EXPECT_TRUE(real.ok()) << real.status().ToString();
  for (const IcebergCell& cell : real->cube.cells()) {
    out.keys.push_back(cell.key);
    out.cuboids.push_back(cell.cuboid);
    out.raw_rows.push_back(cell.raw_rows);
    out.samples.push_back(cell.local_sample);
  }
  for (const CuboidRealRunInfo& info : real->per_cuboid) {
    out.per_cuboid_masks.push_back(info.mask);
    out.per_cuboid_cells.push_back(info.iceberg_cells);
    out.per_cuboid_join.push_back(info.used_join_path);
  }
  out.local_sample_tuples = real->local_sample_tuples;

  SamGraphOptions graph_opts;
  graph_opts.max_candidates_per_vertex = 8;
  auto graph = SamGraph::Build(table, real->cube, *loss, theta, graph_opts);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  for (uint32_t u = 0; u < graph->num_vertices(); ++u) {
    out.out_edges.push_back(graph->OutEdges(u));
  }
  out.loss_evaluations = graph->loss_evaluations();
  return out;
}

TEST(BuildQueueDeterminismTest, HeatmapCubeAndEdgesIdenticalAcrossWidths) {
  TaxiGeneratorOptions gen;
  gen.num_rows = 3000;
  auto table = TaxiGenerator(gen).Generate();
  // The default candidate cap keeps every scan serial; an uncapped pool
  // sends cells past 1024 rows through the nested parallel scan, which
  // the caller's own drain now runs inline.
  for (size_t max_candidates : {size_t{1024}, size_t{0}}) {
    BuildBytes reference;
    {
      PoolOverride o(1);
      reference = BuildHeatmap(*table, max_candidates);
    }
    ASSERT_GT(reference.keys.size(), 8u) << "workload must have iceberg cells";
    // Cube order is cuboid order (as per_cuboid lists them), then
    // ascending key — not the largest-first claim order.
    size_t cuboid = 0;
    for (size_t i = 0; i < reference.keys.size(); ++i) {
      while (cuboid < reference.per_cuboid_masks.size() &&
             reference.per_cuboid_masks[cuboid] != reference.cuboids[i]) {
        ++cuboid;
      }
      ASSERT_LT(cuboid, reference.per_cuboid_masks.size()) << "cell " << i;
      if (i > 0 && reference.cuboids[i - 1] == reference.cuboids[i]) {
        ASSERT_LT(reference.keys[i - 1], reference.keys[i]) << "cell " << i;
      }
    }
    size_t largest = 0;
    for (const auto& rows : reference.raw_rows) {
      largest = std::max(largest, rows.size());
    }
    if (max_candidates == 0) {
      EXPECT_GT(largest, 1024u) << "no cell reaches the nested scan";
    }
    for (size_t threads : {size_t{3}, size_t{8}}) {
      PoolOverride o(threads);
      BuildBytes got = BuildHeatmap(*table, max_candidates);
      EXPECT_TRUE(got == reference)
          << "threads=" << threads << " max_candidates=" << max_candidates;
    }
  }
}

// ---------- Cell-contiguous evaluator vs the point-list oracle --------

std::unique_ptr<Table> PointsTable(const std::vector<Point>& pts) {
  Schema schema({{"x", DataType::kDouble}, {"y", DataType::kDouble}});
  auto table = std::make_unique<Table>(schema);
  for (const Point& p : pts) {
    EXPECT_TRUE(table->AppendRow({Value(p.x), Value(p.y)}).ok());
  }
  return table;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Runs exhaustive greedy on both evaluators side by side: every
/// candidate's LossWithCandidate, and CurrentLoss / InternalLoss after
/// every Add, must be bit-equal. Stops at `theta` or after `max_rounds`.
void ExpectGreedyBitEqual(const std::string& label,
                          const std::vector<Point>& pts,
                          const LossFunction& loss, DistanceMetric metric,
                          double theta, size_t max_rounds) {
  SCOPED_TRACE(label);
  auto table = PointsTable(pts);
  auto fast = loss.MakeGreedyEvaluator(DatasetView(table.get()));
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  GreedyLossEvaluator& got = **fast;
  std::vector<Point> oracle_pts = pts;
  if (loss.InputColumns().size() == 1) {
    for (Point& p : oracle_pts) p.y = 0.0;
  }
  auto oracle = MakeReferenceMinDistEvaluator(oracle_pts, metric);
  ASSERT_EQ(got.raw_size(), oracle->raw_size());
  const size_t n = got.raw_size();
  ASSERT_TRUE(BitEqual(got.CurrentLoss(), oracle->CurrentLoss()));
  ASSERT_TRUE(BitEqual(got.InternalLoss(), oracle->InternalLoss()));
  std::vector<char> chosen(n, 0);
  for (size_t round = 0; round < max_rounds && got.CurrentLoss() > theta;
       ++round) {
    size_t best = n;
    double best_loss = kInfiniteLoss;
    for (size_t c = 0; c < n; ++c) {
      if (chosen[c]) continue;
      const double a = got.LossWithCandidate(c);
      const double b = oracle->LossWithCandidate(c);
      ASSERT_TRUE(BitEqual(a, b))
          << "round " << round << " candidate " << c << ": " << a << " vs "
          << b;
      if (a < best_loss || best == n) {
        best_loss = a;
        best = c;
      }
    }
    if (best == n) break;
    got.Add(best);
    oracle->Add(best);
    chosen[best] = 1;
    ASSERT_TRUE(BitEqual(got.CurrentLoss(), oracle->CurrentLoss()))
        << "round " << round;
    ASSERT_TRUE(BitEqual(got.InternalLoss(), oracle->InternalLoss()))
        << "round " << round;
  }
}

std::vector<Point> RandomPoints(size_t n, uint64_t seed, double scale) {
  Rng rng(seed);
  std::vector<Point> pts(n);
  for (Point& p : pts) {
    p = {rng.UniformDouble(0, 1) * scale, rng.UniformDouble(0, 1) * scale};
  }
  return pts;
}

TEST(MinDistKernelDiffTest, BitEqualToPointListOracleAlongGreedyRun) {
  auto heatmap = MakeHeatmapLoss("x", "y");
  auto manhattan =
      MakeHeatmapLoss("x", "y", DistanceMetric::kManhattan);
  auto histogram = MakeHistogramLoss("x");
  const auto kEuclid = DistanceMetric::kEuclidean;

  ExpectGreedyBitEqual("random", RandomPoints(600, 1, 1.0), *heatmap,
                       kEuclid, 0.0, 80);

  // Clustered: most points in a few tight blobs, a sparse background.
  {
    Rng rng(2);
    std::vector<Point> pts = RandomPoints(100, 3, 1.0);
    for (int blob = 0; blob < 4; ++blob) {
      const double cx = rng.UniformDouble(0, 1);
      const double cy = rng.UniformDouble(0, 1);
      for (int i = 0; i < 120; ++i) {
        pts.push_back({cx + rng.UniformDouble(-1e-3, 1e-3),
                       cy + rng.UniformDouble(-1e-3, 1e-3)});
      }
    }
    ExpectGreedyBitEqual("clustered", pts, *heatmap, kEuclid, 0.0, 60);
  }

  // Duplicates: exact repeats give zero distances and zero gains.
  {
    std::vector<Point> base = RandomPoints(12, 4, 1.0);
    std::vector<Point> pts;
    for (int rep = 0; rep < 20; ++rep) {
      pts.insert(pts.end(), base.begin(), base.end());
    }
    ExpectGreedyBitEqual("duplicates", pts, *heatmap, kEuclid, 0.0, 20);
    ExpectGreedyBitEqual("single point",
                         std::vector<Point>(50, Point{0.25, 0.75}), *heatmap,
                         kEuclid, 0.0, 5);
  }

  // A zero-width axis: every x equal, so the grid collapses to a column.
  {
    std::vector<Point> pts = RandomPoints(300, 5, 1.0);
    for (Point& p : pts) p.x = 0.5;
    ExpectGreedyBitEqual("zero-width x", pts, *heatmap, kEuclid, 0.0, 40);
  }

  // Coordinates near 1e-162: squared distances underflow to zero or a
  // few subnormal steps, outside the sqrt skip's relative-error bound.
  ExpectGreedyBitEqual("subnormal squares", RandomPoints(200, 6, 1e-162),
                       *heatmap, kEuclid, 0.0, 30);

  // Near-ties: a jittered lattice makes many distances differ from a
  // point's current min-distance by a relative 1e-9 down to 1e-14, the
  // band a too-loose sqrt skip would get wrong.
  for (double jitter : {1e-11, 1e-16}) {
    Rng rng(10);
    std::vector<Point> pts;
    for (int i = 0; i < 20; ++i) {
      for (int j = 0; j < 20; ++j) {
        pts.push_back({0.01 * i + rng.UniformDouble(-jitter, jitter),
                       0.01 * j + rng.UniformDouble(-jitter, jitter)});
      }
    }
    ExpectGreedyBitEqual("near-tie lattice", pts, *heatmap, kEuclid, 0.0, 60);
  }

  ExpectGreedyBitEqual("manhattan", RandomPoints(400, 7, 1.0), *manhattan,
                       DistanceMetric::kManhattan, 0.0, 60);
  ExpectGreedyBitEqual("histogram 1-D", RandomPoints(500, 8, 100.0),
                       *histogram, kEuclid, 0.0, 60);

  // Sizes around the grid's shape changes (1 point, perfect squares).
  for (size_t n : {size_t{1}, size_t{2}, size_t{4}, size_t{15}, size_t{16},
                   size_t{17}}) {
    ExpectGreedyBitEqual("n=" + std::to_string(n), RandomPoints(n, 9 + n, 1.0),
                         *heatmap, kEuclid, 0.0, n);
  }
}

}  // namespace
}  // namespace tabula
