/// Request-handling parity across shard counts, run under `ctest -L
/// shard`: the plain engine (K = 1) and the sharded engine (K ∈ {2, 4})
/// share one request path, so for every request kind they must return
/// the same status code and message, and the same `stale`,
/// `empty_cell`, `generation` and `from_local_sample` tags.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "engine_at_k.h"
#include "loss/loss_registry.h"

namespace tabula {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4};

std::unique_ptr<Table> MakeTable(uint64_t seed, size_t rows) {
  SyntheticGeneratorOptions gen;
  gen.seed = seed;
  gen.num_rows = rows;
  return SyntheticGenerator(gen).Generate();
}

std::vector<std::string> CubedAttributes() {
  return SyntheticGenerator(SyntheticGeneratorOptions{}).CategoricalColumns();
}

ShardedTabulaOptions MakeOptions(size_t k, size_t levels) {
  LossParams params;
  params.columns = {"value"};
  auto loss = MakeLossFunction("mean_loss", params);
  EXPECT_TRUE(loss.ok()) << loss.status().ToString();
  ShardedTabulaOptions o;
  o.base.cubed_attributes = CubedAttributes();
  o.base.owned_loss = std::shared_ptr<const LossFunction>(
      std::move(loss).value());
  o.base.threshold = 0.05;
  o.base.spatial.x_column = "x";
  o.base.spatial.y_column = "y";
  o.base.spatial.levels = levels;
  o.num_shards = k;
  return o;
}

/// Everything the shared request path decides, in one comparable line.
std::string Outcome(const Result<QueryResponse>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  const TabulaQueryResult& a = r.value().result;
  return "ok local=" + std::to_string(a.from_local_sample) +
         " empty=" + std::to_string(a.empty_cell) +
         " stale=" + std::to_string(a.stale) +
         " generation=" + std::to_string(a.generation);
}

QueryRequest Request(std::vector<PredicateTerm> where, bool bbox) {
  QueryRequest request(std::move(where));
  if (bbox) {
    request.range.bounds.push_back(SpatialBound{"x", 0.0, 0.5});
    request.range.bounds.push_back(SpatialBound{"y", 0.25, 1.0});
  }
  return request;
}

TEST(EngineParity, EveryRequestKindAnswersAlikeAtEveryK) {
  auto table = MakeTable(/*seed=*/17, 600);
  std::vector<EngineAtK> gridded, plain;
  for (size_t k : kShardCounts) {
    auto g = EngineAtK::Initialize(*table, MakeOptions(k, 3));
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    gridded.push_back(std::move(g).value());
    auto p = EngineAtK::Initialize(*table, MakeOptions(k, 0));
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    plain.push_back(std::move(p).value());
  }

  // One iceberg and one non-iceberg cell, as the K = 1 engine sees them
  // (the merged iceberg set equals the single-instance one).
  const std::vector<std::string> attrs = CubedAttributes();
  WorkloadOptions wopt;
  wopt.num_queries = 200;
  wopt.seed = 5;
  auto workload = GenerateWorkload(*table, attrs, wopt);
  ASSERT_TRUE(workload.ok());
  std::vector<PredicateTerm> iceberg, non_iceberg;
  for (const WorkloadQuery& q : workload.value()) {
    if (q.where.empty()) continue;
    auto r = gridded[0]->Query(QueryRequest(q.where));
    ASSERT_TRUE(r.ok());
    if (r.value().result.from_local_sample && iceberg.empty()) {
      iceberg = q.where;
    } else if (!r.value().result.from_local_sample && non_iceberg.empty()) {
      non_iceberg = q.where;
    }
  }
  ASSERT_FALSE(iceberg.empty());
  ASSERT_FALSE(non_iceberg.empty());

  struct Kind {
    std::string name;
    QueryRequest request;
    bool on_plain = false;  // run against the grid-less engines
  };
  const std::string cubed = attrs[0];
  std::vector<Kind> kinds = {
      {"unknown attribute", Request({{"no_such_column", CompareOp::kEq, int64_t{1}}},
                                    false)},
      {"non-cubed attribute",
       Request({{"value", CompareOp::kEq, 1.0}}, false)},
      {"provably empty value",
       Request({{cubed, CompareOp::kEq, "never-seen"}}, false)},
      {"non-iceberg cell", Request(non_iceberg, false)},
      {"iceberg cell", Request(iceberg, false)},
      {"bbox without a grid", Request({}, true), /*on_plain=*/true},
      {"bbox overlapping an equality term",
       Request({{"x", CompareOp::kEq, 0.5}}, true)},
      {"pure bbox", Request({}, true)},
      {"hybrid bbox", Request({iceberg[0]}, true)},
      {"hybrid bbox, provably empty",
       Request({{cubed, CompareOp::kEq, "never-seen"}}, true)},
  };

  auto check_all = [&](const std::string& phase) {
    for (const Kind& kind : kinds) {
      const std::vector<EngineAtK>& engines = kind.on_plain ? plain : gridded;
      const std::string want = Outcome(engines[0]->Query(kind.request));
      for (size_t i = 1; i < engines.size(); ++i) {
        EXPECT_EQ(Outcome(engines[i]->Query(kind.request)), want)
            << phase << ", " << kind.name << ", K=" << kShardCounts[i];
      }
    }
  };
  check_all("fresh");

  // Pending rows: an appended copy of an existing row (no new attribute
  // value, so no full rebuild). Before BeginIngest every answer is
  // conservatively stale; after it the dirty set decides per cell.
  auto donor = MakeTable(/*seed=*/17, 600);
  ASSERT_TRUE(table->AppendRowFrom(*donor, 0).ok());
  check_all("rows pending");
  std::vector<std::unique_ptr<QueryEngine::IngestPlan>> plans;
  for (auto* engines : {&gridded, &plain}) {
    for (EngineAtK& e : *engines) {
      auto plan = e->PlanIngest();
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      e->BeginIngest(plan.value().get());
      plans.push_back(std::move(plan).value());
    }
  }
  // The appended row's own finest cell is dirty at every K.
  std::vector<PredicateTerm> touched;
  for (const std::string& a : attrs) {
    auto column = table->ColumnByName(a);
    ASSERT_TRUE(column.ok());
    touched.push_back({a, CompareOp::kEq, column.value()->GetValue(0)});
  }
  kinds.push_back({"cell touched by pending rows", Request(touched, false)});
  check_all("after BeginIngest");
  EXPECT_TRUE(gridded[0]->Query(Request(touched, false)).value().result.stale);

  // Committing the cycle clears the dirty set and bumps the generation
  // alike on every engine.
  size_t next = 0;
  for (auto* engines : {&gridded, &plain}) {
    for (EngineAtK& e : *engines) {
      std::unique_ptr<QueryEngine::IngestPlan>& plan = plans[next++];
      ASSERT_TRUE(e->ExecuteIngest(plan.get()).ok());
      ASSERT_TRUE(e->CommitIngest(std::move(plan)).ok());
      EXPECT_EQ(e->generation(), 1u);
    }
  }
  check_all("committed");
}

}  // namespace
}  // namespace tabula
