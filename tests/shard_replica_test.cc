/// Replica groups on the sharded engine: R serving replicas per shard
/// sharing one immutable cube, so which replica answers never changes
/// the bytes of the answer — only who pays the latency and how many
/// failures the shard survives.
///
///  - liveness control: SetReplicaDown/replica_down/HealthyReplicaCount;
///    a sharded engine needs K >= 2 (Initialize and Load refuse fewer);
///  - failover: a failing replica probe (seams `replica.query` and
///    `replica.query.s<k>.r<j>`) falls through to the next replica and
///    the answer stays non-degraded; only when *every* replica of a
///    shard is gone does the answer degrade to the global sample;
///  - EWMA routing: a delay-only fault on one replica raises its
///    latency estimate and the router prefers its peers from then on;
///  - persistence: replica liveness is runtime state — a loaded engine
///    starts with every replica up;
///  - the serving layer never caches degraded answers (regression for
///    ResultCache replaying `unavailable_shards` after recovery).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "loss/loss_registry.h"
#include "serve/query_server.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {
namespace {

struct ReplicaFixture {
  std::unique_ptr<Table> table;
  std::vector<std::string> attrs;
  std::shared_ptr<const LossFunction> loss;
  ShardedTabulaOptions options;
};

ReplicaFixture MakeFixture(size_t shards, size_t replicas) {
  SyntheticGeneratorOptions gen;
  gen.seed = 1217;
  gen.num_rows = 800;
  gen.cell_spread = 1.1;
  gen.noise = 0.1;
  gen.columns.clear();
  for (size_t c = 0; c < 2; ++c) {
    SyntheticColumnSpec col;
    col.name = "c" + std::to_string(c);
    col.cardinality = 3;
    gen.columns.push_back(col);
  }
  SyntheticGenerator generator(gen);
  ReplicaFixture f;
  f.table = generator.Generate();
  f.attrs = generator.CategoricalColumns();

  LossParams params;
  params.columns = {"value"};
  auto loss = MakeLossFunction("mean_loss", params);
  EXPECT_TRUE(loss.ok());
  f.loss = std::shared_ptr<const LossFunction>(std::move(loss).value());

  f.options.base.cubed_attributes = f.attrs;
  f.options.base.owned_loss = f.loss;
  f.options.base.threshold = 0.07;
  f.options.base.seed = 5;
  f.options.num_shards = shards;
  f.options.replicas_per_shard = replicas;
  f.options.partition = ShardPartition::kHash;
  return f;
}

std::vector<WorkloadQuery> Queries(const ReplicaFixture& f, size_t n) {
  WorkloadOptions wopt;
  wopt.num_queries = n;
  wopt.seed = 77;
  auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
  EXPECT_TRUE(qs.ok());
  return std::move(qs).value();
}

TEST(ShardReplicaTest, InitStartsAllReplicasHealthy) {
  auto f = MakeFixture(4, 2);
  auto engine = ShardedTabula::Initialize(*f.table, f.options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value()->replicas_per_shard(), 2u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(engine.value()->HealthyReplicaCount(s), 2u);
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_FALSE(engine.value()->replica_down(s, j));
    }
  }
}

TEST(ShardReplicaTest, InitializeAndLoadRejectFewerThanTwoShards) {
  // A sharded engine needs K >= 2; a single-instance deployment is a
  // plain Tabula, so K = 0 and K = 1 are refused on both entry points.
  auto f = MakeFixture(2, 2);
  auto engine = ShardedTabula::Initialize(*f.table, f.options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::string path =
      (std::filesystem::temp_directory_path() / "tabula_k_lt_2.tbls")
          .string();
  ASSERT_TRUE(engine.value()->Save(path).ok());
  for (size_t k : {size_t{0}, size_t{1}}) {
    ShardedTabulaOptions options = f.options;
    options.num_shards = k;
    auto built = ShardedTabula::Initialize(*f.table, options);
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument)
        << "k=" << k;
    auto loaded = ShardedTabula::Load(*f.table, options, path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "k=" << k;
  }
  std::filesystem::remove(path);
}

TEST(ShardReplicaTest, SetReplicaDownValidatesRange) {
  auto f = MakeFixture(3, 2);
  auto engine = ShardedTabula::Initialize(*f.table, f.options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value()->SetReplicaDown(3, 0, true).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.value()->SetReplicaDown(0, 2, true).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.value()->SetReplicaDown(2, 1, true).ok());
  EXPECT_TRUE(engine.value()->replica_down(2, 1));
  EXPECT_EQ(engine.value()->HealthyReplicaCount(2), 1u);
  EXPECT_TRUE(engine.value()->SetReplicaDown(2, 1, false).ok());
  EXPECT_EQ(engine.value()->HealthyReplicaCount(2), 2u);
}

TEST(ShardReplicaTest, OneReplicaDownEverywhereStaysNonDegraded) {
  auto f = MakeFixture(4, 2);
  auto engine = ShardedTabula::Initialize(*f.table, f.options);
  ASSERT_TRUE(engine.ok());
  auto qs = Queries(f, 12);

  std::vector<std::vector<RowId>> healthy;
  for (const auto& q : qs) {
    auto r = engine.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->result.unavailable_shards.empty());
    healthy.push_back(r->result.sample.ToRowIds());
  }

  for (size_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(engine.value()->SetReplicaDown(s, 0, true).ok());
  }
  for (size_t i = 0; i < qs.size(); ++i) {
    auto r = engine.value()->Query(QueryRequest(qs[i].where));
    ASSERT_TRUE(r.ok());
    // The surviving replica serves the same immutable cube: identical
    // answer, no degradation.
    EXPECT_TRUE(r->result.unavailable_shards.empty());
    EXPECT_EQ(r->result.sample.ToRowIds(), healthy[i]);
  }
}

TEST(ShardReplicaTest, AllReplicasDownDegradesThatShardOnly) {
  auto f = MakeFixture(4, 2);
  auto engine = ShardedTabula::Initialize(*f.table, f.options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->SetReplicaDown(1, 0, true).ok());
  ASSERT_TRUE(engine.value()->SetReplicaDown(1, 1, true).ok());
  EXPECT_EQ(engine.value()->HealthyReplicaCount(1), 0u);

  bool saw_degraded = false;
  for (const auto& q : Queries(f, 12)) {
    auto r = engine.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(r.ok());
    for (uint32_t s : r->result.unavailable_shards) EXPECT_EQ(s, 1u);
    if (!r->result.unavailable_shards.empty()) {
      saw_degraded = true;
      EXPECT_EQ(r->result.shard_error.code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_TRUE(saw_degraded);

  // Revival restores the full answer.
  ASSERT_TRUE(engine.value()->SetReplicaDown(1, 0, false).ok());
  for (const auto& q : Queries(f, 6)) {
    auto r = engine.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->result.unavailable_shards.empty());
  }
}

TEST(ShardReplicaTest, FailedProbeFailsOverWithoutDegrading) {
  ScopedFaultClear clear;
  auto f = MakeFixture(3, 2);
  auto engine = ShardedTabula::Initialize(*f.table, f.options);
  ASSERT_TRUE(engine.ok());
  auto qs = Queries(f, 8);

  std::vector<std::vector<RowId>> clean;
  for (const auto& q : qs) {
    auto r = engine.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(r.ok());
    clean.push_back(r->result.sample.ToRowIds());
  }

  // Exactly one probe fails (the very first); the shard falls over to
  // its second replica and the answer is unchanged.
  FaultSpec spec;
  spec.every_nth = 1;
  spec.max_triggers = 1;
  FaultInjector::Global().Arm("replica.query", spec);
  for (size_t i = 0; i < qs.size(); ++i) {
    auto r = engine.value()->Query(QueryRequest(qs[i].where));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->result.unavailable_shards.empty());
    EXPECT_EQ(r->result.sample.ToRowIds(), clean[i]);
  }
  EXPECT_EQ(FaultInjector::Global().StatsFor("replica.query").triggers, 1u);
  EXPECT_GE(
      engine.value()->metrics().counter("replica_probe_failures").value(),
      1u);
  EXPECT_GE(engine.value()->metrics().counter("replica_failovers").value(),
            1u);
}

TEST(ShardReplicaTest, TargetedSeamKillsOneReplicaPair) {
  ScopedFaultClear clear;
  auto f = MakeFixture(3, 2);
  auto engine = ShardedTabula::Initialize(*f.table, f.options);
  ASSERT_TRUE(engine.ok());
  auto qs = Queries(f, 8);

  // Both replicas of shard 0 fail at their targeted seams: shard 0 is
  // the only one degraded, and only shard 0.
  FaultSpec spec;
  spec.every_nth = 1;
  FaultInjector::Global().Arm("replica.query.s0.r0", spec);
  FaultInjector::Global().Arm("replica.query.s0.r1", spec);
  bool saw_degraded = false;
  for (const auto& q : qs) {
    auto r = engine.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(r.ok());
    for (uint32_t s : r->result.unavailable_shards) EXPECT_EQ(s, 0u);
    saw_degraded |= !r->result.unavailable_shards.empty();
  }
  EXPECT_TRUE(saw_degraded);

  // One targeted seam only: failover absorbs it completely.
  FaultInjector::Global().DisarmAll();
  FaultInjector::Global().Arm("replica.query.s0.r0", spec);
  for (const auto& q : qs) {
    auto r = engine.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->result.unavailable_shards.empty());
  }
}

TEST(ShardReplicaTest, EwmaRoutesAroundSlowReplica) {
  ScopedFaultClear clear;
  auto f = MakeFixture(2, 2);
  auto engine = ShardedTabula::Initialize(*f.table, f.options);
  ASSERT_TRUE(engine.ok());
  auto qs = Queries(f, 10);

  // Shard 0's replica 0 is slow (delay-only: probes still succeed).
  // The first probe pays the delay and raises r0's EWMA; from then on
  // the router prefers the cold/fast replica 1, so the slow seam is
  // hit only a bounded number of times across many queries.
  FaultSpec slow;
  slow.every_nth = 1;
  slow.delay_ms = 20.0;
  slow.fail = false;
  FaultInjector::Global().Arm("replica.query.s0.r0", slow);
  for (const auto& q : qs) {
    auto r = engine.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->result.unavailable_shards.empty());
  }
  auto stats = FaultInjector::Global().StatsFor("replica.query.s0.r0");
  EXPECT_GE(stats.hits, 1u);
  EXPECT_LE(stats.hits, 2u) << "router kept probing the slow replica";
}

TEST(ShardReplicaTest, LoadStartsReplicasUp) {
  auto f = MakeFixture(3, 2);
  auto engine = ShardedTabula::Initialize(*f.table, f.options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->SetReplicaDown(0, 0, true).ok());

  std::string path =
      (std::filesystem::temp_directory_path() / "replica_manifest.bin")
          .string();
  ASSERT_TRUE(engine.value()->Save(path).ok());
  auto loaded = ShardedTabula::Load(*f.table, f.options, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Liveness is runtime state, not cube state: a fresh process starts
  // with every replica serving.
  EXPECT_EQ(loaded.value()->replicas_per_shard(), 2u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(loaded.value()->HealthyReplicaCount(s), 2u);
  }
  for (const auto& q : Queries(f, 4)) {
    auto a = loaded.value()->Query(QueryRequest(q.where));
    auto b = engine.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->result.sample.ToRowIds(), b->result.sample.ToRowIds());
  }
  std::remove(path.c_str());
}

TEST(ShardReplicaTest, DegradedAnswersAreNeverCached) {
  ScopedFaultClear clear;
  auto f = MakeFixture(3, 1);
  auto engine = ShardedTabula::Initialize(*f.table, f.options);
  ASSERT_TRUE(engine.ok());
  QueryServer server(engine.value().get());

  // Pick a query that actually fans out to the shards (an iceberg
  // cell): non-iceberg cells answer from the global sample without
  // touching the `shard.query` seam.
  QueryRequest request;
  bool found_iceberg = false;
  for (const auto& q : Queries(f, 32)) {
    auto probe = engine.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(probe.ok());
    if (probe->result.from_local_sample) {
      request = QueryRequest(q.where);
      found_iceberg = true;
      break;
    }
  }
  ASSERT_TRUE(found_iceberg) << "fixture produced no iceberg cells";

  // First query: one shard fails → degraded answer. It must not enter
  // the result cache (a cache hit would replay `unavailable_shards`
  // long after the shard recovered).
  FaultSpec spec;
  spec.every_nth = 1;
  spec.max_triggers = 1;
  FaultInjector::Global().Arm("shard.query", spec);
  auto degraded = server.Query(request);
  ASSERT_TRUE(degraded.ok());
  ASSERT_FALSE(degraded->result->unavailable_shards.empty());
  EXPECT_FALSE(degraded->cache_hit);
  EXPECT_GE(server.metrics().counter("serve_degraded_results").value(), 1u);

  // The shard has recovered (the fault is exhausted): the same request
  // re-executes — no cache hit — and yields the healthy answer...
  auto recovered = server.Query(request);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->cache_hit);
  EXPECT_TRUE(recovered->result->unavailable_shards.empty());

  // ...which, being healthy, IS cached.
  auto hit = server.Query(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_TRUE(hit->result->unavailable_shards.empty());
}

}  // namespace
}  // namespace tabula
