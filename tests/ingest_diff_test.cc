/// Incremental-maintenance differential suite: a cube maintained by the
/// streaming Ingestor (base load + N append batches) against a cube
/// built from scratch over the final table, across 20+ seeds and shard
/// counts K ∈ {1, 4}.
///
/// The contract under test (DESIGN.md §8):
///  - the incrementally maintained iceberg-cell SET is identical to the
///    from-scratch build's (loss states fold exactly, classification
///    agrees);
///  - every served answer meets loss(truth, sample) <= θ with truth
///    from a direct predicate scan of the final table;
///  - the guarantee is shard-invariant: K = 1 (the plain engine) and
///    K = 4 converge to the same iceberg set.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/tabula.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "engine_at_k.h"
#include "ingest/ingestor.h"
#include "loss/loss_registry.h"
#include "shard/sharded_tabula.h"
#include "storage/predicate.h"

namespace tabula {
namespace {

struct DiffFixture {
  std::unique_ptr<Table> table;  // the FULL table (base + appends)
  std::vector<std::string> attrs;
};

DiffFixture MakeFixture(uint64_t seed, size_t rows) {
  SyntheticGeneratorOptions gen;
  gen.seed = seed * 6151 + 29;
  gen.num_rows = rows;
  gen.cell_spread = 1.1;
  gen.noise = 0.1;
  gen.columns.clear();
  Rng rng(seed * 17 + 3);
  const size_t ncols = 2 + (seed % 2);
  for (size_t c = 0; c < ncols; ++c) {
    SyntheticColumnSpec col;
    col.name = "c" + std::to_string(c);
    col.cardinality = 2 + static_cast<uint32_t>(rng.UniformInt(0, 3));
    col.zipf_skew = rng.Bernoulli(0.5) ? 0.8 : 0.0;
    gen.columns.push_back(col);
  }
  SyntheticGenerator generator(gen);
  DiffFixture f;
  f.table = generator.Generate();
  f.attrs = generator.CategoricalColumns();
  return f;
}

std::shared_ptr<const LossFunction> MakeLoss() {
  LossParams params;
  params.columns = {"value"};
  auto loss = MakeLossFunction("mean_loss", params);
  EXPECT_TRUE(loss.ok()) << loss.status().ToString();
  return std::shared_ptr<const LossFunction>(std::move(loss).value());
}

std::vector<Value> BoxRow(const Table& table, RowId r) {
  std::vector<Value> row;
  row.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    row.push_back(table.column(c).GetValue(r));
  }
  return row;
}

std::vector<uint64_t> PlainIcebergKeys(const Tabula& t) {
  std::vector<uint64_t> keys;
  for (const IcebergCell& c : t.cube_table().cells()) keys.push_back(c.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Prefix copy of `full` (shared dictionaries, so categorical codes —
/// and therefore cube keys — stay comparable).
std::unique_ptr<Table> TablePrefix(const Table& full, size_t rows) {
  std::vector<RowId> ids(rows);
  for (RowId r = 0; r < rows; ++r) ids[r] = r;
  return full.TakeRows(ids);
}

/// Streams rows [base, full.num_rows()) into `ingestor` in `batches`
/// roughly equal batches (sync mode: each Append runs its cycle).
void StreamAppends(Ingestor* ingestor, const Table& full, size_t base,
                   size_t batches) {
  const size_t total = full.num_rows() - base;
  for (size_t b = 0; b < batches; ++b) {
    const size_t lo = base + total * b / batches;
    const size_t hi = base + total * (b + 1) / batches;
    std::vector<std::vector<Value>> rows;
    rows.reserve(hi - lo);
    for (RowId r = lo; r < hi; ++r) rows.push_back(BoxRow(full, r));
    Status st = ingestor->Append(rows);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  Status st = ingestor->Drain();
  ASSERT_TRUE(st.ok()) << st.ToString();
}

void CheckThetaBound(const Table& table, const LossFunction& loss,
                     double theta, const WorkloadQuery& q,
                     const TabulaQueryResult& result, const char* label,
                     uint64_t seed) {
  auto bound = BoundPredicate::Bind(table, q.where);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  std::vector<RowId> truth = bound.value().FilterAll();
  if (result.empty_cell) {
    EXPECT_TRUE(truth.empty()) << "seed=" << seed << " " << label;
  }
  if (truth.empty()) return;
  DatasetView truth_view(&table, std::move(truth));
  auto l = loss.Loss(truth_view, result.sample);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  EXPECT_LE(l.value(), theta * (1.0 + 1e-7) + 1e-12)
      << "seed=" << seed << " " << label << " query=" << q.ToString();
}

void RunIngestEquivalence(uint64_t seed) {
  const size_t rows = 700 + (seed % 3) * 150;
  DiffFixture f = MakeFixture(seed, rows);
  Rng rng(seed * 991 + 1);
  const double theta = 0.05 + rng.UniformDouble(0.0, 0.05);
  std::shared_ptr<const LossFunction> loss = MakeLoss();
  // Stream the last ~25% of the rows in 2-4 batches.
  const size_t base = rows - rows / 4;
  const size_t batches = 2 + (seed % 3);

  // From-scratch oracle over the final table.
  TabulaOptions plain_opts;
  plain_opts.cubed_attributes = f.attrs;
  plain_opts.owned_loss = loss;
  plain_opts.threshold = theta;
  plain_opts.seed = seed;
  plain_opts.keep_maintenance_state = true;
  auto scratch = Tabula::Initialize(*f.table, plain_opts);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  const std::vector<uint64_t> oracle_keys = PlainIcebergKeys(*scratch.value());

  WorkloadOptions wopt;
  wopt.num_queries = 10;
  wopt.seed = seed * 211 + 13;
  auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
  ASSERT_TRUE(qs.ok()) << qs.status().ToString();

  // Incrementally maintained plain engine.
  auto plain_live = TablePrefix(*f.table, base);
  auto plain = Tabula::Initialize(*plain_live, plain_opts);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto plain_ingestor =
      Ingestor::Make(plain.value().get(), plain_live.get(), IngestorOptions{});
  ASSERT_TRUE(plain_ingestor.ok());
  StreamAppends(plain_ingestor.value().get(), *f.table, base, batches);
  EXPECT_EQ(plain_live->num_rows(), rows);
  EXPECT_EQ(PlainIcebergKeys(*plain.value()), oracle_keys)
      << "seed=" << seed << " incremental plain vs from-scratch";

  for (const WorkloadQuery& q : qs.value()) {
    auto got = plain.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got.value().result.stale);
    auto want = scratch.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got.value().result.from_local_sample,
              want.value().result.from_local_sample)
        << "seed=" << seed << " query=" << q.ToString();
    CheckThetaBound(*plain_live, *loss, theta, q, got.value().result,
                    "plain", seed);
  }

  // Incrementally maintained sharded engines, K ∈ {1, 4}.
  for (size_t k : {size_t{1}, size_t{4}}) {
    ShardedTabulaOptions sopts;
    sopts.base = plain_opts;
    sopts.num_shards = k;
    sopts.partition =
        (seed + k) % 2 == 0 ? ShardPartition::kHash : ShardPartition::kRange;
    auto live = TablePrefix(*f.table, base);
    auto sharded = EngineAtK::Initialize(*live, sopts);
    ASSERT_TRUE(sharded.ok()) << "seed=" << seed << " k=" << k << ": "
                              << sharded.status().ToString();
    auto ingestor =
        Ingestor::Make(sharded.value().get(), live.get(), IngestorOptions{});
    ASSERT_TRUE(ingestor.ok());
    StreamAppends(ingestor.value().get(), *f.table, base, batches);
    EXPECT_EQ(ingestor.value()->PendingRows(), 0u);

    // Shard-invariant convergence: same iceberg set as the oracle.
    EXPECT_EQ(sharded.value().IcebergKeys(), oracle_keys)
        << "seed=" << seed << " k=" << k;

    for (const WorkloadQuery& q : qs.value()) {
      auto got = sharded.value()->Query(QueryRequest(q.where));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const TabulaQueryResult& result = got.value().result;
      EXPECT_FALSE(result.stale);
      EXPECT_TRUE(result.unavailable_shards.empty());
      if (k == 1) {
        // K = 1 is the plain engine: bit-identical to the incremental
        // plain engine (same rows, same seed, same maintenance path).
        auto want = plain.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(want.ok());
        EXPECT_EQ(result.sample.ToRowIds(),
                  want.value().result.sample.ToRowIds())
            << "seed=" << seed << " query=" << q.ToString();
      }
      CheckThetaBound(*live, *loss, theta, q, result, "sharded", seed);
    }
  }
}

TEST(IngestDiff, IncrementalMatchesFromScratchAcross20Seeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RunIngestEquivalence(seed);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "fatal failure at seed " << seed;
    }
  }
}

/// A couple of extra seeds at a larger append fraction (50%), where a
/// full encoder-layout change (new categorical value first seen in an
/// append) is more likely and the full-rebuild fallback gets exercised.
TEST(IngestDiff, LargeAppendFractionSeeds) {
  for (uint64_t seed = 41; seed <= 44; ++seed) {
    const size_t rows = 900;
    DiffFixture f = MakeFixture(seed, rows);
    std::shared_ptr<const LossFunction> loss = MakeLoss();
    TabulaOptions opts;
    opts.cubed_attributes = f.attrs;
    opts.owned_loss = loss;
    opts.threshold = 0.08;
    opts.seed = seed;
    opts.keep_maintenance_state = true;
    auto scratch = Tabula::Initialize(*f.table, opts);
    ASSERT_TRUE(scratch.ok());
    const std::vector<uint64_t> oracle_keys =
        PlainIcebergKeys(*scratch.value());

    auto live = TablePrefix(*f.table, rows / 2);
    auto engine = Tabula::Initialize(*live, opts);
    ASSERT_TRUE(engine.ok());
    auto ingestor =
        Ingestor::Make(engine.value().get(), live.get(), IngestorOptions{});
    ASSERT_TRUE(ingestor.ok());
    StreamAppends(ingestor.value().get(), *f.table, rows / 2, 3);
    EXPECT_EQ(PlainIcebergKeys(*engine.value()), oracle_keys)
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace tabula
