/// Fault-seam regression suite for streaming ingestion: every seam on
/// the ingest path (`ingest.route`, `ingest.journal.write`,
/// `ingest.merge`, `ingest.resample`) is armed mid-batch and the
/// invariant checked is always the same — the cube stays atomically at
/// the previous generation, serving exactly the answers it served
/// before, and once the fault clears a Drain() converges to the caught-
/// up state.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "engine_at_k.h"
#include "ingest/ingest_journal.h"
#include "ingest/ingestor.h"
#include "loss/mean_loss.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<Value> BoxRow(const Table& table, RowId r) {
  std::vector<Value> row;
  row.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    row.push_back(table.column(c).GetValue(r));
  }
  return row;
}

std::vector<std::vector<Value>> BoxRows(const Table& table, RowId begin,
                                        RowId end) {
  std::vector<std::vector<Value>> rows;
  for (RowId r = begin; r < end; ++r) rows.push_back(BoxRow(table, r));
  return rows;
}

class IngestFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TaxiGeneratorOptions gen;
    gen.num_rows = 9000;
    gen.seed = 31;
    full_ = TaxiGenerator(gen).Generate();
    base_rows_ = 8000;
    std::vector<RowId> base(base_rows_);
    for (RowId r = 0; r < base_rows_; ++r) base[r] = r;
    table_ = full_->TakeRows(base);

    loss_ = std::make_unique<MeanLoss>("fare_amount");
    options_.cubed_attributes = {"payment_type", "rate_code"};
    options_.loss = loss_.get();
    options_.threshold = 0.05;
    options_.keep_maintenance_state = true;
  }

  FaultSpec ErrorSpec() {
    FaultSpec spec;
    spec.every_nth = 1;
    spec.code = StatusCode::kIOError;
    spec.message = "injected ingest fault";
    return spec;
  }

  std::unique_ptr<Table> full_;
  std::unique_ptr<Table> table_;
  size_t base_rows_ = 0;
  std::unique_ptr<MeanLoss> loss_;
  TabulaOptions options_;
};

TEST_F(IngestFaultTest, RouteFaultRejectsBatchBeforeAnySideEffect) {
  ScopedFaultClear clear;
  auto engine = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(engine.ok());
  const uint64_t gen0 = engine.value()->generation();
  auto ingestor =
      Ingestor::Make(engine.value().get(), table_.get(), IngestorOptions{});
  ASSERT_TRUE(ingestor.ok());

  FaultInjector::Global().Arm("ingest.route", ErrorSpec());
  Status st =
      ingestor.value()->Append(BoxRows(*full_, base_rows_, base_rows_ + 300));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  // Atomic rejection: no rows, no pending work, generation untouched.
  EXPECT_EQ(table_->num_rows(), base_rows_);
  EXPECT_EQ(ingestor.value()->PendingRows(), 0u);
  EXPECT_EQ(engine.value()->generation(), gen0);
  EXPECT_GE(FaultInjector::Global().StatsFor("ingest.route").triggers, 1u);

  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(
      ingestor.value()
          ->Append(BoxRows(*full_, base_rows_, base_rows_ + 300))
          .ok());
  EXPECT_EQ(engine.value()->generation(), gen0 + 1);
}

TEST_F(IngestFaultTest, JournalWriteFaultLeavesJournalAndCubeUntouched) {
  ScopedFaultClear clear;
  std::string wal = TempPath("ingest_fault_journal.wal");
  std::remove(wal.c_str());
  auto engine = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(engine.ok());
  const uint64_t gen0 = engine.value()->generation();
  IngestorOptions iopts;
  iopts.journal_path = wal;
  auto ingestor = Ingestor::Make(engine.value().get(), table_.get(), iopts);
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE(
      ingestor.value()
          ->Append(BoxRows(*full_, base_rows_, base_rows_ + 100))
          .ok());
  const uint64_t journaled0 = ingestor.value()->journal()->journaled_rows();
  const auto wal_size0 = std::filesystem::file_size(wal);

  FaultInjector::Global().Arm("ingest.journal.write", ErrorSpec());
  Status st = ingestor.value()->Append(
      BoxRows(*full_, base_rows_ + 100, base_rows_ + 400));
  EXPECT_FALSE(st.ok());
  // The partial record was truncated back off: journal byte-identical
  // in length, no table rows, generation unchanged.
  EXPECT_EQ(std::filesystem::file_size(wal), wal_size0);
  EXPECT_EQ(ingestor.value()->journal()->journaled_rows(), journaled0);
  EXPECT_EQ(table_->num_rows(), base_rows_ + 100);
  EXPECT_EQ(engine.value()->generation(), gen0 + 1);

  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(ingestor.value()
                  ->Append(BoxRows(*full_, base_rows_ + 100, base_rows_ + 400))
                  .ok());
  EXPECT_EQ(table_->num_rows(), base_rows_ + 400);
  // The journal still replays cleanly after the rollback.
  std::vector<RowId> base(base_rows_);
  for (RowId r = 0; r < base_rows_; ++r) base[r] = r;
  auto recovered = full_->TakeRows(base);
  auto replayed = IngestJournal::Replay(wal, recovered.get());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_FALSE(replayed.value().truncated_tail);
  EXPECT_EQ(replayed.value().appended_rows, 400u);
  std::remove(wal.c_str());
}

TEST_F(IngestFaultTest, MergeFaultMidBatchKeepsPreviousGenerationAtomically) {
  ScopedFaultClear clear;
  auto engine = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(engine.ok());
  const uint64_t gen0 = engine.value()->generation();
  auto ingestor =
      Ingestor::Make(engine.value().get(), table_.get(), IngestorOptions{});
  ASSERT_TRUE(ingestor.ok());

  // Reference answer served before the failed cycle.
  const QueryRequest probe(
      {{"payment_type", CompareOp::kEq, Value("Cash")}});
  auto before = engine.value()->Query(probe);
  ASSERT_TRUE(before.ok());

  FaultInjector::Global().Arm("ingest.merge", ErrorSpec());
  Status st =
      ingestor.value()->Append(BoxRows(*full_, base_rows_, base_rows_ + 500));
  EXPECT_FALSE(st.ok());
  // Rows are appended + pending, but the cube is atomically at the
  // previous generation and serves the exact same sample, now honestly
  // tagged stale.
  EXPECT_EQ(table_->num_rows(), base_rows_ + 500);
  EXPECT_EQ(ingestor.value()->PendingRows(), 500u);
  EXPECT_EQ(engine.value()->generation(), gen0);
  auto during = engine.value()->Query(probe);
  ASSERT_TRUE(during.ok());
  EXPECT_TRUE(during.value().result.stale);
  EXPECT_EQ(during.value().result.generation, gen0);
  EXPECT_EQ(during.value().result.sample.ToRowIds(),
            before.value().result.sample.ToRowIds());

  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(ingestor.value()->Drain().ok());
  EXPECT_EQ(ingestor.value()->PendingRows(), 0u);
  EXPECT_EQ(engine.value()->generation(), gen0 + 1);
  auto after = engine.value()->Query(probe);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().result.stale);
}

TEST_F(IngestFaultTest, ResampleFaultKeepsPreviousGenerationOnBothEngines) {
  ScopedFaultClear clear;
  for (size_t k : {size_t{1}, size_t{4}}) {
    ShardedTabulaOptions sopts;
    sopts.base = options_;
    sopts.num_shards = k;
    sopts.partition = ShardPartition::kRange;
    std::vector<RowId> base(base_rows_);
    for (RowId r = 0; r < base_rows_; ++r) base[r] = r;
    auto live = full_->TakeRows(base);
    // K = 1 runs the plain engine (a sharded engine needs K >= 2).
    auto engine = EngineAtK::Initialize(*live, sopts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const uint64_t gen0 = engine.value()->generation();
    auto ingestor =
        Ingestor::Make(engine.value().get(), live.get(), IngestorOptions{});
    ASSERT_TRUE(ingestor.ok());

    FaultInjector::Global().Arm("ingest.resample", ErrorSpec());
    Status st =
        ingestor.value()->Append(BoxRows(*full_, base_rows_, base_rows_ + 400));
    EXPECT_FALSE(st.ok()) << "k=" << k;
    EXPECT_EQ(engine.value()->generation(), gen0) << "k=" << k;
    EXPECT_EQ(ingestor.value()->PendingRows(), 400u) << "k=" << k;

    FaultInjector::Global().DisarmAll();
    ASSERT_TRUE(ingestor.value()->Drain().ok()) << "k=" << k;
    EXPECT_EQ(engine.value()->generation(), gen0 + 1) << "k=" << k;
    EXPECT_EQ(ingestor.value()->PendingRows(), 0u) << "k=" << k;
  }
}

TEST_F(IngestFaultTest, ThrownExceptionMidCycleAlsoPreservesGeneration) {
  ScopedFaultClear clear;
  auto engine = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(engine.ok());
  const uint64_t gen0 = engine.value()->generation();
  auto ingestor =
      Ingestor::Make(engine.value().get(), table_.get(), IngestorOptions{});
  ASSERT_TRUE(ingestor.ok());

  FaultSpec spec = ErrorSpec();
  spec.throw_exception = true;
  FaultInjector::Global().Arm("ingest.resample", spec);
  bool threw = false;
  try {
    (void)ingestor.value()->Append(
        BoxRows(*full_, base_rows_, base_rows_ + 200));
  } catch (const std::exception&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(engine.value()->generation(), gen0);

  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(ingestor.value()->Drain().ok());
  EXPECT_EQ(engine.value()->generation(), gen0 + 1);
  EXPECT_EQ(ingestor.value()->PendingRows(), 0u);
}

/// Intermittent faults (every 3rd hit) across many batches: the system
/// keeps accepting what it can, never commits a broken state, and the
/// final Drain() converges to the same row count a fault-free run has.
TEST_F(IngestFaultTest, IntermittentMergeFaultsEventuallyConverge) {
  ScopedFaultClear clear;
  auto engine = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(engine.ok());
  auto ingestor =
      Ingestor::Make(engine.value().get(), table_.get(), IngestorOptions{});
  ASSERT_TRUE(ingestor.ok());

  FaultSpec spec = ErrorSpec();
  spec.every_nth = 3;
  FaultInjector::Global().Arm("ingest.merge", spec);
  for (size_t b = 0; b < 6; ++b) {
    // Some of these fail their inline cycle; the rows still land.
    (void)ingestor.value()->Append(BoxRows(
        *full_, base_rows_ + b * 100, base_rows_ + (b + 1) * 100));
  }
  EXPECT_EQ(table_->num_rows(), base_rows_ + 600);

  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(ingestor.value()->Drain().ok());
  EXPECT_EQ(ingestor.value()->PendingRows(), 0u);
  auto answer = engine.value()->Query(
      QueryRequest({{"payment_type", CompareOp::kEq, Value("Cash")}}));
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer.value().result.stale);
}

}  // namespace
}  // namespace tabula
