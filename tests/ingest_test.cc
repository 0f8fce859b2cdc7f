/// Streaming-ingestion unit suite: the IngestJournal's durability
/// contract (roundtrip, torn tail, schema checks), the Ingestor's
/// batch-atomicity and staleness tagging, and the end-to-end
/// crash-recovery path (journal replay + `resume_partial` cube load +
/// one maintenance cycle catches the cube up).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "data/workload.h"
#include "ingest/ingest_journal.h"
#include "ingest/ingestor.h"
#include "loss/mean_loss.h"
#include "storage/predicate.h"

namespace tabula {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Boxes row `r` of `table` into the Value form Ingestor::Append takes.
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
  rows.reserve(end - begin);
  for (RowId r = begin; r < end; ++r) rows.push_back(BoxRow(table, r));
  return rows;
}

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TaxiGeneratorOptions gen;
    gen.num_rows = 12000;
    gen.seed = 77;
    full_ = TaxiGenerator(gen).Generate();
    // Live table = the first 10000 rides; the remaining 2000 arrive as
    // streamed batches.
    base_rows_ = 10000;
    std::vector<RowId> base(base_rows_);
    for (RowId r = 0; r < base_rows_; ++r) base[r] = r;
    table_ = full_->TakeRows(base);

    loss_ = std::make_unique<MeanLoss>("fare_amount");
    options_.cubed_attributes = {"payment_type", "rate_code"};
    options_.loss = loss_.get();
    options_.threshold = 0.05;
  }

  std::unique_ptr<Table> full_;
  std::unique_ptr<Table> table_;
  size_t base_rows_ = 0;
  std::unique_ptr<MeanLoss> loss_;
  TabulaOptions options_;
};

// ---------------------------------------------------------------------
// IngestJournal
// ---------------------------------------------------------------------

TEST_F(IngestTest, JournalRoundtripReplaysOntoBaseRows) {
  std::string path = TempPath("ingest_journal_roundtrip.wal");
  std::remove(path.c_str());
  {
    auto journal = IngestJournal::Open(path, *table_);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    EXPECT_EQ(journal.value()->base_rows(), base_rows_);
    ASSERT_TRUE(journal.value()
                    ->AppendBatch(BoxRows(*full_, base_rows_, base_rows_ + 500))
                    .ok());
    ASSERT_TRUE(
        journal.value()
            ->AppendBatch(BoxRows(*full_, base_rows_ + 500, base_rows_ + 800))
            .ok());
    EXPECT_EQ(journal.value()->journaled_rows(), 800u);
  }

  // Fresh process: only the base rows survive; replay restores the rest.
  std::vector<RowId> base(base_rows_);
  for (RowId r = 0; r < base_rows_; ++r) base[r] = r;
  auto recovered = full_->TakeRows(base);
  auto stats = IngestJournal::Replay(path, recovered.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().batches, 2u);
  EXPECT_EQ(stats.value().rows, 800u);
  EXPECT_EQ(stats.value().appended_rows, 800u);
  EXPECT_FALSE(stats.value().truncated_tail);
  ASSERT_EQ(recovered->num_rows(), base_rows_ + 800);
  // Byte-for-byte the same rows, in order.
  for (RowId r = base_rows_; r < recovered->num_rows(); ++r) {
    for (size_t c = 0; c < full_->num_columns(); ++c) {
      EXPECT_EQ(recovered->column(c).GetValue(r), full_->column(c).GetValue(r))
          << "row " << r << " col " << c;
    }
  }
  std::remove(path.c_str());
}

TEST_F(IngestTest, JournalReplayIsIdempotentAndSkipsAppliedRows) {
  std::string path = TempPath("ingest_journal_idem.wal");
  std::remove(path.c_str());
  {
    auto journal = IngestJournal::Open(path, *table_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()
                    ->AppendBatch(BoxRows(*full_, base_rows_, base_rows_ + 100))
                    .ok());
  }
  // First replay appends; a second replay on the now-caught-up table
  // appends nothing (idempotence — the crash-recovery path may run it
  // any number of times).
  auto first = IngestJournal::Replay(path, table_.get());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().appended_rows, 100u);
  auto second = IngestJournal::Replay(path, table_.get());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().appended_rows, 0u);
  EXPECT_EQ(second.value().rows, 100u);
  EXPECT_EQ(table_->num_rows(), base_rows_ + 100);
  std::remove(path.c_str());
}

TEST_F(IngestTest, JournalToleratesTornTailRecord) {
  std::string path = TempPath("ingest_journal_torn.wal");
  std::remove(path.c_str());
  {
    auto journal = IngestJournal::Open(path, *table_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()
                    ->AppendBatch(BoxRows(*full_, base_rows_, base_rows_ + 200))
                    .ok());
    ASSERT_TRUE(
        journal.value()
            ->AppendBatch(BoxRows(*full_, base_rows_ + 200, base_rows_ + 300))
            .ok());
  }
  // Crash mid-flush: chop bytes off the second record.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 37);

  auto stats = IngestJournal::Replay(path, table_.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().truncated_tail);
  EXPECT_EQ(stats.value().batches, 1u);
  EXPECT_EQ(stats.value().appended_rows, 200u);
  EXPECT_EQ(table_->num_rows(), base_rows_ + 200);

  // Re-opening truncates the torn tail and appends resume cleanly.
  auto reopened = IngestJournal::Open(path, *table_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->journaled_rows(), 200u);
  ASSERT_TRUE(
      reopened.value()
          ->AppendBatch(BoxRows(*full_, base_rows_ + 200, base_rows_ + 250))
          .ok());
  auto again = IngestJournal::Replay(path, table_.get());
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().truncated_tail);
  EXPECT_EQ(again.value().rows, 250u);
  EXPECT_EQ(table_->num_rows(), base_rows_ + 250);
  std::remove(path.c_str());
}

TEST_F(IngestTest, JournalRejectsSchemaMismatch) {
  std::string path = TempPath("ingest_journal_schema.wal");
  std::remove(path.c_str());
  {
    auto journal = IngestJournal::Open(path, *table_);
    ASSERT_TRUE(journal.ok());
  }
  Schema other({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  Table other_table(other);
  auto stats = IngestJournal::Replay(path, &other_table);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Ingestor
// ---------------------------------------------------------------------

TEST_F(IngestTest, AppendValidatesWholeBatchBeforeAnySideEffect) {
  auto engine = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(engine.ok());
  std::string path = TempPath("ingestor_validate.wal");
  std::remove(path.c_str());
  IngestorOptions iopts;
  iopts.journal_path = path;
  auto ingestor = Ingestor::Make(engine.value().get(), table_.get(), iopts);
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();

  // Batch with one bad row (wrong arity): rejected as a whole — no
  // journal record, no table rows, no pending work.
  auto rows = BoxRows(*full_, base_rows_, base_rows_ + 10);
  rows[7].pop_back();
  Status st = ingestor.value()->Append(rows);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table_->num_rows(), base_rows_);
  EXPECT_EQ(ingestor.value()->journal()->journaled_rows(), 0u);
  EXPECT_EQ(ingestor.value()->PendingRows(), 0u);

  // Type mismatch likewise.
  rows = BoxRows(*full_, base_rows_, base_rows_ + 10);
  rows[3][0] = Value(12.5);  // vendor is categorical
  st = ingestor.value()->Append(rows);
  EXPECT_EQ(st.code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(table_->num_rows(), base_rows_);
  std::remove(path.c_str());
}

TEST_F(IngestTest, SyncAppendCommitsAndTagsAnswersFreshAgain) {
  auto engine = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(engine.ok());
  const uint64_t gen0 = engine.value()->generation();
  auto ingestor = Ingestor::Make(engine.value().get(), table_.get());
  ASSERT_TRUE(ingestor.ok());

  ASSERT_TRUE(
      ingestor.value()
          ->Append(BoxRows(*full_, base_rows_, base_rows_ + 1000))
          .ok());
  // Sync mode: the cycle ran inline; the cube is caught up and the
  // generation moved.
  EXPECT_EQ(ingestor.value()->PendingRows(), 0u);
  EXPECT_EQ(engine.value()->generation(), gen0 + 1);

  auto answer = engine.value()->Query(
      QueryRequest({{"payment_type", CompareOp::kEq, Value("Cash")}}));
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer.value().result.stale);
  EXPECT_EQ(answer.value().result.generation, gen0 + 1);

  const MetricsSnapshot snap = ingestor.value()->metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("ingest_batches_total"), 1u);
  EXPECT_EQ(snap.CounterValue("ingest_rows_total"), 1000u);
  EXPECT_EQ(snap.CounterValue("ingest_commits_total"), 1u);
  EXPECT_EQ(snap.CounterValue("ingest_failures_total"), 0u);
}

TEST_F(IngestTest, AsyncAppendsDrainAndConverge) {
  auto engine = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(engine.ok());
  IngestorOptions iopts;
  iopts.async = true;
  auto ingestor = Ingestor::Make(engine.value().get(), table_.get(), iopts);
  ASSERT_TRUE(ingestor.ok());

  for (size_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(ingestor.value()
                    ->Append(BoxRows(*full_, base_rows_ + b * 500,
                                     base_rows_ + (b + 1) * 500))
                    .ok());
  }
  ASSERT_TRUE(ingestor.value()->Drain().ok());
  EXPECT_EQ(ingestor.value()->PendingRows(), 0u);
  EXPECT_EQ(table_->num_rows(), base_rows_ + 2000);

  // Converged cube answers within θ (spot check one cell).
  auto answer = engine.value()->Query(
      QueryRequest({{"payment_type", CompareOp::kEq, Value("Cash")}}));
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer.value().result.stale);
  auto pred = BoundPredicate::Bind(
      *table_, {{"payment_type", CompareOp::kEq, Value("Cash")}});
  DatasetView truth(table_.get(), pred->FilterAll());
  if (!truth.empty()) {
    EXPECT_LE(loss_->Loss(truth, answer.value().result.sample).value(),
              options_.threshold);
  }
}

// ---------------------------------------------------------------------
// Crash recovery end-to-end
// ---------------------------------------------------------------------

TEST_F(IngestTest, CrashRecoveryReplaysJournalAndResumesPartialCube) {
  std::string cube_path = TempPath("ingest_recovery_cube.bin");
  std::string wal_path = TempPath("ingest_recovery.wal");
  std::remove(cube_path.c_str());
  std::remove(wal_path.c_str());

  // Session 1: build, checkpoint the cube, stream two batches (the
  // second one is in the journal + table but the process "crashes"
  // before any further checkpoint).
  {
    auto engine = Tabula::Initialize(*table_, options_);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine.value()->Save(cube_path).ok());
    IngestorOptions iopts;
    iopts.journal_path = wal_path;
    auto ingestor = Ingestor::Make(engine.value().get(), table_.get(), iopts);
    ASSERT_TRUE(ingestor.ok());
    ASSERT_TRUE(
        ingestor.value()
            ->Append(BoxRows(*full_, base_rows_, base_rows_ + 700))
            .ok());
    ASSERT_TRUE(
        ingestor.value()
            ->Append(BoxRows(*full_, base_rows_ + 700, base_rows_ + 1200))
            .ok());
  }  // crash: everything in memory is gone

  // Session 2: base data + journal + checkpointed cube.
  std::vector<RowId> base(base_rows_);
  for (RowId r = 0; r < base_rows_; ++r) base[r] = r;
  auto recovered = full_->TakeRows(base);
  auto replayed = IngestJournal::Replay(wal_path, recovered.get());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed.value().appended_rows, 1200u);
  ASSERT_EQ(recovered->num_rows(), base_rows_ + 1200);

  // The checkpoint predates the appends: a strict load calls it stale,
  // the resume path accepts it against the prefix it was built on.
  auto strict = Tabula::Load(*recovered, options_, cube_path);
  EXPECT_FALSE(strict.ok());
  auto resumed = Tabula::Load(*recovered, options_, cube_path,
                              /*resume_partial=*/true);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->PendingIngestRows(), 1200u);

  // Until the catch-up cycle commits, answers are honest about it.
  auto stale_answer = resumed.value()->Query(
      QueryRequest({{"payment_type", CompareOp::kEq, Value("Cash")}}));
  ASSERT_TRUE(stale_answer.ok());
  EXPECT_TRUE(stale_answer.value().result.stale);

  // One maintenance cycle catches the cube up; answers match a
  // from-scratch build's guarantee.
  auto ingestor = Ingestor::Make(resumed.value().get(), recovered.get(),
                                 IngestorOptions{});
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE(ingestor.value()->Drain().ok());
  EXPECT_EQ(resumed.value()->PendingIngestRows(), 0u);

  auto scratch = Tabula::Initialize(*recovered, options_);
  ASSERT_TRUE(scratch.ok());
  WorkloadOptions wopt;
  wopt.num_queries = 25;
  wopt.seed = 9;
  auto workload =
      GenerateWorkload(*recovered, options_.cubed_attributes, wopt);
  ASSERT_TRUE(workload.ok());
  for (const auto& q : workload.value()) {
    auto got = resumed.value()->Query(QueryRequest(q.where));
    auto want = scratch.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_FALSE(got.value().result.stale);
    // Classification agrees with the from-scratch oracle...
    EXPECT_EQ(got.value().result.from_local_sample,
              want.value().result.from_local_sample)
        << q.ToString();
    // ...and the θ bound holds against a direct scan.
    auto pred = BoundPredicate::Bind(*recovered, q.where);
    DatasetView truth(recovered.get(), pred->FilterAll());
    if (truth.empty()) continue;
    EXPECT_LE(loss_->Loss(truth, got.value().result.sample).value(),
              options_.threshold)
        << q.ToString();
  }

  std::remove(cube_path.c_str());
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace tabula
