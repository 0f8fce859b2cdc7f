/// Tests of the deterministic fault-injection registry itself, plus the
/// fault-seam regression suite: injected persistence failures must be
/// atomic (a failed Save leaves the previous file intact; Load never
/// yields a half-built cube), a failed Refresh must leave the instance
/// untouched, and injected serve-path errors must surface as Status.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "core/tabula.h"
#include "data/synthetic_gen.h"
#include "loss/mean_loss.h"
#include "serve/query_server.h"
#include "testing/fault_injection.h"

namespace tabula {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Trigger pattern of `hits` sequential hits at an armed point.
std::vector<bool> TriggerPattern(const FaultSpec& spec, size_t hits) {
  FaultInjector& fi = FaultInjector::Global();
  fi.DisarmAll();
  fi.Arm("test.point", spec);
  std::vector<bool> pattern;
  for (size_t i = 0; i < hits; ++i) {
    pattern.push_back(!fi.Hit("test.point").ok());
  }
  fi.DisarmAll();
  return pattern;
}

TEST(FaultInjector, UnarmedPointIsAlwaysOk) {
  ScopedFaultClear guard;
  EXPECT_FALSE(FaultInjector::AnyArmed());
  EXPECT_TRUE(FaultInjector::Global().Hit("never.armed").ok());
}

TEST(FaultInjector, AnyArmedTracksArmAndDisarm) {
  ScopedFaultClear guard;
  EXPECT_FALSE(FaultInjector::AnyArmed());
  FaultInjector::Global().Arm("a", FaultSpec{});
  EXPECT_TRUE(FaultInjector::AnyArmed());
  FaultInjector::Global().Arm("b", FaultSpec{});
  FaultInjector::Global().Disarm("a");
  EXPECT_TRUE(FaultInjector::AnyArmed());
  FaultInjector::Global().Disarm("b");
  EXPECT_FALSE(FaultInjector::AnyArmed());
}

TEST(FaultInjector, EveryNthTriggersExactlyOnSchedule) {
  ScopedFaultClear guard;
  FaultSpec spec;
  spec.every_nth = 3;
  std::vector<bool> pattern = TriggerPattern(spec, 9);
  std::vector<bool> expected = {false, false, true, false, false,
                                true,  false, false, true};
  EXPECT_EQ(pattern, expected);
}

TEST(FaultInjector, MaxTriggersStopsInjection) {
  ScopedFaultClear guard;
  FaultSpec spec;
  spec.every_nth = 1;
  spec.max_triggers = 2;
  std::vector<bool> pattern = TriggerPattern(spec, 5);
  std::vector<bool> expected = {true, true, false, false, false};
  EXPECT_EQ(pattern, expected);
}

TEST(FaultInjector, ProbabilityTriggeringIsSeedDeterministic) {
  ScopedFaultClear guard;
  FaultSpec spec;
  spec.probability = 0.5;
  spec.seed = 1234;
  std::vector<bool> first = TriggerPattern(spec, 64);
  std::vector<bool> second = TriggerPattern(spec, 64);
  // Same seed → identical per-hit decisions (the decision hashes
  // (seed, hit index); no shared RNG stream is consumed).
  EXPECT_EQ(first, second);
  size_t triggers = 0;
  for (bool b : first) triggers += b;
  EXPECT_GT(triggers, size_t{16});
  EXPECT_LT(triggers, size_t{48});

  spec.seed = 99;
  std::vector<bool> other = TriggerPattern(spec, 64);
  EXPECT_NE(first, other);  // a different seed reshuffles the schedule
}

TEST(FaultInjector, DelayOnlyFaultNeverFails) {
  ScopedFaultClear guard;
  FaultSpec spec;
  spec.fail = false;
  spec.delay_ms = 0.1;
  FaultInjector::Global().Arm("test.delay", spec);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(FaultInjector::Global().Hit("test.delay").ok());
  }
  FaultInjector::PointStats stats =
      FaultInjector::Global().StatsFor("test.delay");
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.triggers, 3u);
}

TEST(FaultInjector, InjectedStatusCarriesCodeAndPointName) {
  ScopedFaultClear guard;
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  FaultInjector::Global().Arm("test.code", spec);
  Status st = FaultInjector::Global().Hit("test.code");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("test.code"), std::string::npos);
}

/// -------------------------------------------------------------------
/// Seam regressions against a real cube.
/// -------------------------------------------------------------------

class FaultSeamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    SyntheticGeneratorOptions gen;
    gen.num_rows = 2500;
    gen.seed = 71;
    gen.cell_spread = 1.3;
    gen.columns = {{"c0", 3, 0.7}, {"c1", 4, 0.0}};
    table_ = SyntheticGenerator(gen).Generate();

    // Donor rows for refresh tests: a different seed shifts the latent
    // cell parameters, so appends change cell statistics.
    gen.seed = 72;
    gen.num_rows = 1200;
    gen.cell_spread = 2.0;
    donor_ = SyntheticGenerator(gen).Generate();

    loss_ = std::make_unique<MeanLoss>("value");
    options_.cubed_attributes = {"c0", "c1"};
    options_.loss = loss_.get();
    options_.threshold = 0.05;

    auto t = Tabula::Initialize(*table_, options_);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    tabula_ = std::move(t).value();
    ASSERT_GT(tabula_->cube_table().size(), 0u);
  }

  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  std::vector<std::vector<RowId>> AnswerProbe(const Tabula& t) {
    std::vector<std::vector<PredicateTerm>> cells = {
        {},
        {{"c0", CompareOp::kEq, Value("c0_0")}},
        {{"c0", CompareOp::kEq, Value("c0_1")},
         {"c1", CompareOp::kEq, Value("c1_0")}},
    };
    std::vector<std::vector<RowId>> out;
    for (const auto& where : cells) {
      auto r = t.Query(QueryRequest(where));
      EXPECT_TRUE(r.ok());
      out.push_back(r.value().result.sample.ToRowIds());
    }
    return out;
  }

  void AppendDonorRows(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(
          table_->AppendRowFrom(*donor_, static_cast<RowId>(i)).ok());
    }
  }

  std::unique_ptr<Table> table_;
  std::unique_ptr<Table> donor_;
  std::unique_ptr<MeanLoss> loss_;
  TabulaOptions options_;
  std::unique_ptr<Tabula> tabula_;
};

TEST_F(FaultSeamTest, SaveFailingMidWriteLeavesPriorFileIntact) {
  ScopedFaultClear guard;
  const std::string path = TempPath("tabula_fault_save.cube");
  std::filesystem::remove(path);
  ASSERT_TRUE(tabula_->Save(path).ok());
  auto baseline = Tabula::Load(*table_, options_, path);
  ASSERT_TRUE(baseline.ok());
  std::vector<std::vector<RowId>> want = AnswerProbe(*baseline.value());

  // Every write fault fails the NEXT Save mid-stream...
  FaultSpec spec;
  spec.code = StatusCode::kIOError;
  FaultInjector::Global().Arm("persistence.write", spec);
  Status st = tabula_->Save(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_GT(FaultInjector::Global().StatsFor("persistence.write").triggers,
            0u);
  FaultInjector::Global().DisarmAll();

  // ...but the previous file is untouched (temp-file + rename): it
  // still loads and answers exactly as before, and no temp litter.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto reloaded = Tabula::Load(*table_, options_, path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(AnswerProbe(*reloaded.value()), want);
  std::filesystem::remove(path);
}

TEST_F(FaultSeamTest, SaveFailingOnOpenLeavesNoFile) {
  ScopedFaultClear guard;
  const std::string path = TempPath("tabula_fault_open.cube");
  std::filesystem::remove(path);
  FaultInjector::Global().Arm("persistence.open", FaultSpec{});
  EXPECT_FALSE(tabula_->Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(FaultSeamTest, LoadOnTruncatedFileIsDataLossNeverACube) {
  const std::string path = TempPath("tabula_fault_trunc.cube");
  std::filesystem::remove(path);
  ASSERT_TRUE(tabula_->Save(path).ok());
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(full.size(), 64u);

  // Truncate at several depths — rewriting the original bytes each
  // time, since resize_file growing a shrunk file would zero-pad it
  // instead. Every prefix must fail cleanly: a Status, never a crash
  // or a partially-valid cube.
  for (double frac : {0.15, 0.5, 0.9, 0.99}) {
    const auto keep =
        static_cast<size_t>(static_cast<double>(full.size()) * frac);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(keep));
    }
    auto loaded = Tabula::Load(*table_, options_, path);
    ASSERT_FALSE(loaded.ok()) << "frac=" << frac;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "frac=" << frac << ": " << loaded.status().ToString();
  }

  // Flip bytes mid-file (inside the cell records): the loader must
  // reject the corruption, not build a cube from garbage.
  {
    std::string corrupt = full;
    for (size_t i = corrupt.size() / 2; i < corrupt.size() / 2 + 24; ++i) {
      corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  EXPECT_FALSE(Tabula::Load(*table_, options_, path).ok());
  std::filesystem::remove(path);
}

TEST_F(FaultSeamTest, LoadOnInjectedReadFaultSurfacesStatus) {
  ScopedFaultClear guard;
  const std::string path = TempPath("tabula_fault_read.cube");
  std::filesystem::remove(path);
  ASSERT_TRUE(tabula_->Save(path).ok());
  FaultSpec spec;
  spec.code = StatusCode::kIOError;
  FaultInjector::Global().Arm("persistence.read", spec);
  auto loaded = Tabula::Load(*table_, options_, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  FaultInjector::Global().DisarmAll();
  EXPECT_TRUE(Tabula::Load(*table_, options_, path).ok());
  std::filesystem::remove(path);
}

TEST_F(FaultSeamTest, FailedRefreshLeavesCubeUntouchedAndRecovers) {
  ScopedFaultClear guard;
  AppendDonorRows(600);
  std::vector<std::vector<RowId>> before = AnswerProbe(*tabula_);
  const uint64_t gen = tabula_->generation();
  const size_t cells = tabula_->cube_table().size();

  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  FaultInjector::Global().Arm("refresh.begin", spec);
  Status st = tabula_->Refresh();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);

  // Atomicity: generation, cube shape, and answers all unchanged.
  EXPECT_EQ(tabula_->generation(), gen);
  EXPECT_EQ(tabula_->cube_table().size(), cells);
  EXPECT_EQ(AnswerProbe(*tabula_), before);

  // Disarm and retry: the same appended rows refresh cleanly.
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(tabula_->Refresh().ok());
  EXPECT_EQ(tabula_->generation(), gen + 1);
}

TEST_F(FaultSeamTest, FaultDuringCellResamplingIsAtomicToo) {
  ScopedFaultClear guard;
  // Appending skewed donor rows changes cell statistics enough that the
  // refresh must (re)sample at least one cell — which is where
  // refresh.sample sits, AFTER classification already computed.
  AppendDonorRows(1000);
  std::vector<std::vector<RowId>> before = AnswerProbe(*tabula_);
  const uint64_t gen = tabula_->generation();

  FaultSpec spec;
  spec.code = StatusCode::kIOError;
  FaultInjector::Global().Arm("refresh.sample", spec);
  Status st = tabula_->Refresh();
  ASSERT_FALSE(st.ok())
      << "expected the refresh to need sampling work; if this fires, "
         "the donor data no longer creates sampling work";
  EXPECT_GT(FaultInjector::Global().StatsFor("refresh.sample").triggers, 0u);
  EXPECT_EQ(tabula_->generation(), gen);
  EXPECT_EQ(AnswerProbe(*tabula_), before);

  FaultInjector::Global().DisarmAll();
  Tabula::RefreshStats stats;
  ASSERT_TRUE(tabula_->Refresh(&stats).ok());
  EXPECT_EQ(tabula_->generation(), gen + 1);
  EXPECT_GT(stats.new_iceberg_cells + stats.resampled_cells +
                stats.dropped_iceberg_cells,
            0u);
}

TEST_F(FaultSeamTest, ServerSurfacesInjectedExecuteErrorsDeterministically) {
  ScopedFaultClear guard;
  QueryServerOptions sopt;
  sopt.enable_cache = false;  // every query reaches the execute seam
  QueryServer server(tabula_.get(), sopt);

  FaultSpec spec;
  spec.every_nth = 2;
  spec.code = StatusCode::kInternal;
  FaultInjector::Global().Arm("serve.execute", spec);

  std::vector<PredicateTerm> where = {
      {"c0", CompareOp::kEq, Value("c0_0")}};
  std::vector<bool> failed;
  for (int i = 0; i < 6; ++i) {
    Result<ServeAnswer> r = server.Query(QueryRequest(where));
    failed.push_back(!r.ok());
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    }
  }
  std::vector<bool> expected = {false, true, false, true, false, true};
  EXPECT_EQ(failed, expected);
  EXPECT_EQ(server.metrics().counter("serve_errors").value(), 3u);
  EXPECT_EQ(server.metrics().counter("serve_queries_total").value(), 6u);
}

/// A range query is read-only: an injected failure at the planner seam
/// must surface as the injected Status, leave the engine untouched
/// (generation, equality answers), and the identical request must
/// return the identical bytes once the fault clears.
TEST_F(FaultSeamTest, SpatialPlanFaultIsAtomicAndRecovers) {
  ScopedFaultClear guard;
  TabulaOptions opts = options_;
  opts.spatial.x_column = "x";
  opts.spatial.y_column = "y";
  opts.spatial.levels = 3;
  auto t = Tabula::Initialize(*table_, opts);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_GT(t.value()->init_stats().spatial_cells, 0u);

  QueryRequest req;
  req.range.bounds.push_back({"x", 0.2, 0.7});
  req.range.bounds.push_back({"y", 0.1, 0.6});
  auto baseline = t.value()->Query(req);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::vector<RowId> want = baseline.value().result.sample.ToRowIds();
  std::vector<std::vector<RowId>> equality_before = AnswerProbe(*t.value());
  const uint64_t gen = t.value()->generation();

  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  FaultInjector::Global().Arm("spatial.plan", spec);
  auto failed = t.value()->Query(req);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  // Equality queries never enter the grid: the armed seam is invisible
  // to the pre-spatial surface even while it is failing range queries.
  EXPECT_EQ(AnswerProbe(*t.value()), equality_before);
  EXPECT_EQ(t.value()->generation(), gen);

  FaultInjector::Global().DisarmAll();
  auto recovered = t.value()->Query(req);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().result.sample.ToRowIds(), want);
}

/// Same contract for the boundary-scan seam: the injection fires
/// mid-scan (some boundary cells already visited), so recovery proves
/// the scan left no partial state behind.
TEST_F(FaultSeamTest, SpatialBoundaryScanFaultIsAtomicMidScan) {
  ScopedFaultClear guard;
  TabulaOptions opts = options_;
  opts.spatial.x_column = "x";
  opts.spatial.y_column = "y";
  opts.spatial.levels = 3;
  auto t = Tabula::Initialize(*table_, opts);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  // Unaligned on both axes at every level → several boundary cells, so
  // every_nth=2 fails after at least one cell was already scanned.
  QueryRequest req;
  req.range.bounds.push_back({"x", 0.15, 0.63});
  req.range.bounds.push_back({"y", 0.22, 0.58});
  auto baseline = t.value()->Query(req);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::vector<RowId> want = baseline.value().result.sample.ToRowIds();
  const uint64_t gen = t.value()->generation();

  FaultSpec spec;
  spec.every_nth = 2;
  spec.code = StatusCode::kIOError;
  FaultInjector::Global().Arm("spatial.scan", spec);
  auto failed = t.value()->Query(req);
  ASSERT_FALSE(failed.ok())
      << "expected the box to decompose into 2+ boundary cells; if this "
         "fires, the box no longer crosses cell edges";
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  EXPECT_GT(FaultInjector::Global().StatsFor("spatial.scan").hits, 1u);
  EXPECT_EQ(t.value()->generation(), gen);

  FaultInjector::Global().DisarmAll();
  auto recovered = t.value()->Query(req);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().result.sample.ToRowIds(), want);
}

/// -------------------------------------------------------------------
/// Tiered-sample-store seams (store.promote / store.spill.write /
/// store.spill.read / store.evict) — DESIGN.md §12.
/// -------------------------------------------------------------------

/// Store-fixture helpers: engines share the FaultSeamTest table but add
/// the store knobs. Selection is off so every sample is sole-owner and
/// recovery comparisons are byte-exact.
class StoreFaultTest : public FaultSeamTest {
 protected:
  TabulaOptions StoreOptions(uint64_t budget, const std::string& spill) {
    TabulaOptions opts = options_;
    opts.enable_sample_selection = false;
    opts.store.budget_bytes = budget;
    opts.store.spill_path = spill;
    return opts;
  }

  /// Full resident bytes of an unbounded store build — the budget probe.
  uint64_t FullStoreBytes() {
    auto probe = Tabula::Initialize(*table_, StoreOptions(1ull << 40, ""));
    EXPECT_TRUE(probe.ok()) << probe.status().ToString();
    return probe.value()->sample_store().bytes();
  }

  /// Equality queries covering every c0 / c1 value and every pair: at a
  /// tight budget some of these always land on cold cells.
  std::vector<std::vector<PredicateTerm>> ProbeQueries() {
    std::vector<std::vector<PredicateTerm>> out;
    for (int i = 0; i < 3; ++i) {
      out.push_back({{"c0", CompareOp::kEq,
                      Value("c0_" + std::to_string(i))}});
    }
    for (int j = 0; j < 4; ++j) {
      out.push_back({{"c1", CompareOp::kEq,
                      Value("c1_" + std::to_string(j))}});
    }
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 4; ++j) {
        out.push_back({{"c0", CompareOp::kEq,
                        Value("c0_" + std::to_string(i))},
                       {"c1", CompareOp::kEq,
                        Value("c1_" + std::to_string(j))}});
      }
    }
    return out;
  }
};

/// A failed promote must degrade the answer to the GLOBAL sample —
/// never the evicted (stale) bytes — flag it, count it, and recover
/// byte-exactly once the seam clears.
TEST_F(StoreFaultTest, FailedPromoteDegradesToGlobalSampleAndRecovers) {
  ScopedFaultClear guard;
  const uint64_t budget = std::max<uint64_t>(FullStoreBytes() / 10, 2);
  auto engine = Tabula::Initialize(*table_, StoreOptions(budget, ""));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_GT(engine.value()->sample_store().Stats().cold_samples, 0u);
  auto baseline = Tabula::Initialize(*table_, StoreOptions(0, ""));
  ASSERT_TRUE(baseline.ok());
  const std::vector<RowId> global_rows =
      engine.value()->global_sample().ToRowIds();

  FaultSpec spec;
  spec.code = StatusCode::kIOError;
  FaultInjector::Global().Arm("store.promote", spec);
  size_t degraded = 0;
  for (const auto& where : ProbeQueries()) {
    auto r = engine.value()->Query(QueryRequest(where));
    // A promote failure must NOT fail the request.
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const TabulaQueryResult& result = r.value().result;
    EXPECT_LE(engine.value()->sample_store().bytes(), budget);
    if (result.store_degraded) {
      ++degraded;
      // The degraded answer is exactly the global sample — the evicted
      // local bytes are gone and must never be served.
      EXPECT_FALSE(result.from_local_sample);
      EXPECT_EQ(result.sample.ToRowIds(), global_rows);
    }
  }
  ASSERT_GT(degraded, 0u)
      << "no query hit a cold cell — the probe lost its teeth";
  EXPECT_GE(engine.value()->sample_store().Stats().promote_failures,
            degraded);

  // Disarm and retry: every answer serves locally again, byte-identical
  // to the store-disabled engine (deterministic re-draw).
  FaultInjector::Global().DisarmAll();
  for (const auto& where : ProbeQueries()) {
    auto want = baseline.value()->Query(QueryRequest(where));
    ASSERT_TRUE(want.ok());
    auto got = engine.value()->Query(QueryRequest(where));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got.value().result.store_degraded);
    EXPECT_EQ(got.value().result.sample.ToRowIds(),
              want.value().result.sample.ToRowIds());
    EXPECT_LE(engine.value()->sample_store().bytes(), budget);
  }
}

/// A failed spill write silently downgrades the demotion to drop mode:
/// the victim's loss state survives, no serve ever fails or degrades,
/// and the dropped sample re-derives byte-exactly on its next hit.
TEST_F(StoreFaultTest, FailedSpillWriteNeverLosesLossState) {
  ScopedFaultClear guard;
  const std::string spill = TempPath("tabula_fault_spill_write.bin");
  std::remove(spill.c_str());
  const uint64_t budget = std::max<uint64_t>(FullStoreBytes() / 4, 2);
  auto engine = Tabula::Initialize(*table_, StoreOptions(budget, spill));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto baseline = Tabula::Initialize(*table_, StoreOptions(0, ""));
  ASSERT_TRUE(baseline.ok());
  const size_t iceberg_cells = engine.value()->cube_table().size();

  FaultSpec spec;
  spec.code = StatusCode::kIOError;
  FaultInjector::Global().Arm("store.spill.write", spec);
  // Two passes force promote → demote(spill fails → drop) → promote:
  // the re-promote must re-derive the exact bytes with no spill record.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& where : ProbeQueries()) {
      auto want = baseline.value()->Query(QueryRequest(where));
      ASSERT_TRUE(want.ok());
      auto got = engine.value()->Query(QueryRequest(where));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_FALSE(got.value().result.store_degraded);
      EXPECT_EQ(got.value().result.sample.ToRowIds(),
                want.value().result.sample.ToRowIds());
      EXPECT_LE(engine.value()->sample_store().bytes(), budget);
    }
  }
  EXPECT_GT(engine.value()->sample_store().Stats().spill_write_failures, 0u)
      << "no demotion crossed the armed seam — the test lost its teeth";
  // Loss state intact: the cube still has every iceberg cell.
  EXPECT_EQ(engine.value()->cube_table().size(), iceberg_cells);
  FaultInjector::Global().DisarmAll();
  std::remove(spill.c_str());
}

/// A failed spill READ degrades that serve to the global sample; once
/// the seam clears, the same promote restores the exact spilled bytes.
TEST_F(StoreFaultTest, SpillReadFaultDegradesThenRestoresExactBytes) {
  ScopedFaultClear guard;
  const std::string spill = TempPath("tabula_fault_spill_read.bin");
  std::remove(spill.c_str());
  const uint64_t budget = std::max<uint64_t>(FullStoreBytes() / 10, 2);
  auto engine = Tabula::Initialize(*table_, StoreOptions(budget, spill));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_GT(engine.value()->sample_store().Stats().spill_writes, 0u);
  auto baseline = Tabula::Initialize(*table_, StoreOptions(0, ""));
  ASSERT_TRUE(baseline.ok());
  const std::vector<RowId> global_rows =
      engine.value()->global_sample().ToRowIds();

  FaultSpec spec;
  spec.code = StatusCode::kIOError;
  FaultInjector::Global().Arm("store.spill.read", spec);
  size_t degraded = 0;
  for (const auto& where : ProbeQueries()) {
    auto r = engine.value()->Query(QueryRequest(where));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r.value().result.store_degraded) {
      ++degraded;
      EXPECT_EQ(r.value().result.sample.ToRowIds(), global_rows);
    }
    EXPECT_LE(engine.value()->sample_store().bytes(), budget);
  }
  ASSERT_GT(degraded, 0u)
      << "no promote read a spill record — the test lost its teeth";

  FaultInjector::Global().DisarmAll();
  for (const auto& where : ProbeQueries()) {
    auto want = baseline.value()->Query(QueryRequest(where));
    ASSERT_TRUE(want.ok());
    auto got = engine.value()->Query(QueryRequest(where));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got.value().result.store_degraded);
    EXPECT_EQ(got.value().result.sample.ToRowIds(),
              want.value().result.sample.ToRowIds());
  }
  EXPECT_GT(engine.value()->sample_store().Stats().spill_reads, 0u);
  std::remove(spill.c_str());
}

/// A torn cold-spill side file is kDataLoss at Load time — the loader
/// must refuse the cube rather than admit spill records it would later
/// fail (or misread) on the serve path.
TEST_F(StoreFaultTest, TornColdSpillFileIsDataLossOnLoad) {
  ScopedFaultClear guard;
  const std::string spill = TempPath("tabula_fault_spill_torn.bin");
  const std::string cube = TempPath("tabula_fault_spill_torn.cube");
  std::remove(spill.c_str());
  std::remove(cube.c_str());
  const uint64_t budget = std::max<uint64_t>(FullStoreBytes() / 4, 2);
  TabulaOptions opts = StoreOptions(budget, spill);
  auto engine = Tabula::Initialize(*table_, opts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_GT(engine.value()->sample_store().Stats().spill_writes, 0u);
  ASSERT_TRUE(engine.value()->Save(cube).ok());

  std::string full;
  {
    std::ifstream in(spill, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(full.size(), 16u);

  // Truncated tail: records past the cut are torn.
  {
    std::ofstream out(spill, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() / 2));
  }
  auto truncated = Tabula::Load(*table_, opts, cube);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss)
      << truncated.status().ToString();

  // Flipped bytes mid-file: the checksum must catch silent corruption.
  {
    std::string corrupt = full;
    for (size_t i = corrupt.size() / 2;
         i < std::min(corrupt.size(), corrupt.size() / 2 + 8); ++i) {
      corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    }
    std::ofstream out(spill, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  EXPECT_EQ(Tabula::Load(*table_, opts, cube).status().code(),
            StatusCode::kDataLoss);

  // Missing file entirely: same verdict.
  std::remove(spill.c_str());
  EXPECT_EQ(Tabula::Load(*table_, opts, cube).status().code(),
            StatusCode::kDataLoss);

  // Restore the original bytes: the cube loads again and serves.
  {
    std::ofstream out(spill, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size()));
  }
  auto restored = Tabula::Load(*table_, opts, cube);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::remove(spill.c_str());
  std::remove(cube.c_str());
}

/// store.evict is a delay-only seam: arming it must never change a
/// single served byte.
TEST_F(StoreFaultTest, EvictDelaySeamNeverChangesAnswers) {
  ScopedFaultClear guard;
  const uint64_t budget = std::max<uint64_t>(FullStoreBytes() / 4, 2);
  auto clean = Tabula::Initialize(*table_, StoreOptions(budget, ""));
  ASSERT_TRUE(clean.ok());
  auto delayed = Tabula::Initialize(*table_, StoreOptions(budget, ""));
  ASSERT_TRUE(delayed.ok());

  FaultSpec spec;
  spec.fail = false;
  spec.delay_ms = 0.01;
  FaultInjector::Global().Arm("store.evict", spec);
  for (const auto& where : ProbeQueries()) {
    auto want = clean.value()->Query(QueryRequest(where));
    auto got = delayed.value()->Query(QueryRequest(where));
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().result.sample.ToRowIds(),
              want.value().result.sample.ToRowIds());
  }
  EXPECT_GT(FaultInjector::Global().StatsFor("store.evict").hits, 0u);
  FaultInjector::Global().DisarmAll();
}

TEST_F(FaultSeamTest, ThreadPoolDelaySeamFiresWithoutFailing) {
  ScopedFaultClear guard;
  FaultSpec spec;
  spec.fail = false;
  spec.delay_ms = 0.01;
  FaultInjector::Global().Arm("threadpool.dispatch", spec);
  // Any parallel work crosses the dispatch seam; a delay-only fault
  // must never alter results.
  std::vector<PredicateTerm> everything;
  auto r = tabula_->Query(QueryRequest(everything));
  ASSERT_TRUE(r.ok());
  std::vector<RowId> rows = r.value().result.sample.ToRowIds();
  FaultInjector::Global().DisarmAll();
  auto r2 = tabula_->Query(QueryRequest(everything));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(rows, r2.value().result.sample.ToRowIds());
}

}  // namespace
}  // namespace tabula
