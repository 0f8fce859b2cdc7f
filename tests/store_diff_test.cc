/// Budget-invariant differential suite for the tiered sample store
/// (DESIGN.md §12), run under `ctest -L store`.
///
/// The contract under test:
///  - budget unset / unbounded is a strict pass-through: cube build and
///    every served answer are byte-identical to the store-disabled
///    engine at K ∈ {1, 4} (K = 1 runs the plain Tabula);
///  - under a real budget, resident sample bytes never exceed it after
///    ANY step (build, query, refresh, ingest, load);
///  - every served answer is within θ of ground truth (direct predicate
///    scan / BuildOracleCube) or honestly flagged degraded;
///  - promote → demote → promote round-trips byte-exactly for
///    sole-owner samples: with representative-sample selection off,
///    budgeted answers are byte-identical to the pre-tiering engine at
///    any budget, in both spill mode and deterministic re-draw mode.
///    With selection ON a demoted shared slot legitimately re-promotes
///    per-cell (see PromoteLocked), so each answer must be byte-equal
///    to either the original shared bytes or the cell's deterministic
///    private re-draw — never a third sample;
///  - Save/Load round-trips tier state (v4), and pre-store files load
///    as all-kWarm.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/tabula.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "engine_at_k.h"
#include "loss/loss_registry.h"
#include "obs/trace.h"
#include "shard/sharded_tabula.h"
#include "storage/predicate.h"
#include "testing/oracle.h"

namespace tabula {
namespace {

constexpr size_t kShardCounts[] = {1, 4};
/// Large enough that nothing ever demotes, so the store's only effect
/// is hit accounting — the byte-identity baseline with tiering ON.
constexpr uint64_t kUnbounded = 1ull << 40;
/// Keeps lazy promotes on kWarm: the hot tier re-draws at a tighter θ
/// (different bytes by design), which the dedicated hot-tier test
/// covers; the byte-identity suites pin the warm round-trip.
constexpr uint64_t kNeverHot = 1u << 30;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct DiffFixture {
  std::unique_ptr<Table> table;
  std::vector<std::string> attrs;
};

DiffFixture MakeFixture(uint64_t seed, size_t rows) {
  SyntheticGeneratorOptions gen;
  gen.seed = seed * 7919 + 11;
  gen.num_rows = rows;
  gen.cell_spread = 1.1;
  gen.noise = 0.1;
  gen.columns.clear();
  Rng rng(seed * 13 + 5);
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

ShardedTabulaOptions MakeOptions(const DiffFixture& f, uint64_t seed,
                                 size_t k,
                                 std::shared_ptr<const LossFunction> loss,
                                 double theta, uint64_t budget,
                                 bool selection) {
  ShardedTabulaOptions o;
  o.base.cubed_attributes = f.attrs;
  o.base.owned_loss = std::move(loss);
  o.base.threshold = theta;
  o.base.seed = seed;
  o.base.enable_sample_selection = selection;
  o.base.store.budget_bytes = budget;
  o.base.store.hot_promote_hits = kNeverHot;
  o.num_shards = k;
  o.partition =
      (seed + k) % 2 == 0 ? ShardPartition::kHash : ShardPartition::kRange;
  return o;
}

/// loss(truth, sample) <= θ with truth from a direct predicate scan —
/// the paper's deterministic guarantee, zero cube code involved.
void CheckThetaBound(const DiffFixture& f, const LossFunction& loss,
                     double theta, const WorkloadQuery& q,
                     const TabulaQueryResult& result, size_t k,
                     uint64_t seed) {
  auto bound = BoundPredicate::Bind(*f.table, q.where);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  std::vector<RowId> truth = bound.value().FilterAll();
  if (result.empty_cell) {
    EXPECT_TRUE(truth.empty()) << "seed=" << seed << " k=" << k;
  }
  if (truth.empty()) return;
  DatasetView truth_view(f.table.get(), std::move(truth));
  auto l = loss.Loss(truth_view, result.sample);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  EXPECT_LE(l.value(), theta * (1.0 + 1e-7) + 1e-12)
      << "seed=" << seed << " k=" << k << " query=" << q.ToString();
}

double MakeTheta(uint64_t seed) {
  Rng rng(seed * 977 + 3);
  return 0.05 + rng.UniformDouble(0.0, 0.05);
}

/// One seed's full differential: disabled vs unbounded (byte-identical),
/// then budget ∈ {50%, 10%} (θ-or-degraded + byte-budget invariant +
/// promote round-trip reproduction over two passes).
///
/// `selection` OFF makes every sample sole-owner, so budgeted answers
/// must reproduce the disabled engine's bytes exactly at any budget.
/// With it ON, a demoted shared representative re-promotes per-cell, so
/// at K = 1 each budgeted answer must byte-match either the original
/// (shared) bytes or the deterministic private re-draw — which is
/// exactly the selection-off engine's answer for that query.
void RunBudgetDiff(uint64_t seed, size_t rows, bool selection) {
  DiffFixture f = MakeFixture(seed, rows);
  const double theta = MakeTheta(seed);
  std::shared_ptr<const LossFunction> loss = MakeLoss();

  WorkloadOptions wopt;
  wopt.num_queries = 10;
  wopt.seed = seed * 101 + 7;
  auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
  ASSERT_TRUE(qs.ok()) << qs.status().ToString();

  // Private re-draw oracle for the selection-ON membership check.
  std::vector<std::vector<RowId>> redraw_rows;
  if (selection) {
    auto noshare = EngineAtK::Initialize(
        *f.table, MakeOptions(f, seed, 1, loss, theta, 0, false));
    ASSERT_TRUE(noshare.ok()) << noshare.status().ToString();
    for (const WorkloadQuery& q : qs.value()) {
      auto r = noshare.value()->Query(QueryRequest(q.where));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      redraw_rows.push_back(r.value().result.sample.ToRowIds());
    }
  }

  for (size_t k : kShardCounts) {
    auto disabled = EngineAtK::Initialize(
        *f.table, MakeOptions(f, seed, k, loss, theta, 0, selection));
    ASSERT_TRUE(disabled.ok()) << disabled.status().ToString();
    auto unbounded = EngineAtK::Initialize(
        *f.table, MakeOptions(f, seed, k, loss, theta, kUnbounded,
                              selection));
    ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();

    // The store must not perturb classification.
    EXPECT_EQ(unbounded.value().IcebergKeys(),
              disabled.value().IcebergKeys())
        << "seed=" << seed << " k=" << k;
    // Nothing demoted under the unbounded budget.
    EXPECT_EQ(unbounded.value().StoreStats().cold_samples, 0u);
    EXPECT_EQ(unbounded.value().StoreStats().demotes, 0u);

    // Unbounded answers are byte-identical to the disabled engine's —
    // two passes, so hit accounting provably never perturbs a sample.
    std::vector<std::vector<RowId>> want_rows;
    for (int pass = 0; pass < 2; ++pass) {
      for (const WorkloadQuery& q : qs.value()) {
        auto want = disabled.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        auto got = unbounded.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const TabulaQueryResult& w = want.value().result;
        const TabulaQueryResult& g = got.value().result;
        EXPECT_FALSE(w.store_degraded);
        EXPECT_FALSE(g.store_degraded);
        EXPECT_EQ(g.from_local_sample, w.from_local_sample)
            << "seed=" << seed << " k=" << k << " query=" << q.ToString();
        EXPECT_EQ(g.empty_cell, w.empty_cell);
        EXPECT_EQ(g.sample.ToRowIds(), w.sample.ToRowIds())
            << "seed=" << seed << " k=" << k << " query=" << q.ToString();
        if (pass == 0) want_rows.push_back(w.sample.ToRowIds());
      }
    }

    const uint64_t full = unbounded.value().StoreBytes();
    ASSERT_GT(full, 0u) << "seed=" << seed << " k=" << k;

    for (uint64_t divisor : {2u, 10u}) {
      const uint64_t budget =
          std::max<uint64_t>(full / divisor, static_cast<uint64_t>(k) + 2);
      auto budgeted = EngineAtK::Initialize(
          *f.table,
          MakeOptions(f, seed, k, loss, theta, budget, selection));
      ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
      EngineAtK& engine = budgeted.value();

      // Build step already honors the budget.
      EXPECT_LE(engine.StoreBytes(), budget)
          << "seed=" << seed << " k=" << k << " divisor=" << divisor;
      // Classification is budget-independent (only residency changes).
      EXPECT_EQ(engine.IcebergKeys(),
                disabled.value().IcebergKeys());

      // Two passes: pass 1 promotes cold cells (and demotes victims);
      // pass 2 re-promotes cells evicted by pass 1 — so a cell crossing
      // promote → demote → promote must reproduce its promoted bytes.
      for (int pass = 0; pass < 2; ++pass) {
        size_t qi = 0;
        for (const WorkloadQuery& q : qs.value()) {
          auto got = engine->Query(QueryRequest(q.where));
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const TabulaQueryResult& result = got.value().result;
          // The budget invariant holds after EVERY query (promotes
          // must evict-before-admit, never overshoot).
          EXPECT_LE(engine.StoreBytes(), budget)
              << "seed=" << seed << " k=" << k << " divisor=" << divisor
              << " pass=" << pass << " query=" << q.ToString();
          // No faults armed: nothing may degrade in a clean run.
          ASSERT_FALSE(result.store_degraded)
              << "seed=" << seed << " k=" << k << " query=" << q.ToString();
          EXPECT_TRUE(result.unavailable_shards.empty());
          const std::vector<RowId> got_ids = result.sample.ToRowIds();
          if (!selection) {
            // Sole-owner samples: the deterministic re-draw restores
            // the exact build bytes, so any budget is byte-identical
            // to the unbounded engine.
            EXPECT_EQ(got_ids, want_rows[qi])
                << "seed=" << seed << " k=" << k << " divisor=" << divisor
                << " pass=" << pass << " query=" << q.ToString();
          } else if (k == 1) {
            // Shared slots may have re-promoted per-cell: the answer is
            // either the original bytes or the deterministic private
            // re-draw — never a third sample. (At K > 1 a merged answer
            // can mix both regimes across shards, so the per-query
            // membership check only holds single-instance.)
            EXPECT_TRUE(got_ids == want_rows[qi] ||
                        got_ids == redraw_rows[qi])
                << "seed=" << seed << " divisor=" << divisor
                << " pass=" << pass << " query=" << q.ToString();
          }
          CheckThetaBound(f, *loss, theta, q, result, k, seed);
          ++qi;
        }
      }
      if (divisor == 10 && full > 64) {
        // The tight budget actually exercised tiering.
        const SampleStoreStats stats = engine.StoreStats();
        EXPECT_GT(stats.demotes, 0u)
            << "seed=" << seed << " k=" << k
            << " (10% budget never demoted — test lost its teeth)";
      }
    }
  }
}

TEST(StoreDiff, SoleOwnerBudgetsAreByteIdenticalSeeds1To11) {
  for (uint64_t seed = 1; seed <= 11; ++seed) {
    RunBudgetDiff(seed, 400, /*selection=*/false);
  }
}

TEST(StoreDiff, SharedRepresentativeBudgetsSeeds12To22) {
  for (uint64_t seed = 12; seed <= 22; ++seed) {
    RunBudgetDiff(seed, 320, /*selection=*/true);
  }
}

/// Spill mode (single-instance only): cold sole-owner samples
/// round-trip through the side file and restore the exact build bytes
/// on first hit.
TEST(StoreDiff, SpillModePromotesByteIdenticalSamples) {
  for (uint64_t seed : {3u, 8u, 14u}) {
    DiffFixture f = MakeFixture(seed, 400);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();

    auto baseline = EngineAtK::Initialize(
        *f.table, MakeOptions(f, seed, 1, loss, theta, 0, false));
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const uint64_t full =
        EngineAtK::Initialize(
            *f.table, MakeOptions(f, seed, 1, loss, theta, kUnbounded,
                                  false))
            .value()
            .StoreBytes();

    TabulaOptions spill_opts = MakeOptions(f, seed, 1, loss, theta,
                                           std::max<uint64_t>(full / 4, 2),
                                           false)
                                   .base;
    spill_opts.store.spill_path =
        TempPath("store_diff_spill_" + std::to_string(seed) + ".bin");
    std::remove(spill_opts.store.spill_path.c_str());
    auto spilled = Tabula::Initialize(*f.table, spill_opts);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_LE(spilled.value()->sample_store().bytes(),
              spill_opts.store.budget_bytes);
    ASSERT_GT(spilled.value()->sample_store().Stats().cold_samples, 0u)
        << "seed=" << seed << " (nothing spilled — test lost its teeth)";

    WorkloadOptions wopt;
    wopt.num_queries = 12;
    wopt.seed = seed * 101 + 7;
    auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
    ASSERT_TRUE(qs.ok());
    for (int pass = 0; pass < 2; ++pass) {
      for (const WorkloadQuery& q : qs.value()) {
        auto want = baseline.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(want.ok());
        auto got = spilled.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_FALSE(got.value().result.store_degraded);
        EXPECT_EQ(got.value().result.sample.ToRowIds(),
                  want.value().result.sample.ToRowIds())
            << "seed=" << seed << " pass=" << pass
            << " query=" << q.ToString();
        EXPECT_LE(spilled.value()->sample_store().bytes(),
                  spill_opts.store.budget_bytes);
      }
    }
    EXPECT_GT(spilled.value()->sample_store().Stats().spill_reads, 0u);
    std::remove(spill_opts.store.spill_path.c_str());
  }
}

/// The hot tier: once a cell crosses `hot_promote_hits`, a lazy promote
/// re-draws at θ × hot_theta_factor. Hot answers must meet the TIGHTER
/// bound, and the budget invariant survives the larger hot samples.
TEST(StoreDiff, HotTierServesTighterThetaUnderBudget) {
  for (uint64_t seed : {5u, 9u}) {
    DiffFixture f = MakeFixture(seed, 400);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();

    auto probe = EngineAtK::Initialize(
        *f.table, MakeOptions(f, seed, 1, loss, theta, kUnbounded, false));
    ASSERT_TRUE(probe.ok());
    const uint64_t budget =
        std::max<uint64_t>(probe.value().StoreBytes() / 2, 2);

    TabulaOptions opts =
        MakeOptions(f, seed, 1, loss, theta, budget, false).base;
    opts.store.hot_promote_hits = 2;
    opts.store.hot_theta_factor = 0.5;
    auto engine = Tabula::Initialize(*f.table, opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    WorkloadOptions wopt;
    wopt.num_queries = 8;
    wopt.seed = seed * 101 + 7;
    auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
    ASSERT_TRUE(qs.ok());
    // Several passes: hits accumulate past the hot threshold, and the
    // tight budget keeps demoting, so lazy promotes land hot.
    for (int pass = 0; pass < 4; ++pass) {
      for (const WorkloadQuery& q : qs.value()) {
        auto got = engine.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_FALSE(got.value().result.store_degraded);
        EXPECT_LE(engine.value()->sample_store().bytes(), budget);
      }
    }
    // The maintenance sweep upgrades hit-heavy resident cells too.
    ASSERT_TRUE(engine.value()->MaintainStoreTiers().ok());
    EXPECT_LE(engine.value()->sample_store().bytes(), budget);
    EXPECT_GT(engine.value()->sample_store().Stats().hot_samples, 0u)
        << "seed=" << seed << " (no cell ever went hot)";

    // Every answer still meets plain θ (hot cells meet the tighter
    // bound by construction; θ is the user-facing contract).
    for (const WorkloadQuery& q : qs.value()) {
      auto got = engine.value()->Query(QueryRequest(q.where));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_LE(engine.value()->sample_store().bytes(), budget);
      CheckThetaBound(f, *loss, theta, q, got.value().result, 1, seed);
    }
  }
}

/// spill_path is single-instance only: K > 1 demotes in drop mode and
/// must reject the option instead of silently ignoring it.
TEST(StoreDiff, SpillPathRejectedAtKGreaterThanOne) {
  DiffFixture f = MakeFixture(2, 200);
  ShardedTabulaOptions o =
      MakeOptions(f, 2, 4, MakeLoss(), 0.07, 4096, true);
  o.base.store.spill_path = TempPath("store_diff_rejected_spill.bin");
  auto engine = EngineAtK::Initialize(*f.table, o);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

/// A budget too small to give every store a non-zero slice is a
/// configuration error, not a silent disable.
TEST(StoreDiff, DegenerateShardBudgetRejected) {
  DiffFixture f = MakeFixture(2, 200);
  auto engine = EngineAtK::Initialize(
      *f.table, MakeOptions(f, 2, 4, MakeLoss(), 0.07, 3, true));
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

/// Answers under a budget are within θ of the brute-force oracle cube
/// (the ISSUE's ground truth, sharing no code with the engine): every
/// oracle iceberg cell is queried directly and the served sample's loss
/// against the oracle's raw rows must meet θ.
TEST(StoreDiff, BudgetedAnswersWithinThetaOfOracleCube) {
  for (uint64_t seed : {1u, 4u, 7u}) {
    DiffFixture f = MakeFixture(seed, 300);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();

    auto unbounded = EngineAtK::Initialize(
        *f.table, MakeOptions(f, seed, 1, loss, theta, kUnbounded, true));
    ASSERT_TRUE(unbounded.ok());
    const uint64_t budget =
        std::max<uint64_t>(unbounded.value().StoreBytes() / 3, 2);

    TabulaOptions opts =
        MakeOptions(f, seed, 1, loss, theta, budget, true).base;
    auto engine = Tabula::Initialize(*f.table, opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    // Brute-force cube sharing only the encoder layout and the engine's
    // global sample (iceberg classification depends on both).
    auto enc = KeyEncoder::Make(*f.table, f.attrs);
    ASSERT_TRUE(enc.ok());
    std::vector<size_t> all_cols(f.attrs.size());
    for (size_t i = 0; i < f.attrs.size(); ++i) all_cols[i] = i;
    auto packer = KeyPacker::Make(enc.value(), all_cols);
    ASSERT_TRUE(packer.ok());
    auto oracle = BuildOracleCube(*f.table, enc.value(), packer.value(),
                                  *loss, engine.value()->global_sample(),
                                  theta);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    for (const OracleCell& cell : oracle.value().cells) {
      if (!cell.iceberg) continue;
      ASSERT_FALSE(cell.rows.empty());
      // Reconstruct the cell's equality predicate from its first row.
      WorkloadQuery q;
      for (size_t i = 0; i < f.attrs.size(); ++i) {
        if ((cell.cuboid & (CuboidMask{1} << i)) == 0) continue;
        auto col = f.table->schema().FieldIndex(f.attrs[i]);
        ASSERT_TRUE(col.ok());
        q.where.push_back({f.attrs[i], CompareOp::kEq,
                           f.table->GetValue(col.value(), cell.rows[0])});
      }
      if (q.where.empty()) continue;  // the All vertex is not a filter
      auto got = engine.value()->Query(QueryRequest(q.where));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const TabulaQueryResult& result = got.value().result;
      ASSERT_FALSE(result.store_degraded);
      EXPECT_LE(engine.value()->sample_store().bytes(), budget);
      DatasetView truth(f.table.get(), cell.rows);
      auto l = loss->Loss(truth, result.sample);
      ASSERT_TRUE(l.ok()) << l.status().ToString();
      EXPECT_LE(l.value(), theta * (1.0 + 1e-7) + 1e-12)
          << "seed=" << seed << " cell key=" << cell.key;
    }
  }
}

/// Refresh and the four-phase ingest keep the budget invariant: tier
/// transitions are commit-phase-only and the rebuilt stores re-enforce
/// their slices before queries resume.
TEST(StoreDiff, RefreshAndIngestKeepBudgetInvariant) {
  for (uint64_t seed : {2u, 5u, 9u, 12u}) {
    DiffFixture f = MakeFixture(seed, 360);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();

    SyntheticGeneratorOptions donor_gen;
    donor_gen.seed = seed * 7919 + 12;
    donor_gen.num_rows = 150;
    donor_gen.cell_spread = 1.1;
    donor_gen.noise = 0.1;
    donor_gen.columns.clear();
    Rng rng(seed * 13 + 5);
    const size_t ncols = 2 + (seed % 2);
    for (size_t c = 0; c < ncols; ++c) {
      SyntheticColumnSpec col;
      col.name = "c" + std::to_string(c);
      col.cardinality = 2 + static_cast<uint32_t>(rng.UniformInt(0, 3));
      col.zipf_skew = rng.Bernoulli(0.5) ? 0.8 : 0.0;
      donor_gen.columns.push_back(col);
    }
    std::unique_ptr<Table> donor = SyntheticGenerator(donor_gen).Generate();

    for (size_t k : kShardCounts) {
      auto probe = EngineAtK::Initialize(
          *f.table, MakeOptions(f, seed, k, loss, theta, kUnbounded, true));
      ASSERT_TRUE(probe.ok());
      const uint64_t budget = std::max<uint64_t>(
          probe.value().StoreBytes() / 2, static_cast<uint64_t>(k) + 2);
      probe = Result<EngineAtK>(EngineAtK());

      auto engine = EngineAtK::Initialize(
          *f.table, MakeOptions(f, seed, k, loss, theta, budget, true));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();

      WorkloadOptions wopt;
      wopt.num_queries = 8;
      wopt.seed = seed * 101 + 7;
      auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
      ASSERT_TRUE(qs.ok());

      for (size_t r = 0; r < donor->num_rows(); ++r) {
        ASSERT_TRUE(
            f.table->AppendRowFrom(*donor, static_cast<RowId>(r)).ok());
      }
      // Interleave a few pre-refresh queries (promotes under the old
      // tiers), then refresh — commit must re-enforce the budget.
      for (size_t i = 0; i < 3 && i < qs.value().size(); ++i) {
        auto got = engine.value()->Query(QueryRequest(qs.value()[i].where));
        ASSERT_TRUE(got.ok());
        EXPECT_LE(engine.value().StoreBytes(), budget);
      }
      Status st = engine.value()->Refresh();
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_LE(engine.value().StoreBytes(), budget)
          << "seed=" << seed << " k=" << k << " (post-refresh)";

      for (const WorkloadQuery& q : qs.value()) {
        auto got = engine.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_FALSE(got.value().result.store_degraded);
        EXPECT_LE(engine.value().StoreBytes(), budget)
            << "seed=" << seed << " k=" << k;
        CheckThetaBound(f, *loss, theta, q, got.value().result, k, seed);
      }

      // Explicit four-phase cycle over a second append batch.
      for (size_t r = 0; r < 60; ++r) {
        ASSERT_TRUE(
            f.table->AppendRowFrom(*donor, static_cast<RowId>(r)).ok());
      }
      auto plan = engine.value()->PlanIngest();
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      engine.value()->BeginIngest(plan.value().get());
      ASSERT_TRUE(engine.value()->ExecuteIngest(plan.value().get()).ok());
      ASSERT_TRUE(
          engine.value()->CommitIngest(std::move(plan).value()).ok());
      EXPECT_LE(engine.value().StoreBytes(), budget)
          << "seed=" << seed << " k=" << k << " (post-ingest)";
      for (const WorkloadQuery& q : qs.value()) {
        auto got = engine.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_LE(engine.value().StoreBytes(), budget);
        CheckThetaBound(f, *loss, theta, q, got.value().result, k, seed);
      }
    }
  }
}

/// Save/Load: tier state round-trips (file format v4), the loaded
/// engine honors the budget, and its answers match the saving engine's
/// unbounded baseline byte-for-byte (sole-owner cold cells re-promote
/// deterministically after the load; selection off makes every sample
/// sole-owner).
TEST(StoreDiff, SaveLoadRoundTripsTierState) {
  for (uint64_t seed : {3u, 6u}) {
    DiffFixture f = MakeFixture(seed, 360);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();

    for (size_t k : kShardCounts) {
      auto unbounded = EngineAtK::Initialize(
          *f.table, MakeOptions(f, seed, k, loss, theta, kUnbounded,
                                false));
      ASSERT_TRUE(unbounded.ok());
      const uint64_t budget = std::max<uint64_t>(
          unbounded.value().StoreBytes() / 3, static_cast<uint64_t>(k) + 2);

      auto engine = EngineAtK::Initialize(
          *f.table, MakeOptions(f, seed, k, loss, theta, budget, false));
      ASSERT_TRUE(engine.ok());
      ASSERT_GT(engine.value().StoreStats().cold_samples, 0u)
          << "seed=" << seed << " k=" << k;

      const std::string path = TempPath(
          "store_diff_manifest_" + std::to_string(seed) + "_" +
          std::to_string(k) + ".bin");
      ASSERT_TRUE(engine.value()->Save(path).ok());

      auto loaded = EngineAtK::Load(
          *f.table, MakeOptions(f, seed, k, loss, theta, budget, false),
          path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_LE(loaded.value().StoreBytes(), budget);
      // Tier words round-tripped: the cold set survived the reload.
      EXPECT_EQ(loaded.value().StoreStats().cold_samples,
                engine.value().StoreStats().cold_samples)
          << "seed=" << seed << " k=" << k;

      WorkloadOptions wopt;
      wopt.num_queries = 10;
      wopt.seed = seed * 101 + 7;
      auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
      ASSERT_TRUE(qs.ok());
      for (const WorkloadQuery& q : qs.value()) {
        auto want = unbounded.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(want.ok());
        auto got = loaded.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_FALSE(got.value().result.store_degraded);
        EXPECT_LE(loaded.value().StoreBytes(), budget);
        EXPECT_EQ(got.value().result.sample.ToRowIds(),
                  want.value().result.sample.ToRowIds())
            << "seed=" << seed << " k=" << k << " query=" << q.ToString();
      }
      std::remove(path.c_str());
    }
  }
}

/// A loaded manifest re-derives nothing up front: its partitions have no
/// finest states or present-cell sets until the first ingest cycle. Cold
/// shard slices and cold override samples must still promote to their
/// exact build bytes straight after the load.
TEST(StoreDiff, LoadedManifestPromotesColdSamplesBeforeAnyIngest) {
  for (uint64_t seed : {3u, 6u, 11u}) {
    DiffFixture f = MakeFixture(seed, 400);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();
    auto unbounded = ShardedTabula::Initialize(
        *f.table, MakeOptions(f, seed, 4, loss, theta, kUnbounded, false));
    ASSERT_TRUE(unbounded.ok());
    const uint64_t budget =
        std::max<uint64_t>(unbounded.value()->StoreBytes() / 8, 6);
    auto engine = ShardedTabula::Initialize(
        *f.table, MakeOptions(f, seed, 4, loss, theta, budget, false));
    ASSERT_TRUE(engine.ok());
    const std::string path =
        TempPath("store_diff_loaded_" + std::to_string(seed) + ".bin");
    ASSERT_TRUE(engine.value()->Save(path).ok());
    auto loaded = ShardedTabula::Load(
        *f.table, MakeOptions(f, seed, 4, loss, theta, budget, false), path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_GT(loaded.value()->StoreStats().cold_samples, 0u);

    WorkloadOptions wopt;
    wopt.num_queries = 120;
    wopt.seed = seed * 101 + 9;
    auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
    ASSERT_TRUE(qs.ok());
    for (const WorkloadQuery& q : qs.value()) {
      auto want = unbounded.value()->Query(QueryRequest(q.where));
      auto got = loaded.value()->Query(QueryRequest(q.where));
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_FALSE(got.value().result.store_degraded)
          << "seed=" << seed << " query=" << q.ToString();
      EXPECT_EQ(got.value().result.sample.ToRowIds(),
                want.value().result.sample.ToRowIds())
          << "seed=" << seed << " query=" << q.ToString();
    }
    EXPECT_GT(loaded.value()->StoreStats().promotes, 0u);
    std::remove(path.c_str());
  }
}

/// A cold shard slice promotes through its partition's store path, so a
/// traced K = 4 engine records each promote as a `store.promote` span
/// parented under the `tabula.query` span that missed.
TEST(StoreDiff, ShardedColdPromoteRecordsStoreSpanUnderQuery) {
  const uint64_t seed = 6;
  DiffFixture f = MakeFixture(seed, 360);
  const double theta = MakeTheta(seed);
  std::shared_ptr<const LossFunction> loss = MakeLoss();
  auto unbounded = EngineAtK::Initialize(
      *f.table, MakeOptions(f, seed, 4, loss, theta, kUnbounded, false));
  ASSERT_TRUE(unbounded.ok());
  const uint64_t budget =
      std::max<uint64_t>(unbounded.value().StoreBytes() / 4, 6);

  Tracer tracer(TracerOptions{TraceMode::kAll, /*capacity=*/4096});
  ShardedTabulaOptions options =
      MakeOptions(f, seed, 4, loss, theta, budget, false);
  options.base.tracer = &tracer;
  auto engine = ShardedTabula::Initialize(*f.table, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_GT(engine.value()->StoreStats().cold_samples, 0u);

  WorkloadOptions wopt;
  wopt.num_queries = 20;
  wopt.seed = seed * 101 + 7;
  auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
  ASSERT_TRUE(qs.ok());
  for (const WorkloadQuery& q : qs.value()) {
    auto got = engine.value()->Query(QueryRequest(q.where));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_FALSE(got.value().result.store_degraded);
  }
  ASSERT_GT(engine.value()->StoreStats().promotes, 0u);

  const std::vector<SpanRecord> spans = tracer.Snapshot();
  size_t promote_spans = 0;
  for (const SpanRecord& span : spans) {
    if (span.name != "store.promote") continue;
    ++promote_spans;
    auto parent = std::find_if(
        spans.begin(), spans.end(),
        [&](const SpanRecord& s) { return s.span_id == span.parent_id; });
    ASSERT_NE(parent, spans.end());
    EXPECT_EQ(parent->name, "tabula.query");
  }
  EXPECT_GT(promote_spans, 0u);
}

/// An override sample (a cell whose shard union violated θ at merge
/// time) that starts cold promotes through the same store path as a
/// partition's slice: each promote is a `store.promote` span parented
/// under the `tabula.query` span that missed, and the promoted answers
/// equal the unbounded engine's.
TEST(StoreDiff, ShardedColdOverridePromoteRecordsStoreSpanUnderQuery) {
  const uint64_t seed = 11;
  DiffFixture f = MakeFixture(seed, 400);
  const double theta = MakeTheta(seed);
  std::shared_ptr<const LossFunction> loss = MakeLoss();
  auto unbounded = ShardedTabula::Initialize(
      *f.table, MakeOptions(f, seed, 4, loss, theta, kUnbounded, false));
  ASSERT_TRUE(unbounded.ok());
  ASSERT_GT(unbounded.value()->init_stats().resampled_cells, 0u);
  const uint64_t budget =
      std::max<uint64_t>(unbounded.value()->StoreBytes() / 8, 6);

  Tracer tracer(TracerOptions{TraceMode::kAll, /*capacity=*/1 << 15});
  ShardedTabulaOptions options =
      MakeOptions(f, seed, 4, loss, theta, budget, false);
  options.base.tracer = &tracer;
  auto engine = ShardedTabula::Initialize(*f.table, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Every cell of the cube: each attribute at one of its values or '*'.
  std::vector<std::vector<PredicateTerm>> cells = {{}};
  for (const std::string& attr : f.attrs) {
    const Column* column = f.table->ColumnByName(attr).value();
    std::vector<Value> values;
    for (size_t r = 0; r < f.table->num_rows(); ++r) {
      Value v = column->GetValue(r);
      if (std::find(values.begin(), values.end(), v) == values.end()) {
        values.push_back(v);
      }
    }
    std::vector<std::vector<PredicateTerm>> grown;
    for (const auto& where : cells) {
      grown.push_back(where);
      for (const Value& v : values) {
        grown.push_back(where);
        grown.back().push_back({attr, CompareOp::kEq, v});
      }
    }
    cells = std::move(grown);
  }
  for (const auto& where : cells) {
    auto want = unbounded.value()->Query(QueryRequest(where));
    auto got = engine.value()->Query(QueryRequest(where));
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_FALSE(got.value().result.store_degraded);
    EXPECT_EQ(got.value().result.sample.ToRowIds(),
              want.value().result.sample.ToRowIds());
  }

  // An override answer is served without a fan-out, so a promote whose
  // query span has no `shard.query.fanout` child restored an override.
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  auto span_by_id = [&](uint64_t id) {
    return std::find_if(spans.begin(), spans.end(),
                        [&](const SpanRecord& s) { return s.span_id == id; });
  };
  size_t promote_spans = 0, override_promote_spans = 0;
  for (const SpanRecord& span : spans) {
    if (span.name != "store.promote") continue;
    ++promote_spans;
    auto parent = span_by_id(span.parent_id);
    ASSERT_NE(parent, spans.end());
    EXPECT_EQ(parent->name, "tabula.query");
    const bool fanned_out =
        std::any_of(spans.begin(), spans.end(), [&](const SpanRecord& s) {
          return s.parent_id == parent->span_id &&
                 s.name == "shard.query.fanout";
        });
    if (!fanned_out) ++override_promote_spans;
  }
  EXPECT_GT(override_promote_spans, 0u);
  const SampleStoreStats stats = engine.value()->StoreStats();
  EXPECT_EQ(promote_spans, stats.promotes + stats.promote_failures);
}

/// Compatibility both ways across the format boundary: a pre-store
/// (budget-unset) file loads into a store-enabled engine as all-kWarm;
/// a file carrying cold tiers refuses to load store-disabled (the cold
/// cells would silently serve empty samples).
TEST(StoreDiff, FormatCompatibilityAcrossStoreBoundary) {
  DiffFixture f = MakeFixture(4, 360);
  const double theta = MakeTheta(4);
  std::shared_ptr<const LossFunction> loss = MakeLoss();

  for (size_t k : kShardCounts) {
    // Pre-store file (v3): written with the store disabled.
    auto disabled = EngineAtK::Initialize(
        *f.table, MakeOptions(f, 4, k, loss, theta, 0, true));
    ASSERT_TRUE(disabled.ok());
    const std::string v3_path =
        TempPath("store_diff_v3_" + std::to_string(k) + ".bin");
    ASSERT_TRUE(disabled.value()->Save(v3_path).ok());

    auto upgraded = EngineAtK::Load(
        *f.table, MakeOptions(f, 4, k, loss, theta, kUnbounded, true),
        v3_path);
    ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
    const SampleStoreStats stats = upgraded.value().StoreStats();
    EXPECT_EQ(stats.cold_samples, 0u) << "k=" << k;
    EXPECT_GT(stats.warm_samples, 0u) << "k=" << k;
    std::remove(v3_path.c_str());

    // Store file with cold tiers (v4): refuses a store-disabled load.
    auto unbounded = EngineAtK::Initialize(
        *f.table, MakeOptions(f, 4, k, loss, theta, kUnbounded, true));
    ASSERT_TRUE(unbounded.ok());
    const uint64_t budget = std::max<uint64_t>(
        unbounded.value().StoreBytes() / 4, static_cast<uint64_t>(k) + 2);
    auto tight = EngineAtK::Initialize(
        *f.table, MakeOptions(f, 4, k, loss, theta, budget, true));
    ASSERT_TRUE(tight.ok());
    ASSERT_GT(tight.value().StoreStats().cold_samples, 0u) << "k=" << k;
    const std::string v4_path =
        TempPath("store_diff_v4_" + std::to_string(k) + ".bin");
    ASSERT_TRUE(tight.value()->Save(v4_path).ok());

    auto refused = EngineAtK::Load(
        *f.table, MakeOptions(f, 4, k, loss, theta, 0, true), v4_path);
    EXPECT_FALSE(refused.ok()) << "k=" << k;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << "k=" << k << ": " << refused.status().ToString();
    std::remove(v4_path.c_str());
  }
}

}  // namespace
}  // namespace tabula
