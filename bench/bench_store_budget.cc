/// Tiered-sample-store Pareto sweep: loss / latency / memory at budget
/// ∈ {25%, 50%, 100%} of the unbounded resident sample bytes, replaying
/// a Zipf-ranked dashboard workload (rank-frequency s=1.0 over a pool
/// of cube cells — most hits land on a few hot viewports, the access
/// pattern the CLOCK policy is built for).
///
/// Per budget point the replay records latency percentiles, resident
/// bytes (current and max seen after every single query — the budget
/// invariant's left-hand side), θ-checked loss on every Nth answer, and
/// the store counters (hits / promotes / demotes / hot samples). The
/// store-disabled engine runs first as the pre-tiering baseline.
///
///   --smoke        small fixed scale + the CI gates: budget=100% must
///                  answer byte-identical to the store-disabled engine,
///                  resident bytes may never exceed the budget at any
///                  step, θ may never be violated on a served answer
///                  that is not flagged store_degraded (and no answer
///                  may degrade at all — nothing is faulted here), and
///                  budget=50% p95 latency must stay within 10x the
///                  unbounded p95 (+0.5ms slack for timer noise).
///   --seed/--rows/--queries  effective-config overrides (bench_common)
///
///   TABULA_SCALE   table rows   (default 60000)
///   TABULA_SEED    dataset seed (default 7)
///
/// Writes BENCH_store_budget.json with the Pareto points (not under
/// --smoke).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/tabula.h"
#include "storage/predicate.h"

namespace tabula {
namespace bench {
namespace {

/// One Pareto point of the sweep.
struct BudgetPoint {
  std::string label;
  uint64_t budget_bytes = 0;      ///< 0 = store disabled (baseline)
  double build_ms = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;
  uint64_t resident_bytes = 0;    ///< after the replay
  uint64_t max_resident_bytes = 0;///< max seen after any query
  double mean_loss = 0.0;         ///< over the θ-checked answers
  double max_loss = 0.0;
  size_t theta_checks = 0;
  size_t theta_violations = 0;    ///< non-degraded answers above θ
  size_t degraded = 0;
  SampleStoreStats store;
  bool identical_to_baseline = true;
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace
}  // namespace bench
}  // namespace tabula

int main(int argc, char** argv) {
  using namespace tabula;
  using namespace tabula::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  if (smoke) {
    config.rows = std::min<size_t>(config.rows, 20000);
  }

  TaxiGeneratorOptions gen;
  gen.num_rows = config.rows;
  gen.seed = config.seed;
  std::unique_ptr<Table> table = TaxiGenerator(gen).Generate();
  const std::vector<std::string> attrs = Attributes(3);
  const double theta = 0.05;
  auto loss =
      MakeLossFunction("mean_loss", {.columns = {"fare_amount"}}).value();

  std::printf("Tiered-store budget sweep: %zu rows, mean loss theta=%.2f, "
              "%zu attributes\n",
              table->num_rows(), theta, attrs.size());

  // ---- The Zipf replay schedule: a pool of cube cells, hit with
  // rank-frequency 1/r (s=1.0). The same schedule replays against every
  // engine, so the points differ only in the store configuration. ----
  WorkloadOptions wopt;
  wopt.num_queries = 256;
  wopt.seed = config.seed * 31 + 5;
  auto pool = GenerateWorkload(*table, attrs, wopt);
  if (!pool.ok()) {
    std::printf("workload ERROR %s\n", pool.status().ToString().c_str());
    return 1;
  }
  const std::vector<WorkloadQuery>& cells = pool.value();
  std::vector<double> cdf(cells.size());
  double acc = 0.0;
  for (size_t r = 0; r < cells.size(); ++r) {
    acc += 1.0 / static_cast<double>(r + 1);
    cdf[r] = acc;
  }
  const size_t replay_n = smoke ? 4000 : 40000;
  Rng zipf_rng(config.seed * 131 + 17);
  std::vector<size_t> schedule(replay_n);
  for (size_t i = 0; i < replay_n; ++i) {
    double u = zipf_rng.UniformDouble(0.0, acc);
    schedule[i] = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (schedule[i] >= cells.size()) schedule[i] = cells.size() - 1;
  }
  const size_t check_every = 16;  ///< θ-check cadence over the replay

  auto make_options = [&](uint64_t budget) {
    TabulaOptions opts;
    opts.cubed_attributes = attrs;
    opts.loss = loss.get();
    opts.threshold = theta;
    opts.seed = config.seed;
    opts.store.budget_bytes = budget;
    return opts;
  };

  // Ground-truth row sets for the θ-checked schedule slots, shared by
  // every point (the truth does not depend on the engine).
  std::vector<std::vector<RowId>> truths(cells.size());
  std::vector<bool> truth_ready(cells.size(), false);

  std::vector<std::vector<RowId>> baseline_answers;  ///< store-disabled
  std::vector<BudgetPoint> points;
  uint64_t full_bytes = 0;  ///< resident bytes of the unbounded store

  // Sweep order matters: the disabled baseline runs first (it records
  // the reference answers), then an effectively-unbounded probe sizes
  // `full_bytes`, then the percentage points.
  struct Plan {
    const char* label;
    double fraction;  ///< of full_bytes; <0 = disabled, 0 = probe
  };
  const Plan plans[] = {
      {"disabled", -1.0}, {"100%", 1.0}, {"50%", 0.5}, {"25%", 0.25}};

  PrintCsvHeader(
      "budget,budget_bytes,build_ms,p50_us,p95_us,p99_us,qps,"
      "resident_bytes,max_resident_bytes,mean_loss,hot,demotes,promotes");
  for (const Plan& plan : plans) {
    BudgetPoint point;
    point.label = plan.label;
    if (plan.fraction < 0.0) {
      point.budget_bytes = 0;
    } else {
      if (full_bytes == 0) {
        // Size the sweep once from an effectively-unbounded build.
        auto probe =
            Tabula::Initialize(*table, make_options(uint64_t{1} << 40));
        if (!probe.ok()) {
          std::printf("probe ERROR %s\n", probe.status().ToString().c_str());
          return 1;
        }
        full_bytes = probe.value()->sample_store().bytes();
        std::printf("unbounded resident sample bytes: %llu\n",
                    static_cast<unsigned long long>(full_bytes));
      }
      point.budget_bytes = std::max<uint64_t>(
          static_cast<uint64_t>(std::llround(
              static_cast<double>(full_bytes) * plan.fraction)),
          64);
    }

    Stopwatch build_timer;
    auto built = Tabula::Initialize(*table, make_options(point.budget_bytes));
    point.build_ms = build_timer.ElapsedMillis();
    if (!built.ok()) {
      std::printf("%s build ERROR %s\n", plan.label,
                  built.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Tabula> engine = std::move(built).value();

    std::vector<double> lat_us;
    lat_us.reserve(replay_n);
    double loss_sum = 0.0;
    Stopwatch replay_timer;
    for (size_t i = 0; i < replay_n; ++i) {
      const WorkloadQuery& wq = cells[schedule[i]];
      Stopwatch q_timer;
      auto ans = engine->Query(QueryRequest(wq.where));
      lat_us.push_back(q_timer.ElapsedMillis() * 1000.0);
      if (!ans.ok()) {
        std::printf("%s query ERROR %s\n", plan.label,
                    ans.status().ToString().c_str());
        return 1;
      }
      const TabulaQueryResult& r = ans.value().result;
      if (r.store_degraded) ++point.degraded;

      // The budget invariant, after every single query: promotes and
      // their evictions may move bytes around, never above the budget.
      const uint64_t bytes = engine->sample_store().bytes();
      point.max_resident_bytes = std::max(point.max_resident_bytes, bytes);
      if (point.budget_bytes > 0 && bytes > point.budget_bytes) {
        std::printf("%s BUDGET VIOLATION at query %zu: bytes=%llu > "
                    "budget=%llu\n",
                    plan.label, i, static_cast<unsigned long long>(bytes),
                    static_cast<unsigned long long>(point.budget_bytes));
        return 1;
      }

      if (plan.fraction < 0.0) {
        baseline_answers.push_back(r.sample.ToRowIds());
      } else if (point.budget_bytes == full_bytes &&
                 r.sample.ToRowIds() != baseline_answers[i]) {
        point.identical_to_baseline = false;
      }

      if (i % check_every == 0 && !r.empty_cell) {
        const size_t cell_idx = schedule[i];
        if (!truth_ready[cell_idx]) {
          auto bound = BoundPredicate::Bind(*table, wq.where);
          if (!bound.ok()) {
            std::printf("theta bind ERROR %s\n",
                        bound.status().ToString().c_str());
            return 1;
          }
          truths[cell_idx] = bound.value().FilterAll();
          truth_ready[cell_idx] = true;
        }
        DatasetView truth(table.get(), truths[cell_idx]);
        auto l = loss->Loss(truth, r.sample);
        if (!l.ok()) {
          std::printf("theta loss ERROR %s\n", l.status().ToString().c_str());
          return 1;
        }
        ++point.theta_checks;
        loss_sum += l.value();
        point.max_loss = std::max(point.max_loss, l.value());
        if (!r.store_degraded &&
            l.value() > theta * (1.0 + 1e-7) + 1e-12) {
          ++point.theta_violations;
        }
      }
    }
    const double replay_ms = replay_timer.ElapsedMillis();
    point.qps = static_cast<double>(replay_n) / (replay_ms / 1000.0);
    std::sort(lat_us.begin(), lat_us.end());
    point.p50_us = Percentile(lat_us, 0.50);
    point.p95_us = Percentile(lat_us, 0.95);
    point.p99_us = Percentile(lat_us, 0.99);
    point.mean_loss =
        point.theta_checks > 0
            ? loss_sum / static_cast<double>(point.theta_checks)
            : 0.0;
    point.resident_bytes = engine->sample_store().bytes();
    point.store = engine->sample_store().Stats();

    std::printf(
        "%-8s budget=%-8llu build=%.1fms p50=%.1fus p95=%.1fus p99=%.1fus "
        "qps=%.0f bytes=%llu (max %llu) mean_loss=%.4f max_loss=%.4f "
        "hot=%llu warm=%llu cold=%llu promotes=%llu demotes=%llu\n",
        point.label.c_str(),
        static_cast<unsigned long long>(point.budget_bytes), point.build_ms,
        point.p50_us, point.p95_us, point.p99_us, point.qps,
        static_cast<unsigned long long>(point.resident_bytes),
        static_cast<unsigned long long>(point.max_resident_bytes),
        point.mean_loss, point.max_loss,
        static_cast<unsigned long long>(point.store.hot_samples),
        static_cast<unsigned long long>(point.store.warm_samples),
        static_cast<unsigned long long>(point.store.cold_samples),
        static_cast<unsigned long long>(point.store.promotes),
        static_cast<unsigned long long>(point.store.demotes));
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s,%llu,%.1f,%.1f,%.1f,%.1f,%.0f,%llu,%llu,%.4f,%llu,"
                  "%llu,%llu",
                  point.label.c_str(),
                  static_cast<unsigned long long>(point.budget_bytes),
                  point.build_ms, point.p50_us, point.p95_us, point.p99_us,
                  point.qps,
                  static_cast<unsigned long long>(point.resident_bytes),
                  static_cast<unsigned long long>(point.max_resident_bytes),
                  point.mean_loss,
                  static_cast<unsigned long long>(point.store.hot_samples),
                  static_cast<unsigned long long>(point.store.demotes),
                  static_cast<unsigned long long>(point.store.promotes));
    PrintCsvRow(row);
    points.push_back(std::move(point));
  }

  std::vector<std::string> entries;
  for (const BudgetPoint& p : points) {
    entries.push_back(
        JsonObject()
            .Set("budget", p.label)
            .Set("budget_bytes", static_cast<double>(p.budget_bytes))
            .Set("build_ms", p.build_ms)
            .Set("p50_us", p.p50_us)
            .Set("p95_us", p.p95_us)
            .Set("p99_us", p.p99_us)
            .Set("qps", p.qps)
            .Set("resident_bytes", static_cast<double>(p.resident_bytes))
            .Set("max_resident_bytes",
                 static_cast<double>(p.max_resident_bytes))
            .Set("mean_loss", p.mean_loss)
            .Set("max_loss", p.max_loss)
            .Set("theta_checks", static_cast<double>(p.theta_checks))
            .Set("theta_violations", static_cast<double>(p.theta_violations))
            .Set("degraded", static_cast<double>(p.degraded))
            .Set("hot_samples", static_cast<double>(p.store.hot_samples))
            .Set("warm_samples", static_cast<double>(p.store.warm_samples))
            .Set("cold_samples", static_cast<double>(p.store.cold_samples))
            .Set("hits", static_cast<double>(p.store.hits))
            .Set("promotes", static_cast<double>(p.store.promotes))
            .Set("demotes", static_cast<double>(p.store.demotes))
            .Render());
  }
  JsonObject payload;
  payload.Set("bench", std::string("store_budget"))
      .Set("rows", static_cast<double>(table->num_rows()))
      .Set("seed", static_cast<double>(config.seed))
      .Set("loss", std::string("mean_loss"))
      .Set("theta", theta)
      .Set("replay_queries", static_cast<double>(replay_n))
      .Set("zipf_pool_cells", static_cast<double>(cells.size()))
      .Set("unbounded_bytes", static_cast<double>(full_bytes))
      .SetRaw("points", JsonArray(entries));
  if (!smoke) WriteBenchJson("store_budget", payload);

  // ---- Gates (always checked; --smoke only tightens the latency
  // comparison to the in-run 100% point). ----
  int failures = 0;
  const BudgetPoint* pct100 = nullptr;
  const BudgetPoint* pct50 = nullptr;
  for (const BudgetPoint& p : points) {
    if (p.label == "100%") pct100 = &p;
    if (p.label == "50%") pct50 = &p;
    if (p.theta_violations > 0) {
      std::printf("GATE FAIL: %s served %zu answers above theta without "
                  "the store_degraded flag\n",
                  p.label.c_str(), p.theta_violations);
      ++failures;
    }
    if (p.degraded > 0) {
      std::printf("GATE FAIL: %s degraded %zu answers with no fault "
                  "injected\n",
                  p.label.c_str(), p.degraded);
      ++failures;
    }
  }
  if (pct100 == nullptr || !pct100->identical_to_baseline) {
    std::printf("GATE FAIL: budget=100%% answers diverge from the "
                "store-disabled engine\n");
    ++failures;
  }
  if (pct100 != nullptr && pct100->store.demotes > 0) {
    std::printf("GATE FAIL: budget=100%% demoted %llu samples\n",
                static_cast<unsigned long long>(pct100->store.demotes));
    ++failures;
  }
  if (smoke && pct50 != nullptr && pct100 != nullptr) {
    // Lazy promotes re-sample on cold hits; the Zipf head keeps the hot
    // set resident, so p95 must stay in the same regime as unbounded.
    // 10x + 0.5ms absorbs timer noise on loaded CI hosts.
    const double bound_us = 10.0 * pct100->p95_us + 500.0;
    if (pct50->p95_us > bound_us) {
      std::printf("SMOKE FAIL: budget=50%% p95=%.1fus above bound %.1fus "
                  "(unbounded p95=%.1fus)\n",
                  pct50->p95_us, bound_us, pct100->p95_us);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf(smoke ? "SMOKE OK: 100%% byte-identical, budget held at "
                        "every step, theta clean\n"
                      : "GATES OK\n");
    return 0;
  }
  return 1;
}
