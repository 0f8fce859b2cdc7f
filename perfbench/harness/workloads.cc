// The four benchmark workloads. Each builds its engine over the fixed
// taxi table, drives it with a --seed-generated request stream for the
// run's time budget, and audits what it served.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/binary_io.h"
#include "common/thread_pool.h"
#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "ingest/ingestor.h"
#include "instruments.h"
#include "loss/loss_registry.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serving.h"
#include "shard/sharded_tabula.h"

namespace perfbench {

using tabula::QueryRequest;
using tabula::Result;
using tabula::RowId;
using tabula::Status;
using tabula::Tabula;
using tabula::TabulaOptions;

namespace {

constexpr size_t kRows = 60000;
/// The data set is fixed: the synthetic NYC-taxi table every bench in
/// the repository uses (generator seed 7). The heat-map build's cost
/// swings by an order of magnitude between data draws (and between
/// engine sampling seeds, which also stay at their default), so --seed
/// varies the workload instead: query schedules and pan/zoom frames.
constexpr uint64_t kDataSeed = 7;
constexpr size_t kAttributes = 5;
/// p99 latency limit of the open-loop rate ladder (dashboard_zipf),
/// calibrated on the parent commit: at 2000 requests/s the bbox frames'
/// p99 is about 4 ms and the cells' about 2.5 ms, so 2 ms (the limit
/// first suggested) is missed at every rate and separates nothing.
constexpr double kSloMillis = 10.0;

std::vector<std::string> Attributes() {
  auto all = tabula::TaxiGenerator::ExperimentAttributes();
  all.resize(kAttributes);
  return all;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void SetE2E(RunReport* report, const std::string& name, double value,
            const char* unit) {
  report->end_to_end[name] = Metric{value, unit};
}

void SetDetail(RunReport* report, const std::string& name, double value,
               const char* unit) {
  report->detail[name] = Metric{value, unit};
}

/// Wall seconds and process CPU milliseconds of each timed build.
struct BuildTimes {
  std::vector<double> seconds;
  std::vector<double> cpu_ms;
};

/// Builds until `budget_s` has passed (at least `min_builds`, at most
/// `max_builds`), timing each; `build` keeps the engine it made.
Result<BuildTimes> RepeatBuilds(size_t min_builds, size_t max_builds,
                                double budget_s,
                                const std::function<Status()>& build) {
  BuildTimes times;
  const Clock::time_point start = Clock::now();
  while (times.seconds.size() < max_builds &&
         (times.seconds.size() < min_builds ||
          MillisBetween(start, Clock::now()) < budget_s * 1e3)) {
    const Clock::time_point t = Clock::now();
    const double cpu = ProcessCpuMs();
    TABULA_RETURN_NOT_OK(build());
    times.cpu_ms.push_back(ProcessCpuMs() - cpu);
    times.seconds.push_back(MillisBetween(t, Clock::now()) / 1e3);
  }
  return times;
}

/// CPU time (all threads) per unit of work: a cube build on
/// build_heatmap, a served answer on the serving workloads.
void SetCpuPerOp(RunReport* report, double cpu_ms, double ops) {
  SetE2E(report, "cpu_ms_per_op", ops <= 0.0 ? 0.0 : cpu_ms / ops, "ms");
}

/// Measurement windows per run: the reported p99 is the median of the
/// windows' p99s, so one noisy stretch of a run cannot move it.
constexpr size_t kWindows = 9;

/// Reports the measured requests: their latency, given per window with
/// the share of CPU time stolen in each window (empty when unknown),
/// and the rows of the answers they got.
void ReportLatency(RunReport* report,
                   const std::vector<std::vector<double>>& windows,
                   const std::vector<double>& window_steal, size_t answer_rows,
                   size_t answers) {
  std::vector<double> all, window_p99;
  for (const std::vector<double>& w : windows) {
    const LatencySummary s = Summarize(w);
    if (s.tail_q < 0.99) {
      report->Violation("too few requests in a window (" +
                        std::to_string(s.count) + ") to support a p99");
    }
    window_p99.push_back(s.p99_ms);
    all.insert(all.end(), w.begin(), w.end());
  }
  const LatencySummary s = Summarize(all);
  SetE2E(report, "answer_rows_mean",
         answers == 0 ? 0.0 : static_cast<double>(answer_rows) / answers,
         "rows");
  SetDetail(report, "query_p99_ms", Median(window_p99), "ms");
  SetDetail(report, "query_p50_ms", s.p50_ms, "ms");
  SetDetail(report, "query_mean_ms", s.mean_ms, "ms");
  SetDetail(report, "query_samples", static_cast<double>(s.count), "count");
  SetDetail(report, "query_windows", static_cast<double>(windows.size()),
            "count");
  SetDetail(report, "query_tail_quantile", s.tail_q, "quantile");
  SetDetail(report, "query_tail_ms", s.tail_ms, "ms");
  if (!window_steal.empty()) {
    SetDetail(report, "window_steal_max_pct",
              *std::max_element(window_steal.begin(), window_steal.end()),
              "%");
  }
}

/// Percent of machine CPU time stolen between two readings.
double StealPct(const CpuTicks& a, const CpuTicks& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(b.steal - a.steal) / total;
}

/// Samples /proc/stat at the kWindows boundaries of [from, to] on a
/// thread of its own, giving each window's stolen share, and the
/// process CPU time spent over [from, to].
class StealSampler {
 public:
  StealSampler(Clock::time_point from, Clock::time_point to)
      : thread_([this, from, to] {
          const auto width = (to - from) / kWindows;
          std::this_thread::sleep_until(from);
          CpuTicks last = ReadCpuTicks();
          const double cpu_from = ProcessCpuMs();
          for (size_t w = 1; w <= kWindows; ++w) {
            std::this_thread::sleep_until(from + width * w);
            const CpuTicks now = ReadCpuTicks();
            steal_.push_back(StealPct(last, now));
            last = now;
          }
          cpu_ms_ = ProcessCpuMs() - cpu_from;
        }) {}
  ~StealSampler() {
    if (thread_.joinable()) thread_.join();
  }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Waits for the last boundary and returns the per-window shares.
  std::vector<double> Finish() {
    thread_.join();
    return steal_;
  }
  /// Process CPU time over [from, to]; valid after Finish().
  double cpu_ms() const { return cpu_ms_; }

 private:
  std::vector<double> steal_;
  double cpu_ms_ = 0.0;
  std::thread thread_;
};

/// Latencies bucketed into kWindows equal stretches of a closed loop.
class WindowedLatency {
 public:
  WindowedLatency(Clock::time_point from, Clock::time_point to)
      : from_(from), width_ms_(MillisBetween(from, to) / kWindows) {}
  void Add(Clock::time_point start, double millis) {
    const double at = MillisBetween(from_, start);
    const size_t w = std::min(kWindows - 1, static_cast<size_t>(at / width_ms_));
    windows_[w].push_back(millis);
  }
  void Merge(const WindowedLatency& other) {
    for (size_t w = 0; w < kWindows; ++w) {
      windows_[w].insert(windows_[w].end(), other.windows_[w].begin(),
                         other.windows_[w].end());
    }
  }
  const std::vector<std::vector<double>>& windows() const { return windows_; }
  size_t count() const {
    size_t n = 0;
    for (const auto& w : windows_) n += w.size();
    return n;
  }

 private:
  Clock::time_point from_;
  double width_ms_;
  std::vector<std::vector<double>> windows_ =
      std::vector<std::vector<double>>(kWindows);
};

void RunAudit(RunReport* report, ThetaAudit* audit,
              const std::vector<AuditItem>& items) {
  for (const AuditItem& item : items) {
    Status st = audit->Check(item);
    if (!st.ok()) {
      report->Violation("theta audit: " + st.ToString());
      if (report->violations.size() > 8) break;
    }
  }
  SetDetail(report, "audit_checked", static_cast<double>(audit->checked()),
            "count");
  SetDetail(report, "audit_flagged", static_cast<double>(audit->flagged()),
            "count");
  SetDetail(report, "audit_max_loss", audit->max_loss(), "loss");
}

void SetProvenance(RunReport* report, size_t rows, double theta,
                   const std::string& loss) {
  report->provenance["rows"] = std::to_string(rows);
  report->provenance["theta"] = Num(theta);
  report->provenance["loss"] = loss;
  report->provenance["attributes"] = std::to_string(kAttributes);
}

void FinishTrace(RunReport* report) {
  FillCounterLayers(report);
  SetLayer(report, "bench.spans",
           static_cast<double>(SpanRecorder::Get().size()));
}

/// Store counters of a single-instance engine into the layer table.
void FillStoreLayers(RunReport* report, const tabula::SampleStoreStats& store,
                     uint64_t cache_misses) {
  SetLayer(report, "store.promotes", static_cast<double>(store.promotes));
  SetLayer(report, "store.demotes", static_cast<double>(store.demotes));
  SetLayer(report, "store.promotes_per_miss",
           cache_misses == 0
               ? 0.0
               : static_cast<double>(store.promotes) / cache_misses);
  SetLayer(report, "store.resident_bytes",
           static_cast<double>(store.resident_bytes));
}

void FillCacheLayers(RunReport* report, const tabula::ResultCacheStats& c) {
  SetLayer(report, "serve.cache_hit_ratio", c.HitRate());
  SetLayer(report, "serve.cache_evictions", static_cast<double>(c.evictions));
  SetLayer(report, "serve.cache_invalidated",
           static_cast<double>(c.invalidated));
}

/// Counts the grid decomposition of every bbox request (traced runs).
void CountDecomposition(const tabula::SpatialGrid& grid,
                        const QueryRequest& request) {
  if (request.range.empty() || !grid.present()) return;
  auto box = grid.Resolve(request.range);
  if (!box.ok()) return;
  const tabula::SpatialGrid::Decomposition d = grid.Decompose(box.value());
  Count(kSpatialDecomposes);
  Count(kSpatialInterior, d.interior.size());
  Count(kSpatialBoundary, d.boundary.size());
}

/// A Zipf(1.0) mix of equality cells with a share of pan/zoom frames.
struct RequestMix {
  std::vector<QueryRequest> pool;  ///< cells first, then frames
  size_t num_cells = 0;

  RequestMix(const tabula::Table& table, size_t cells, size_t frames,
             uint64_t seed) {
    pool = PopularCells(table, Attributes(), cells);
    num_cells = pool.size();
    for (const tabula::SpatialRange& r :
         PanZoomFrames(table, frames, seed * 7 + 2)) {
      pool.push_back(RangeRequest(r));
    }
  }

  /// `n` picks: Zipf over cells, a `frame_share` of frames in order.
  std::vector<uint32_t> Schedule(size_t n, double frame_share,
                                 uint64_t seed) const {
    ZipfSampler zipf(num_cells, 1.0);
    SplitMix rng(seed);
    const size_t frames = pool.size() - num_cells;
    size_t next_frame = 0;
    std::vector<uint32_t> picks(n);
    for (size_t i = 0; i < n; ++i) {
      if (frames > 0 && rng.Uniform() < frame_share) {
        picks[i] = static_cast<uint32_t>(num_cells + next_frame++ % frames);
      } else {
        picks[i] = static_cast<uint32_t>(zipf.Draw(&rng));
      }
    }
    return picks;
  }
};

}  // namespace

// =====================================================================
// build_heatmap: Tabula::Initialize under the heat-map loss (Fig 8a)
// =====================================================================

Status RunBuildHeatmap(const RunOptions& o, RunReport* report) {
  const std::vector<std::string> attrs = Attributes();
  const double theta = 0.5 * tabula::kNormalizedUnitsPerKm;
  std::unique_ptr<tabula::Table> table = MakeTaxiTable(kRows, kDataSeed);
  TABULA_ASSIGN_OR_RETURN(
      std::unique_ptr<tabula::LossFunction> loss,
      tabula::MakeLossFunction("heatmap_loss",
                               {.columns = {"pickup_x", "pickup_y"}}));
  CountingLoss counting(loss.get());
  SetProvenance(report, kRows, theta, "heatmap_loss");

  auto options = [&](bool traced) {
    TabulaOptions t;
    t.cubed_attributes = attrs;
    t.loss = traced ? static_cast<const tabula::LossFunction*>(&counting)
                    : loss.get();
    t.threshold = theta;
    return t;
  };
  std::unique_ptr<Tabula> engine;
  auto build = [&](bool traced) -> Status {
    TABULA_ASSIGN_OR_RETURN(engine, Tabula::Initialize(*table, options(traced)));
    return Status::OK();
  };

  // The first build in a process is the slowest (allocator and page
  // warm-up); it is discarded.
  TABULA_RETURN_NOT_OK(build(false));

  // Dashboard lookups against the finished cube: Zipf over cells.
  RequestMix mix(*table, 2000, 0, o.seed);
  const size_t num_queries = 45000;
  std::vector<QueryRequest> replay;
  for (uint32_t pick : mix.Schedule(num_queries, 0.0, o.seed * 7 + 3)) {
    replay.push_back(mix.pool[pick]);
  }
  std::vector<QueryRequest> check(replay.begin(), replay.begin() + 500);

  if (!o.trace) {
    TABULA_ASSIGN_OR_RETURN(
        BuildTimes builds,
        RepeatBuilds(3, 12, 0.75 * o.seconds, [&] { return build(false); }));
    SetE2E(report, "setup_s", Median(builds.seconds), "s");
    SetCpuPerOp(report, Median(builds.cpu_ms), 1.0);
    SetDetail(report, "builds", static_cast<double>(builds.seconds.size()),
              "count");
  } else {
    // Untraced reference build, then the traced one; their outputs must
    // agree and their times give the tracing overhead.
    const Clock::time_point t0 = Clock::now();
    TABULA_RETURN_NOT_OK(build(false));
    const double ref_s = MillisBetween(t0, Clock::now()) / 1e3;
    std::unique_ptr<Tabula> reference = std::move(engine);
    TABULA_ASSIGN_OR_RETURN(ReplayResult ref_replay, Replay(*reference, check));
    ResetCounters();
    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span("tabula.initialize");
      TABULA_RETURN_NOT_OK(build(true));
    }
    const double traced_s = MillisBetween(t1, Clock::now()) / 1e3;
    TimedEngine timed(engine.get(), /*sharded=*/false);
    TABULA_ASSIGN_OR_RETURN(ReplayResult traced_replay, Replay(timed, check));
    const auto& a = reference->init_stats();
    const auto& b = engine->init_stats();
    CheckSame(report, "iceberg cells", a.iceberg_cells, b.iceberg_cells);
    CheckSame(report, "representatives", a.representative_samples,
              b.representative_samples);
    CheckSame(report, "cube bytes", a.TotalBytes(), b.TotalBytes());
    CheckSame(report, "served row ids", ref_replay.hash, traced_replay.hash);
    FillInitLayers(report, b);
    SetLayer(report, "bench.trace_overhead_pct", OverheadPct(ref_s, traced_s));
  }

  const tabula::QueryEngine* serving = engine.get();
  std::unique_ptr<TimedEngine> timed;
  if (o.trace) {
    timed = std::make_unique<TimedEngine>(engine.get(), false);
    serving = timed.get();
  }
  std::vector<double> millis;
  millis.reserve(replay.size());
  std::vector<AuditItem> audit_items;
  size_t rows = 0;
  OutcomeTally outcomes;
  for (size_t i = 0; i < replay.size(); ++i) {
    const Clock::time_point t = Clock::now();
    auto response = serving->Query(replay[i]);
    millis.push_back(MillisBetween(t, Clock::now()));
    if (!response.ok()) {
      outcomes.Add(Outcome::kFailed);
      continue;
    }
    outcomes.Add(Outcome::kOk);
    const tabula::TabulaQueryResult& r = response.value().result;
    rows += r.sample.size();
    if (i % 97 == 0) {
      AuditItem item;
      item.request = replay[i];
      item.sample = r.sample.ToRowIds();
      item.empty_cell = r.empty_cell;
      audit_items.push_back(std::move(item));
    }
  }
  std::vector<std::vector<double>> windows(kWindows);
  for (size_t i = 0; i < millis.size(); ++i) {
    windows[i * kWindows / millis.size()].push_back(millis[i]);
  }
  ReportLatency(report, windows, {}, rows, outcomes.attempted());
  report->attempted = outcomes.attempted();
  report->failed = outcomes.failed();
  SetDetail(report, "error_rate", outcomes.error_rate(), "ratio");
  SetDetail(report, "cube_mb",
            static_cast<double>(engine->init_stats().TotalBytes()) / (1 << 20),
            "MiB");
  SetDetail(report, "iceberg_cells",
            static_cast<double>(engine->init_stats().iceberg_cells), "count");
  SetDetail(report, "representatives",
            static_cast<double>(engine->init_stats().representative_samples),
            "count");
  report->provenance["cells"] = std::to_string(mix.num_cells);

  ThetaAudit audit(table.get(), loss.get(), theta);
  RunAudit(report, &audit, audit_items);
  if (o.trace) FinishTrace(report);
  return Status::OK();
}

// =====================================================================
// dashboard_zipf: open-loop dashboard traffic through a QueryServer
// =====================================================================

Status RunDashboardZipf(const RunOptions& o, RunReport* report) {
  const std::vector<std::string> attrs = Attributes();
  const double theta = 0.05;
  std::unique_ptr<tabula::Table> table = MakeTaxiTable(kRows, kDataSeed);
  TABULA_ASSIGN_OR_RETURN(
      std::unique_ptr<tabula::LossFunction> loss,
      tabula::MakeLossFunction("mean_loss", {.columns = {"fare_amount"}}));
  CountingLoss counting(loss.get());
  SetProvenance(report, kRows, theta, "mean_loss");

  auto options = [&](bool traced, uint64_t budget) {
    TabulaOptions t;
    t.cubed_attributes = attrs;
    t.loss = traced ? static_cast<const tabula::LossFunction*>(&counting)
                    : loss.get();
    t.threshold = theta;
    t.spatial.levels = 5;
    t.store.budget_bytes = budget;
    return t;
  };
  // Size the store budget at half the unbounded resident sample bytes.
  uint64_t budget = 0;
  {
    TABULA_ASSIGN_OR_RETURN(
        std::unique_ptr<Tabula> probe,
        Tabula::Initialize(*table, options(false, uint64_t{1} << 40)));
    budget = std::max<uint64_t>(probe->sample_store().bytes() / 2, 64);
  }
  report->provenance["store_budget_bytes"] = std::to_string(budget);

  std::unique_ptr<Tabula> engine;
  auto build = [&](bool traced) -> Status {
    TABULA_ASSIGN_OR_RETURN(engine,
                            Tabula::Initialize(*table, options(traced, budget)));
    return Status::OK();
  };

  RequestMix mix(*table, 2400, 2000, o.seed);
  report->provenance["cells"] = std::to_string(mix.num_cells);
  if (mix.num_cells < 2000) {
    report->Violation("fewer than 2000 distinct cells in the working set");
  }
  // A fixed list for the traced-vs-untraced identity check.
  std::vector<QueryRequest> check;
  for (uint32_t pick : mix.Schedule(400, 0.1, o.seed * 7 + 4)) {
    check.push_back(mix.pool[pick]);
  }

  if (!o.trace) {
    TABULA_ASSIGN_OR_RETURN(
        BuildTimes builds,
        RepeatBuilds(7, 7, 0.0, [&] { return build(false); }));
    SetE2E(report, "setup_s", Median(builds.seconds), "s");
  } else {
    TABULA_RETURN_NOT_OK(build(false));
    std::unique_ptr<Tabula> reference = std::move(engine);
    ResetCounters();
    {
      ScopedSpan span("tabula.initialize");
      TABULA_RETURN_NOT_OK(build(true));
    }
    FillInitLayers(report, engine->init_stats());
    const auto& a = reference->init_stats();
    const auto& b = engine->init_stats();
    CheckSame(report, "iceberg cells", a.iceberg_cells, b.iceberg_cells);
    CheckSame(report, "representatives", a.representative_samples,
              b.representative_samples);
    CheckSame(report, "cube bytes", a.TotalBytes(), b.TotalBytes());
    // Replays run on twin engines built for it, so the measured
    // engine's store and counters start from the same state in both
    // modes.
    TABULA_ASSIGN_OR_RETURN(std::unique_ptr<Tabula> twin_ref,
                            Tabula::Initialize(*table, options(false, budget)));
    TABULA_ASSIGN_OR_RETURN(std::unique_ptr<Tabula> twin,
                            Tabula::Initialize(*table, options(true, budget)));
    TimedEngine twin_timed(twin.get(), false);
    TABULA_ASSIGN_OR_RETURN(ReplayResult ref_replay, Replay(*twin_ref, check));
    TABULA_ASSIGN_OR_RETURN(ReplayResult traced_replay,
                            Replay(twin_timed, check));
    CheckSame(report, "served row ids", ref_replay.hash, traced_replay.hash);
    SetLayer(report, "bench.trace_overhead_pct",
             OverheadPct(ref_replay.mean_us, traced_replay.mean_us));
    ResetCounters();
  }

  std::unique_ptr<TimedEngine> timed;
  tabula::QueryEngine* serving = engine.get();
  if (o.trace) {
    timed = std::make_unique<TimedEngine>(engine.get(), false);
    serving = timed.get();
  }
  tabula::QueryServerOptions sopt;
  sopt.cache.max_bytes = 256 << 10;  // far below the working set
  tabula::QueryServer server(serving, sopt);

  // Warm-up (caches and store settle), then the nominal rate, then the
  // rate ladder. Requests are numbered across phases so the schedule is
  // one seeded sequence.
  const double nominal_rate = 2000.0;
  const double warm_s = 0.1 * o.seconds;
  const double nominal_s = 0.6 * o.seconds;
  const std::vector<double> ladder = {2000, 4000, 8000, 16000};
  const double step_s = o.trace ? 0.0 : 0.3 * o.seconds / ladder.size();
  size_t total = static_cast<size_t>(nominal_rate * (warm_s + nominal_s)) + 16;
  for (double r : ladder) total += static_cast<size_t>(r * step_s) + 16;
  const std::vector<uint32_t> picks =
      mix.Schedule(total, 0.1, o.seed * 7 + 5);
  size_t base = 0;
  auto phase_next = [&](size_t offset) {
    return [&, offset](size_t j) -> const QueryRequest& {
      const QueryRequest& r = mix.pool[picks[offset + j]];
      if (o.trace) CountDecomposition(engine->spatial_grid(), r);
      return r;
    };
  };

  OpenLoopConfig warm;
  warm.rate = nominal_rate;
  warm.seconds = warm_s;
  warm.record = false;
  warm.trace = o.trace;
  OpenLoopResult ignored;
  RunOpenLoop(&server, phase_next(base), warm, &ignored);
  base += ignored.sent;
  if (o.trace) ResetCounters();
  const tabula::SampleStoreStats store_before = engine->sample_store().Stats();
  const tabula::ResultCacheStats cache_before = server.cache().Stats();

  OpenLoopConfig nominal;
  nominal.rate = nominal_rate;
  nominal.trace = o.trace;
  nominal.audit_every = 61;
  nominal.seconds = nominal_s / kWindows;
  OpenLoopResult measured;
  std::vector<std::vector<double>> windows;
  std::vector<double> window_steal;
  const double cpu_from = ProcessCpuMs();
  for (size_t w = 0; w < kWindows; ++w) {
    const size_t before = measured.latency_ms.size();
    const size_t sent_before = measured.sent;
    const CpuTicks ticks = ReadCpuTicks();
    RunOpenLoop(&server, phase_next(base), nominal, &measured);
    window_steal.push_back(StealPct(ticks, ReadCpuTicks()));
    base += measured.sent - sent_before;
    windows.emplace_back(measured.latency_ms.begin() + before,
                         measured.latency_ms.end());
  }

  SetCpuPerOp(report, ProcessCpuMs() - cpu_from,
              static_cast<double>(measured.outcomes.attempted()));
  ReportLatency(report, windows, window_steal, measured.answer_rows,
                measured.outcomes.attempted());
  report->attempted = measured.outcomes.attempted();
  report->failed = measured.outcomes.failed();
  SetDetail(report, "error_rate", measured.outcomes.error_rate(), "ratio");
  SetDetail(report, "offered_qps", nominal_rate, "1/s");
  SetDetail(report, "bbox_p99_ms", Summarize(measured.ranged_latency_ms).p99_ms,
            "ms");
  SetDetail(report, "bbox_samples",
            static_cast<double>(measured.ranged_latency_ms.size()), "count");
  SetDetail(report, "lateness_mean_ms", measured.mean_lateness_ms(), "ms");
  SetDetail(report, "cube_mb",
            static_cast<double>(engine->init_stats().TotalBytes()) / (1 << 20),
            "MiB");

  if (o.trace) {
    const tabula::SampleStoreStats store = engine->sample_store().Stats();
    tabula::SampleStoreStats delta = store;
    delta.promotes -= store_before.promotes;
    delta.demotes -= store_before.demotes;
    const tabula::ResultCacheStats cache = server.cache().Stats();
    FillStoreLayers(report, delta, cache.misses - cache_before.misses);
    FillCacheLayers(report, cache);
    SetLayer(report, "bench.lateness_ms", measured.mean_lateness_ms());
    SetLayer(report, "store.degraded",
             static_cast<double>(
                 measured.outcomes.count(Outcome::kStoreDegraded)));
  } else {
    // The highest ladder rate whose p99 meets the limit with no
    // growing backlog (the generator is not falling behind at the end).
    double max_ok = 0.0;
    for (double rate : ladder) {
      OpenLoopConfig step;
      step.rate = rate;
      step.seconds = step_s;
      OpenLoopResult r;
      RunOpenLoop(&server, phase_next(base), step, &r);
      base += r.sent;
      const LatencySummary s = Summarize(r.latency_ms);
      const bool ok = s.p99_ms <= kSloMillis && r.tail_lateness_ms < kSloMillis &&
                      r.outcomes.failed() == 0;
      std::fprintf(stderr,
                   "[perfbench] ladder %.0f/s: p99 %.3f ms, tail lateness "
                   "%.3f ms, %zu samples -> %s\n",
                   rate, s.p99_ms, r.tail_lateness_ms, s.count,
                   ok ? "meets SLO" : "misses SLO");
      if (!ok) break;
      max_ok = rate;
    }
    SetDetail(report, "max_qps_at_slo", max_ok, "1/s");
    SetDetail(report, "slo_p99_ms", kSloMillis, "ms");
  }

  ThetaAudit audit(table.get(), loss.get(), theta);
  RunAudit(report, &audit, measured.audit);
  if (o.trace) FinishTrace(report);
  return Status::OK();
}

// =====================================================================
// ingest_serve: async appends beside closed-loop dashboard readers
// =====================================================================

namespace {

/// Append-to-fresh tracking: an entry per batch, settled by a refresh
/// listener once the engine has folded the batch's rows in.
class FreshnessTracker {
 public:
  void Appending(size_t row_end) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back({Clock::now(), row_end, -1.0});
  }
  /// Called after each commit with the rows the cube now covers.
  void Folded(size_t rows) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    while (settled_ < entries_.size() && entries_[settled_].row_end <= rows) {
      entries_[settled_].lag_ms = MillisBetween(entries_[settled_].start, now);
      ++settled_;
    }
  }
  std::vector<double> Lags(size_t* unsettled) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Entry& e : entries_) {
      if (e.lag_ms >= 0.0) out.push_back(e.lag_ms);
    }
    *unsettled = entries_.size() - out.size();
    return out;
  }

 private:
  struct Entry {
    Clock::time_point start;
    size_t row_end;
    double lag_ms;
  };
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  size_t settled_ = 0;
};

std::vector<uint64_t> IcebergKeys(const Tabula& engine) {
  std::vector<uint64_t> keys;
  for (const tabula::IcebergCell& c : engine.cube_table().cells()) {
    keys.push_back(c.key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

Status RunIngestServe(const RunOptions& o, RunReport* report) {
  const std::vector<std::string> attrs = Attributes();
  const double theta = 0.05;
  const double batches_per_s = 30.0;
  const size_t batch_rows = 40;
  const size_t num_batches = std::max<size_t>(
      220, static_cast<size_t>(batches_per_s * o.seconds));
  const size_t readers = 3;
  const double reader_rate = 3000.0;  // requests/s per reader

  std::unique_ptr<tabula::Table> full =
      MakeTaxiTable(kRows + num_batches * batch_rows, kDataSeed);
  std::vector<RowId> base_ids(kRows);
  for (size_t r = 0; r < kRows; ++r) base_ids[r] = static_cast<RowId>(r);
  // Shares the full table's dictionaries, so appended values keep their
  // codes and no append forces a full rebuild.
  std::unique_ptr<tabula::Table> table = full->TakeRows(base_ids);
  std::vector<std::vector<std::vector<tabula::Value>>> batches(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    for (size_t i = 0; i < batch_rows; ++i) {
      const RowId r = static_cast<RowId>(kRows + b * batch_rows + i);
      std::vector<tabula::Value> row;
      for (size_t c = 0; c < full->num_columns(); ++c) {
        row.push_back(full->GetValue(c, r));
      }
      batches[b].push_back(std::move(row));
    }
  }
  TABULA_ASSIGN_OR_RETURN(
      std::unique_ptr<tabula::LossFunction> loss,
      tabula::MakeLossFunction("mean_loss", {.columns = {"fare_amount"}}));
  CountingLoss counting(loss.get());
  SetProvenance(report, kRows, theta, "mean_loss");
  report->provenance["appended_rows"] =
      std::to_string(num_batches * batch_rows);

  auto options = [&](bool traced) {
    TabulaOptions t;
    t.cubed_attributes = attrs;
    t.loss = traced ? static_cast<const tabula::LossFunction*>(&counting)
                    : loss.get();
    t.threshold = theta;
    t.keep_maintenance_state = true;
    return t;
  };
  std::unique_ptr<Tabula> engine;
  auto build = [&](bool traced) -> Status {
    TABULA_ASSIGN_OR_RETURN(engine, Tabula::Initialize(*table, options(traced)));
    return Status::OK();
  };

  // The readers' hot set: small enough to fit the default result cache.
  const std::vector<QueryRequest> hot = PopularCells(*table, attrs, 200);
  const std::vector<QueryRequest> check = PopularCells(*table, attrs, 400);

  if (!o.trace) {
    TABULA_ASSIGN_OR_RETURN(
        BuildTimes builds,
        RepeatBuilds(7, 7, 0.0, [&] { return build(false); }));
    SetE2E(report, "setup_s", Median(builds.seconds), "s");
  } else {
    TABULA_RETURN_NOT_OK(build(false));
    std::unique_ptr<Tabula> reference = std::move(engine);
    ResetCounters();
    {
      ScopedSpan span("tabula.initialize");
      TABULA_RETURN_NOT_OK(build(true));
    }
    FillInitLayers(report, engine->init_stats());
    const auto& a = reference->init_stats();
    const auto& b = engine->init_stats();
    CheckSame(report, "iceberg cells", a.iceberg_cells, b.iceberg_cells);
    CheckSame(report, "representatives", a.representative_samples,
              b.representative_samples);
    CheckSame(report, "cube bytes", a.TotalBytes(), b.TotalBytes());
    TimedEngine timed_check(engine.get(), false);
    TABULA_ASSIGN_OR_RETURN(ReplayResult ref_replay, Replay(*reference, check));
    TABULA_ASSIGN_OR_RETURN(ReplayResult traced_replay,
                            Replay(timed_check, check));
    CheckSame(report, "served row ids", ref_replay.hash, traced_replay.hash);
    SetLayer(report, "bench.trace_overhead_pct",
             OverheadPct(ref_replay.mean_us, traced_replay.mean_us));
    ResetCounters();
  }
  SetDetail(report, "cube_mb",
            static_cast<double>(engine->init_stats().TotalBytes()) / (1 << 20),
            "MiB");

  std::unique_ptr<TimedEngine> timed;
  tabula::QueryEngine* serving = engine.get();
  if (o.trace) {
    timed = std::make_unique<TimedEngine>(engine.get(), false);
    serving = timed.get();
  }
  tabula::QueryServer server(serving);

  const std::string wal =
      (std::filesystem::path(o.workdir) /
       ("ingest_" + std::to_string(o.seed) + ".wal"))
          .string();
  std::error_code ec;
  std::filesystem::remove(wal, ec);
  tabula::IngestorOptions iopts;
  iopts.journal_path = wal;
  iopts.async = true;
  iopts.server = &server;
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<tabula::Ingestor> ingestor,
                          tabula::Ingestor::Make(serving, table.get(), iopts));

  FreshnessTracker fresh;
  uint64_t listener = 0;
  server.MutateExclusive([&] {
    listener = serving->AddRefreshListener([&] {
      fresh.Folded(table->num_rows() - serving->PendingIngestRows());
    });
  });

  std::atomic<bool> stop{false};
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(
                  static_cast<int64_t>(1e6 * num_batches / batches_per_s));
  WindowedLatency read_ms(start, end);
  StealSampler steal(start, end);
  size_t read_rows = 0;
  OutcomeTally outcomes;
  std::vector<std::thread> reader_threads;
  for (size_t t = 0; t < readers; ++t) {
    reader_threads.emplace_back([&, t] {
      ZipfSampler zipf(hot.size(), 1.0);
      SplitMix rng(o.seed * 31 + t);
      WindowedLatency local(start, end);
      size_t rows = 0;
      uint64_t id = t << 40;
      // Each reader keeps one request in flight and is paced to
      // reader_rate: it waits for its next slot, or goes at once when a
      // stall made it late. The fixed rate keeps the readers from
      // starving the ingest worker and keeps reads per second, the
      // denominator of the CPU cost, independent of the host.
      for (size_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        std::this_thread::sleep_until(
            start + std::chrono::microseconds(
                        static_cast<int64_t>(1e6 * k / reader_rate)));
        const QueryRequest& request = hot[zipf.Draw(&rng)];
        const Clock::time_point sent = Clock::now();
        Served served = ServeOne(&server, request, o.trace, id++);
        local.Add(sent, served.millis);
        rows += AnswerRows(served);
        outcomes.Add(ClassifyAnswer(served.status, &served.answer));
      }
      std::lock_guard<std::mutex> lock(mu);
      read_ms.Merge(local);
      read_rows += rows;
    });
  }

  std::vector<double> append_ms;
  size_t pending_max = 0;
  uint64_t append_failures = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(
                 static_cast<int64_t>(1e6 * b / batches_per_s)));
    fresh.Appending(kRows + (b + 1) * batch_rows);
    const Clock::time_point t = Clock::now();
    Status st;
    {
      std::optional<ScopedSpan> span;
      if (o.trace) span.emplace("ingest.append");
      st = ingestor->Append(batches[b]);
    }
    const double ms = MillisBetween(t, Clock::now());
    append_ms.push_back(ms);
    if (o.trace) {
      Count(kIngestAppends);
      Count(kIngestAppendNs, static_cast<uint64_t>(ms * 1e6));
    }
    if (!st.ok()) {
      ++append_failures;
      report->Violation("append failed: " + st.ToString());
    }
    pending_max = std::max(pending_max, ingestor->PendingRows());
  }
  stop.store(true);
  for (std::thread& th : reader_threads) th.join();
  const double elapsed_s = MillisBetween(start, Clock::now()) / 1e3;

  Status drained = ingestor->Drain();
  if (!drained.ok()) report->Violation("drain failed: " + drained.ToString());
  if (engine->PendingIngestRows() != 0) {
    report->Violation("rows still pending after drain");
  }
  server.MutateExclusive([&] { serving->RemoveRefreshListener(listener); });
  size_t unsettled = 0;
  const std::vector<double> lags = fresh.Lags(&unsettled);
  if (unsettled != 0) {
    report->Violation(std::to_string(unsettled) +
                      " appended batches never became fresh");
  }

  const std::vector<double> window_steal = steal.Finish();
  SetCpuPerOp(report, steal.cpu_ms(),
              static_cast<double>(outcomes.attempted()));
  ReportLatency(report, read_ms.windows(), window_steal, read_rows,
                outcomes.attempted());
  report->attempted = outcomes.attempted() + num_batches;
  report->failed = outcomes.failed() + append_failures;
  SetDetail(report, "error_rate",
            static_cast<double>(report->failed) / report->attempted, "ratio");
  SetDetail(report, "qps", static_cast<double>(read_ms.count()) / elapsed_s,
            "1/s");
  const LatencySummary appends = Summarize(append_ms);
  SetDetail(report, "append_p50_ms", appends.p50_ms, "ms");
  SetDetail(report, "append_p99_ms", appends.p99_ms, "ms");
  SetDetail(report, "append_samples", static_cast<double>(appends.count),
            "count");
  std::vector<double> sorted_lags = lags;
  std::sort(sorted_lags.begin(), sorted_lags.end());
  SetDetail(report, "fresh_lag_p50_ms", QuantileOfSorted(sorted_lags, 0.5),
            "ms");
  SetDetail(report, "fresh_lag_p95_ms", QuantileOfSorted(sorted_lags, 0.95),
            "ms");
  SetDetail(report, "fresh_lag_samples", static_cast<double>(lags.size()),
            "count");

  // Drain identity: the incrementally maintained iceberg set must equal
  // a from-scratch build over the grown table.
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<Tabula> scratch,
                          Tabula::Initialize(*table, options(false)));
  if (IcebergKeys(*scratch) != IcebergKeys(*engine)) {
    report->Violation("drained iceberg set differs from a scratch rebuild");
  }
  // θ audit on answers served after the drain, against the grown table.
  std::vector<AuditItem> items;
  for (size_t i = 0; i < check.size(); i += 2) {
    Served served = ServeOne(&server, check[i], false, 0);
    items.push_back(MakeAuditItem(check[i], served));
  }
  ThetaAudit audit(table.get(), loss.get(), theta);
  RunAudit(report, &audit, items);

  if (o.trace) {
    FillCacheLayers(report, server.cache().Stats());
    SetLayer(report, "ingest.failures",
             static_cast<double>(ingestor->metrics().Snapshot().CounterValue(
                 "ingest_failures_total")));
    SetLayer(report, "ingest.pending_rows_max",
             static_cast<double>(pending_max));
    FinishTrace(report);
  }
  ingestor.reset();
  std::filesystem::remove(wal, ec);
  return Status::OK();
}

// =====================================================================
// wire_sharded: ShardedTabula behind TabulaNetServer, pooled clients
// =====================================================================

namespace {

/// A pan frame split into 2 × 2 tiles, sent as one BatchQuery.
std::vector<QueryRequest> Tiles(const tabula::SpatialRange& frame) {
  const tabula::SpatialBound& x = frame.bounds[0];
  const tabula::SpatialBound& y = frame.bounds[1];
  const double mx = 0.5 * (x.lo + x.hi), my = 0.5 * (y.lo + y.hi);
  std::vector<QueryRequest> tiles;
  for (int i = 0; i < 4; ++i) {
    tabula::SpatialRange r;
    r.bounds.push_back({x.column, i % 2 == 0 ? x.lo : mx, i % 2 == 0 ? mx : x.hi});
    r.bounds.push_back({y.column, i < 2 ? y.lo : my, i < 2 ? my : y.hi});
    tiles.push_back(RangeRequest(r));
  }
  return tiles;
}

/// The answer content the wire must preserve, in the wire codec's own
/// bytes with the timing fields zeroed.
std::string ContentBytes(const tabula::TabulaQueryResult& result) {
  auto copy = std::make_shared<tabula::TabulaQueryResult>(result);
  copy->data_system_millis = 0.0;
  tabula::ServeAnswer answer;
  answer.result = copy;
  tabula::BufferWriter out;
  tabula::EncodeServeAnswer(answer, &out);
  return std::string(out.data(), out.size());
}

struct WireItem {
  QueryRequest request;
  std::shared_ptr<const tabula::TabulaQueryResult> result;
  bool flagged = false;
};

/// Times the wire codec on a request payload (`encode` builds it).
void CountRequestCodec(const std::function<std::string()>& encode) {
  const Clock::time_point t = Clock::now();
  const std::string payload = encode();
  Count(kNetEncodes);
  Count(kNetEncodeNs, NanosSince(t));
  Count(kNetRequestBytes, payload.size() + tabula::kFrameHeaderBytes);
}

/// Times the wire codec on an answer: encode, then decode the bytes.
void CountAnswerCodec(const tabula::ServeAnswer& answer,
                      const tabula::Table* table) {
  Clock::time_point t = Clock::now();
  tabula::BufferWriter out;
  tabula::EncodeServeAnswer(answer, &out);
  Count(kNetEncodes);
  Count(kNetEncodeNs, NanosSince(t));
  Count(kNetAnswerBytes, out.size() + tabula::kFrameHeaderBytes);
  t = Clock::now();
  tabula::BufferReader in(out.data(), out.size());
  const bool decoded = tabula::DecodeServeAnswer(&in, table).ok();
  Count(kNetDecodes);
  Count(kNetDecodeNs, NanosSince(t));
  (void)decoded;
}

}  // namespace

Status RunWireSharded(const RunOptions& o, RunReport* report) {
  const std::vector<std::string> attrs = Attributes();
  const double theta = 0.05;
  const size_t clients = 4;
  std::unique_ptr<tabula::Table> table = MakeTaxiTable(kRows, kDataSeed);
  TABULA_ASSIGN_OR_RETURN(
      std::unique_ptr<tabula::LossFunction> loss,
      tabula::MakeLossFunction("mean_loss", {.columns = {"fare_amount"}}));
  CountingLoss counting(loss.get());
  SetProvenance(report, kRows, theta, "mean_loss");
  report->provenance["shards"] = "4";
  report->provenance["replicas"] = "2";

  auto options = [&](bool traced) {
    tabula::ShardedTabulaOptions s;
    s.base.cubed_attributes = attrs;
    s.base.loss = traced ? static_cast<const tabula::LossFunction*>(&counting)
                         : loss.get();
    s.base.threshold = theta;
    s.base.spatial.levels = 4;
    s.num_shards = 4;
    s.replicas_per_shard = 2;
    return s;
  };
  std::unique_ptr<tabula::ShardedTabula> engine;
  auto build = [&](bool traced) -> Status {
    TABULA_ASSIGN_OR_RETURN(
        engine, tabula::ShardedTabula::Initialize(*table, options(traced)));
    return Status::OK();
  };

  RequestMix mix(*table, 2400, 2000, o.seed);
  report->provenance["cells"] = std::to_string(mix.num_cells);
  std::vector<QueryRequest> check;
  for (uint32_t pick : mix.Schedule(400, 0.1, o.seed * 7 + 8)) {
    check.push_back(mix.pool[pick]);
  }

  if (!o.trace) {
    TABULA_ASSIGN_OR_RETURN(
        BuildTimes builds,
        RepeatBuilds(7, 7, 0.0, [&] { return build(false); }));
    SetE2E(report, "setup_s", Median(builds.seconds), "s");
  } else {
    TABULA_RETURN_NOT_OK(build(false));
    std::unique_ptr<tabula::ShardedTabula> reference = std::move(engine);
    ResetCounters();
    {
      ScopedSpan span("shard.initialize");
      TABULA_RETURN_NOT_OK(build(true));
    }
    const tabula::ShardedInitStats& a = reference->init_stats();
    const tabula::ShardedInitStats& b = engine->init_stats();
    CheckSame(report, "merged iceberg cells", a.merged_iceberg_cells,
              b.merged_iceberg_cells);
    CheckSame(report, "verified cells", a.verified_cells, b.verified_cells);
    CheckSame(report, "resampled cells", a.resampled_cells, b.resampled_cells);
    TimedEngine timed_check(engine.get(), true);
    TABULA_ASSIGN_OR_RETURN(ReplayResult ref_replay, Replay(*reference, check));
    TABULA_ASSIGN_OR_RETURN(ReplayResult traced_replay,
                            Replay(timed_check, check));
    CheckSame(report, "served row ids", ref_replay.hash, traced_replay.hash);
    SetLayer(report, "bench.trace_overhead_pct",
             OverheadPct(ref_replay.mean_us, traced_replay.mean_us));
    SetLayer(report, "shard.build_ms", b.build_millis);
    SetLayer(report, "shard.merge_ms", b.merge_millis);
    SetLayer(report, "shard.critical_path_ms", b.critical_path_millis);
    SetLayer(report, "shard.verified_cells",
             static_cast<double>(b.verified_cells));
    SetLayer(report, "shard.resampled_cells",
             static_cast<double>(b.resampled_cells));
    ResetCounters();
  }

  std::unique_ptr<TimedEngine> timed;
  tabula::QueryEngine* serving = engine.get();
  if (o.trace) {
    timed = std::make_unique<TimedEngine>(engine.get(), true);
    serving = timed.get();
  }
  tabula::QueryServerOptions sopt;
  sopt.cache.max_bytes = 256 << 10;  // below the working set
  tabula::QueryServer server(serving, sopt);
  tabula::NetServerOptions nopt;
  nopt.num_workers = clients;
  tabula::TabulaNetServer net(&server, nopt);
  TABULA_RETURN_NOT_OK(net.Start());

  std::mutex mu;
  std::vector<double> batch_ms;
  size_t answer_rows = 0, answers = 0;
  OutcomeTally outcomes;
  std::vector<WireItem> wire_items;
  uint64_t hedges = 0, hedge_wins = 0, reconnects = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point measure_from =
      start + std::chrono::milliseconds(static_cast<int64_t>(100 * o.seconds));
  const Clock::time_point end =
      start + std::chrono::milliseconds(static_cast<int64_t>(1000 * o.seconds));
  WindowedLatency single_ms(measure_from, end);
  StealSampler steal(measure_from, end);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      tabula::NetClientOptions copt;
      copt.endpoints = {{"127.0.0.1", net.port()}};
      copt.pool_size = 1;
      // With one connection per worker, a hedge's extra connection
      // would wait for a worker that never frees up; see README.md.
      copt.hedge = false;
      tabula::TabulaClient client(copt);
      client.set_table(table.get());
      ZipfSampler zipf(mix.num_cells, 1.0);
      SplitMix rng(o.seed * 131 + c);
      const size_t frames = mix.pool.size() - mix.num_cells;
      WindowedLatency singles(measure_from, end);
      std::vector<double> batches;
      std::vector<WireItem> items;
      size_t rows = 0, n_answers = 0, op = 0;
      uint64_t id = (c + 1) << 40;
      while (true) {
        const Clock::time_point t = Clock::now();
        if (t >= end) break;
        const bool record = t >= measure_from;
        ++op;
        ScopedSpan::SetRequest(id++);
        if (rng.Uniform() < 0.1) {
          const std::vector<QueryRequest> tiles = Tiles(
              mix.pool[mix.num_cells + rng.Below(frames)].range);
          std::optional<ScopedSpan> span;
          if (o.trace) span.emplace("net.batch_query");
          auto got = client.BatchQuery(tiles);
          span.reset();
          const double ms = MillisBetween(t, Clock::now());
          if (!record) continue;
          batches.push_back(ms);
          if (o.trace) {
            Count(kNetRequests);
            Count(kNetRttNs, static_cast<uint64_t>(ms * 1e6));
            CountRequestCodec(
                [&] { return tabula::EncodeBatchQueryPayload(tiles); });
          }
          if (!got.ok()) {
            for (size_t i = 0; i < tiles.size(); ++i) {
              outcomes.Add(ClassifyAnswer(got.status(), nullptr));
            }
            continue;
          }
          for (size_t i = 0; i < got.value().size(); ++i) {
            const tabula::BatchItem& item = got.value()[i];
            const Outcome oc = ClassifyAnswer(item.status, &item.answer);
            outcomes.Add(oc);
            if (oc != Outcome::kFailed && oc != Outcome::kRefused) {
              rows += item.answer.result->sample.size();
              ++n_answers;
            }
            if (o.trace && item.status.ok()) {
              CountAnswerCodec(item.answer, table.get());
            }
            if (op % 389 == 0 && item.status.ok()) {
              items.push_back({tiles[i], item.answer.result,
                               oc != Outcome::kOk});
            }
          }
        } else {
          const QueryRequest& request = mix.pool[zipf.Draw(&rng)];
          std::optional<ScopedSpan> span;
          if (o.trace) span.emplace("net.query");
          auto got = client.Query(request);
          span.reset();
          const double ms = MillisBetween(t, Clock::now());
          if (!record) continue;
          singles.Add(t, ms);
          const Outcome oc = ClassifyAnswer(got.status(),
                                            got.ok() ? &got.value() : nullptr);
          outcomes.Add(oc);
          if (!got.ok()) continue;
          rows += got.value().result->sample.size();
          ++n_answers;
          if (o.trace) {
            Count(kNetRequests);
            Count(kNetRttNs, static_cast<uint64_t>(ms * 1e6));
            CountRequestCodec([&] {
              tabula::BufferWriter req;
              tabula::EncodeQueryRequest(request, &req);
              return std::string(req.data(), req.size());
            });
            CountAnswerCodec(got.value(), table.get());
          }
          if (op % 389 == 0) {
            items.push_back({request, got.value().result, oc != Outcome::kOk});
          }
        }
      }
      const tabula::MetricsSnapshot m = client.metrics().Snapshot();
      std::lock_guard<std::mutex> lock(mu);
      single_ms.Merge(singles);
      batch_ms.insert(batch_ms.end(), batches.begin(), batches.end());
      answer_rows += rows;
      answers += n_answers;
      for (WireItem& item : items) wire_items.push_back(std::move(item));
      hedges += m.CounterValue("net_client_hedges");
      hedge_wins += m.CounterValue("net_client_hedge_wins");
      reconnects += m.CounterValue("net_client_reconnects");
    });
  }
  for (std::thread& th : threads) th.join();
  const double measured_s = MillisBetween(measure_from, end) / 1e3;
  double server_us = 0.0;
  for (const auto& [name, h] : net.metrics().Snapshot().histograms) {
    if (name == "net_server_latency") server_us = h.MeanMicros();
  }
  net.Stop();

  const std::vector<double> window_steal = steal.Finish();
  SetCpuPerOp(report, steal.cpu_ms(), static_cast<double>(answers));
  ReportLatency(report, single_ms.windows(), window_steal, answer_rows,
                answers);
  report->attempted = outcomes.attempted();
  report->failed = outcomes.failed();
  SetDetail(report, "error_rate", outcomes.error_rate(), "ratio");
  SetDetail(report, "qps",
            static_cast<double>(single_ms.count() + batch_ms.size()) /
                measured_s,
            "1/s");
  const LatencySummary batch = Summarize(batch_ms);
  SetDetail(report, "batch_p50_ms", batch.p50_ms, "ms");
  SetDetail(report, "batch_p99_ms", batch.p99_ms, "ms");
  SetDetail(report, "batch_samples", static_cast<double>(batch.count), "count");

  // Wire identity: every kept wire answer must carry exactly the bytes
  // the in-process engine produces for the same request.
  std::vector<AuditItem> audit_items;
  size_t mismatches = 0;
  for (const WireItem& item : wire_items) {
    TABULA_ASSIGN_OR_RETURN(tabula::QueryResponse local,
                            engine->Query(item.request));
    if (ContentBytes(local.result) != ContentBytes(*item.result)) ++mismatches;
    AuditItem a;
    a.request = item.request;
    a.sample = item.result->sample.ToRowIds();
    a.flagged = item.flagged;
    a.empty_cell = item.result->empty_cell;
    audit_items.push_back(std::move(a));
  }
  if (mismatches != 0) {
    report->Violation(std::to_string(mismatches) +
                      " wire answers differ from the in-process engine");
  }
  SetDetail(report, "wire_identity_checked",
            static_cast<double>(wire_items.size()), "count");
  ThetaAudit audit(table.get(), loss.get(), theta);
  RunAudit(report, &audit, audit_items);

  if (o.trace) {
    FillCacheLayers(report, server.cache().Stats());
    SetLayer(report, "shard.unavailable",
             static_cast<double>(outcomes.count(Outcome::kShardDown)));
    SetLayer(report, "net.server_us", server_us);
    FinishTrace(report);
    SetLayer(report, "net.self_us",
             report->layers["net.rtt_us"].value - server_us);
    SetLayer(report, "net.hedges", static_cast<double>(hedges));
    SetLayer(report, "net.hedge_wins", static_cast<double>(hedge_wins));
    SetLayer(report, "net.reconnects", static_cast<double>(reconnects));
  }
  return Status::OK();
}

}  // namespace perfbench
