/// Dashboard-serving throughput: N client threads hammer a QueryServer
/// with a Zipf-skewed cell workload (dashboards revisit hot filters —
/// the skew GeoBlocks exploits), with and without the sharded result
/// cache, reporting QPS and p50/p95/p99 serving latency plus the cache
/// hit rate. A second section measures a heatmap pan answered as N
/// serial Query() calls (what viz/dashboard.cc used to do) vs one
/// BatchQuery() fan-out.
///
///   --smoke        tiny fixed scale for CI (overrides the env knobs)
///   --trace        adds a tracing-overhead section: the cache-on load
///                  re-run with a kDisabled tracer and with a kAll
///                  tracer, reporting the QPS delta vs no tracer at all
///   --pan-zoom     runs the spatial dashboard-session bench instead: a
///                  deterministic zoom-then-pan viewport trace served as
///                  bbox range queries over the 4-level hierarchical
///                  grid (DESIGN.md §10), reporting cold-pass latency,
///                  warm (cache-hit) QPS, and θ spot-checks against a
///                  direct pickup_x/pickup_y scan; writes
///                  BENCH_spatial.json and fails on any θ violation
///
///   TABULA_SCALE   table rows            (default 60000)
///   TABULA_CLIENTS client threads        (default 8)
///   TABULA_SERVE_QUERIES queries/thread  (default 4000)
///   TABULA_CELLS   distinct workload cells (default 120)

#include <cmath>
#include <cstring>
#include <thread>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/tabula.h"
#include "obs/trace.h"
#include "serve/query_server.h"

namespace tabula {
namespace bench {
namespace {

struct LoadReport {
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double hit_rate = 0.0;
  uint64_t degraded = 0;
};

/// Runs `clients` threads, each issuing `queries_per_thread` queries
/// drawn Zipf-style from `workload`.
LoadReport RunLoad(QueryServer* server,
                   const std::vector<WorkloadQuery>& workload,
                   size_t clients, size_t queries_per_thread,
                   uint64_t seed) {
  // Zipf weights over the workload cells: cell at rank r gets 1/r^s.
  // Dashboards concentrate on a few hot filters; s ≈ 1 mirrors the
  // skew web-traffic studies report.
  std::vector<double> weights(workload.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), 1.0);
  }

  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed + t);
      for (size_t i = 0; i < queries_per_thread; ++i) {
        size_t pick = rng.Discrete(weights);
        auto answer = server->Query(QueryRequest(workload[pick].where));
        if (!answer.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       answer.status().ToString().c_str());
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  double seconds = wall.ElapsedSeconds();

  LoadReport report;
  MetricsSnapshot snap = server->metrics().Snapshot();
  report.qps = static_cast<double>(clients * queries_per_thread) / seconds;
  for (const auto& [name, hist] : snap.histograms) {
    if (name == "serve_latency") {
      report.p50_us = hist.P50Micros();
      report.p95_us = hist.P95Micros();
      report.p99_us = hist.P99Micros();
    }
  }
  report.hit_rate = server->cache().Stats().HitRate();
  report.degraded = snap.CounterValue("serve_degraded");
  return report;
}

/// One viewport of the pan/zoom session: an inclusive bbox in the
/// normalized taxi coordinate space.
struct Frame {
  double x_lo, x_hi, y_lo, y_hi;
};

/// The deterministic dashboard session: open on the full map, zoom six
/// steps toward the midtown pickup hotspot (the viewport halving each
/// step, its center gliding from the map center to the hotspot), then
/// pan the zoomed viewport east across the city and drag it south.
/// Every frame is exactly what viz/dashboard.cc issues for a viewport
/// change — one bbox range query over the grid columns.
std::vector<Frame> PanZoomTrace() {
  std::vector<Frame> frames;
  auto push = [&](double cx, double cy, double half) {
    Frame f;
    f.x_lo = std::max(0.0, cx - half);
    f.x_hi = std::min(1.0, cx + half);
    f.y_lo = std::max(0.0, cy - half);
    f.y_hi = std::min(1.0, cy + half);
    frames.push_back(f);
  };
  const double kHotX = 0.38, kHotY = 0.60;
  for (int z = 0; z < 6; ++z) {
    double half = 0.5 * std::pow(0.5, static_cast<double>(z));
    double t = static_cast<double>(z) / 5.0;
    push(0.5 + (kHotX - 0.5) * t, 0.5 + (kHotY - 0.5) * t, half);
  }
  const double kPanHalf = 0.0625;
  for (int p = 0; p < 12; ++p) push(0.15 + 0.06 * p, kHotY, kPanHalf);
  for (int p = 1; p <= 6; ++p) push(0.81, kHotY - 0.08 * p, kPanHalf);
  return frames;
}

QueryRequest FrameRequest(const Frame& f) {
  QueryRequest request;
  request.range.bounds.push_back({"pickup_x", f.x_lo, f.x_hi});
  request.range.bounds.push_back({"pickup_y", f.y_lo, f.y_hi});
  return request;
}

/// Ground-truth θ check for one served frame: truth rows come from a
/// direct inclusive scan of the pickup columns — no grid or cube code
/// involved — so a planner bug cannot hide in its own oracle.
bool CheckFrameTheta(const Table& table, const Frame& f,
                     const TabulaQueryResult& served,
                     const LossFunction& loss, double theta) {
  const auto* xc =
      table.ColumnByName("pickup_x").value()->As<DoubleColumn>();
  const auto* yc =
      table.ColumnByName("pickup_y").value()->As<DoubleColumn>();
  std::vector<RowId> truth;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    double x = xc->At(r);
    double y = yc->At(r);
    if (x >= f.x_lo && x <= f.x_hi && y >= f.y_lo && y <= f.y_hi) {
      truth.push_back(r);
    }
  }
  if (truth.empty() != served.empty_cell) {
    std::fprintf(stderr,
                 "theta check: empty_cell=%d but truth has %zu rows\n",
                 served.empty_cell, truth.size());
    return false;
  }
  if (truth.empty()) return true;
  DatasetView truth_view(&table, std::move(truth));
  Result<double> l = loss.Loss(truth_view, served.sample);
  if (!l.ok()) {
    std::fprintf(stderr, "theta check: loss failed: %s\n",
                 l.status().ToString().c_str());
    return false;
  }
  if (l.value() > theta * (1.0 + 1e-7) + 1e-12) {
    std::fprintf(stderr, "theta check: loss %.6f > theta %.6f\n",
                 l.value(), theta);
    return false;
  }
  return true;
}

/// The --pan-zoom mode: serve the session trace through a cache-enabled
/// QueryServer over a spatial-enabled cube. Cold pass = first render of
/// every viewport (cache misses, real grid planning + boundary scans);
/// warm passes = the user retracing their steps (the canonical-range
/// cache keys must hit). Writes BENCH_spatial.json (not under --smoke);
/// returns non-zero on any failed answer or θ violation, so CI can gate
/// on `--pan-zoom --smoke` directly.
int RunPanZoomBench(const BenchConfig& config, bool smoke) {
  const Table& table = TaxiTable(config);
  const double kTheta = 0.05;
  auto loss = MakeLossFunction("mean_loss", {.columns = {"fare_amount"}});
  auto check_loss =
      MakeLossFunction("mean_loss", {.columns = {"fare_amount"}});
  if (!loss.ok() || !check_loss.ok()) {
    std::fprintf(stderr, "loss failed\n");
    return 1;
  }
  TabulaOptions options;
  options.cubed_attributes = Attributes(4);
  options.owned_loss = std::move(loss).value();
  options.threshold = kTheta;
  options.spatial.levels = 4;  // grid over pickup_x/pickup_y
  std::fprintf(stderr, "[bench] initializing Tabula (spatial grid, "
                       "4 levels)...\n");
  Stopwatch init;
  auto tabula = Tabula::Initialize(table, options);
  if (!tabula.ok()) {
    std::fprintf(stderr, "init failed: %s\n",
                 tabula.status().ToString().c_str());
    return 1;
  }
  double init_ms = init.ElapsedMillis();

  std::vector<Frame> frames = PanZoomTrace();
  QueryServerOptions sopts;
  sopts.enable_cache = true;
  QueryServer server(tabula.value().get(), sopts);

  PrintHeader("Pan/zoom session: " + std::to_string(frames.size()) +
              " viewports over the 4-level grid");

  // Cold pass: every viewport rendered for the first time. θ-check each
  // answer against the direct scan — this is the smoke gate.
  size_t theta_checks = 0;
  size_t theta_violations = 0;
  size_t empty_frames = 0;
  Stopwatch cold;
  for (const Frame& f : frames) {
    auto answer = server.Query(FrameRequest(f));
    if (!answer.ok()) {
      std::fprintf(stderr, "frame failed: %s\n",
                   answer.status().ToString().c_str());
      return 1;
    }
    if (answer.value().degraded) {
      std::fprintf(stderr, "frame degraded on an idle server\n");
      return 1;
    }
    const TabulaQueryResult& result = *answer.value().result;
    if (result.empty_cell) ++empty_frames;
    ++theta_checks;
    if (!CheckFrameTheta(table, f, result, *check_loss.value(), kTheta)) {
      ++theta_violations;
    }
  }
  double cold_ms = cold.ElapsedMillis();

  // Warm passes: the user retraces the session. Canonicalized range
  // keys must make every repeat a cache hit.
  const int kWarmReps = smoke ? 5 : 50;
  Stopwatch warm;
  for (int rep = 0; rep < kWarmReps; ++rep) {
    for (const Frame& f : frames) {
      auto answer = server.Query(FrameRequest(f));
      if (!answer.ok()) return 1;
    }
  }
  double warm_seconds = warm.ElapsedSeconds();
  double warm_qps =
      static_cast<double>(frames.size()) * kWarmReps / warm_seconds;
  double hit_rate = server.cache().Stats().HitRate();

  double p50_us = 0.0, p95_us = 0.0;
  MetricsSnapshot snap = server.metrics().Snapshot();
  for (const auto& [name, hist] : snap.histograms) {
    if (name == "serve_latency") {
      p50_us = hist.P50Micros();
      p95_us = hist.P95Micros();
    }
  }

  std::printf("cold pass  %8.3f ms for %zu viewports (%.3f ms/frame)\n",
              cold_ms, frames.size(),
              cold_ms / static_cast<double>(frames.size()));
  std::printf("warm pass  %10.0f qps   hit rate %.1f%%   p50 %7.1f us   "
              "p95 %7.1f us\n",
              warm_qps, hit_rate * 100.0, p50_us, p95_us);
  std::printf("theta      %zu checks, %zu violations, %zu empty "
              "viewports\n",
              theta_checks, theta_violations, empty_frames);
  PrintCsvHeader(
      "frames,cold_ms,warm_qps,hit_rate,p50_us,p95_us,theta_violations");
  char row[256];
  std::snprintf(row, sizeof(row), "%zu,%.3f,%.0f,%.3f,%.1f,%.1f,%zu",
                frames.size(), cold_ms, warm_qps, hit_rate, p50_us,
                p95_us, theta_violations);
  PrintCsvRow(row);

  JsonObject payload;
  payload.Set("bench", std::string("spatial_pan_zoom"))
      .Set("rows", static_cast<double>(table.num_rows()))
      .Set("seed", static_cast<double>(config.seed))
      .Set("grid_levels", 4.0)
      .Set("init_ms", init_ms)
      .Set("frames", static_cast<double>(frames.size()))
      .Set("cold_pass_ms", cold_ms)
      .Set("warm_qps", warm_qps)
      .Set("warm_hit_rate", hit_rate)
      .Set("p50_us", p50_us)
      .Set("p95_us", p95_us)
      .Set("theta", kTheta)
      .Set("theta_checks", static_cast<double>(theta_checks))
      .Set("theta_violations", static_cast<double>(theta_violations))
      .Set("empty_frames", static_cast<double>(empty_frames));
  if (!smoke) WriteBenchJson("spatial", payload);

  if (theta_violations > 0) {
    std::fprintf(stderr, "PAN-ZOOM GATE FAILED: %zu theta violation(s)\n",
                 theta_violations);
    return 1;
  }
  if (hit_rate <= 0.0) {
    std::fprintf(stderr,
                 "PAN-ZOOM GATE FAILED: warm passes never hit the "
                 "cache (hit rate %.3f)\n",
                 hit_rate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tabula

int main(int argc, char** argv) {
  using namespace tabula;
  using namespace tabula::bench;

  bool smoke = false;
  bool trace_section = false;
  bool pan_zoom = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--trace") == 0) trace_section = true;
    if (std::strcmp(argv[i], "--pan-zoom") == 0) pan_zoom = true;
  }

  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  if (pan_zoom) {
    if (smoke) config.rows = 20000;
    return RunPanZoomBench(config, smoke);
  }
  size_t clients = static_cast<size_t>(EnvInt64("TABULA_CLIENTS", 8));
  size_t queries_per_thread =
      static_cast<size_t>(EnvInt64("TABULA_SERVE_QUERIES", 4000));
  size_t num_cells = static_cast<size_t>(EnvInt64("TABULA_CELLS", 120));
  if (smoke) {
    // CI-sized: seconds, not minutes, and still exercises every path.
    config.rows = 20000;
    clients = 4;
    queries_per_thread = 250;
    num_cells = 40;
  }

  const Table& table = TaxiTable(config);
  auto attrs = Attributes(4);
  auto loss = MakeLossFunction("mean_loss", {.columns = {"fare_amount"}});
  if (!loss.ok()) {
    std::fprintf(stderr, "loss failed: %s\n",
                 loss.status().ToString().c_str());
    return 1;
  }
  TabulaOptions options;
  options.cubed_attributes = attrs;
  options.owned_loss = std::move(loss).value();
  options.threshold = 0.05;
  std::fprintf(stderr, "[bench] initializing Tabula...\n");
  auto tabula = Tabula::Initialize(table, options);
  if (!tabula.ok()) {
    std::fprintf(stderr, "init failed: %s\n",
                 tabula.status().ToString().c_str());
    return 1;
  }

  WorkloadOptions wopts;
  wopts.num_queries = num_cells;
  wopts.seed = config.seed;
  auto workload = GenerateWorkload(table, attrs, wopts);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  PrintHeader("Serving throughput: " + std::to_string(clients) +
              " clients, Zipf(1.0) over " +
              std::to_string(workload->size()) + " cells");
  PrintCsvHeader("cache,clients,queries,qps,p50_us,p95_us,p99_us,hit_rate");

  double qps_off = 0.0;
  double qps_cache_on = 0.0;
  for (bool cache_on : {false, true}) {
    QueryServerOptions sopts;
    sopts.enable_cache = cache_on;
    QueryServer server(tabula.value().get(), sopts);
    LoadReport report = RunLoad(&server, *workload, clients,
                                queries_per_thread, config.seed);
    if (!cache_on) qps_off = report.qps;
    if (cache_on) qps_cache_on = report.qps;
    std::printf("%-9s qps %10.0f   p50 %7.1f us   p95 %7.1f us   "
                "p99 %7.1f us   hit rate %.1f%%\n",
                cache_on ? "cache-on" : "cache-off", report.qps,
                report.p50_us, report.p95_us, report.p99_us,
                report.hit_rate * 100.0);
    char row[256];
    std::snprintf(row, sizeof(row), "%s,%zu,%zu,%.0f,%.1f,%.1f,%.1f,%.3f",
                  cache_on ? "on" : "off", clients,
                  clients * queries_per_thread, report.qps, report.p50_us,
                  report.p95_us, report.p99_us, report.hit_rate);
    PrintCsvRow(row);
    if (cache_on && qps_off > 0.0) {
      std::printf("          cache speedup: %.2fx\n", report.qps / qps_off);
    }
  }

  if (trace_section) {
    // Tracing overhead: the cache-on load, re-run with a tracer wired
    // through both the middleware and the server. kDisabled should cost
    // ~nothing (one relaxed atomic load per request); kAll records a
    // span per request into the ring and should stay under ~5%.
    PrintHeader("Tracing overhead (vs no tracer, cache-on load)");
    PrintCsvHeader("trace_mode,qps,overhead_pct");
    struct TraceCase {
      const char* label;
      bool attach;
      TraceMode mode;
    };
    const TraceCase cases[] = {
        {"none", false, TraceMode::kDisabled},
        {"disabled", true, TraceMode::kDisabled},
        {"on_demand", true, TraceMode::kOnDemand},  // no request opts in
        {"all", true, TraceMode::kAll},
    };
    double qps_none = 0.0;
    double qps_all = 0.0;
    uint64_t spans_all = 0;
    const int kTraceReps = smoke ? 1 : 3;
    for (const auto& c : cases) {
      // Best-of-N: scheduler jitter between back-to-back 0.3 s loads is
      // a few percent — the max is the least-perturbed run.
      double qps = 0.0;
      uint64_t spans = 0;
      for (int rep = 0; rep < kTraceReps; ++rep) {
        Tracer tracer(TracerOptions{c.mode, 8192});
        QueryServerOptions sopts;
        sopts.enable_cache = true;
        if (c.attach) sopts.tracer = &tracer;
        QueryServer server(tabula.value().get(), sopts);
        LoadReport report = RunLoad(&server, *workload, clients,
                                    queries_per_thread, config.seed);
        qps = std::max(qps, report.qps);
        spans = c.attach ? tracer.recorder().total_recorded() : 0;
      }
      if (!c.attach) qps_none = qps;
      if (c.mode == TraceMode::kAll) {
        qps_all = qps;
        spans_all = spans;
      }
      double overhead =
          qps_none > 0.0 ? (qps_none - qps) / qps_none * 100.0 : 0.0;
      std::printf("%-9s qps %10.0f   overhead %+5.1f%%   spans %llu\n",
                  c.label, qps, overhead,
                  static_cast<unsigned long long>(spans));
      char row[128];
      std::snprintf(row, sizeof(row), "%s,%.0f,%.1f", c.label, qps,
                    overhead);
      PrintCsvRow(row);
    }
    if (qps_none > 0.0 && qps_all > 0.0 && spans_all > 0) {
      // Absolute per-span recording cost: the honest number behind the
      // kAll percentage, which this cache-hit microbenchmark (~1 us per
      // request) makes look worse than any real dashboard load would.
      double ns_per_span = (1.0 / qps_all - 1.0 / qps_none) * 1e9;
      std::printf("          kAll span cost: ~%.0f ns/span (amortized "
                  "<5%% for requests over %.0f us)\n",
                  ns_per_span, ns_per_span / 0.05 / 1000.0);
    }
    (void)qps_cache_on;
  }

  // Heatmap pan: every visible tile is one cell query. Serial loop
  // (the pre-serve dashboard behaviour) vs one BatchQuery fan-out.
  PrintHeader("Heatmap pan: serial Query loop vs BatchQuery fan-out");
  const size_t kPanTiles = std::min<size_t>(32, workload->size());
  std::vector<QueryRequest> tiles;
  for (size_t i = 0; i < kPanTiles; ++i) {
    tiles.emplace_back((*workload)[i].where);
  }
  QueryServerOptions pan_opts;
  pan_opts.enable_cache = false;  // measure the fan-out, not the cache
  QueryServer pan_server(tabula.value().get(), pan_opts);
  const int kReps = smoke ? 5 : 50;

  Stopwatch serial;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const auto& tile : tiles) {
      auto answer = pan_server.Query(tile);
      if (!answer.ok()) return 1;
    }
  }
  double serial_ms = serial.ElapsedMillis() / kReps;

  Stopwatch batched;
  for (int rep = 0; rep < kReps; ++rep) {
    auto batch = pan_server.BatchQuery(tiles);
    if (!batch.ok()) return 1;
  }
  double batch_ms = batched.ElapsedMillis() / kReps;

  std::printf("%zu tiles: serial %8.3f ms   batched %8.3f ms   (%.2fx)\n",
              kPanTiles, serial_ms, batch_ms, serial_ms / batch_ms);
  PrintCsvHeader("pan_tiles,serial_ms,batch_ms");
  char row[128];
  std::snprintf(row, sizeof(row), "%zu,%.3f,%.3f", kPanTiles, serial_ms,
                batch_ms);
  PrintCsvRow(row);
  return 0;
}
