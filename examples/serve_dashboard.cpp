/// The serving layer end-to-end: a QueryServer in front of the Tabula
/// middleware handling a simulated dashboard session — batched heatmap
/// tiles, repeat filters served from the result cache, a mid-session
/// Refresh() that fences the cache, per-request tracing with an OTLP
/// JSON export, the slow-query log, and the metrics text a scrape
/// endpoint would expose.
///
///   $ ./serve_dashboard

#include <cstdio>
#include <string>

#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "data/workload.h"
#include "loss/loss_registry.h"
#include "obs/export.h"
#include "serve/query_server.h"

using namespace tabula;

int main() {
  std::printf("Generating 100k taxi rides...\n");
  TaxiGeneratorOptions gen;
  gen.num_rows = 100000;
  auto table = TaxiGenerator(gen).Generate();

  // kOnDemand: only requests that set QueryRequest::trace = true are
  // recorded, so steady-state serving stays near the untraced cost.
  Tracer tracer(TracerOptions{TraceMode::kOnDemand, 4096});

  auto loss_result =
      MakeLossFunction("mean_loss", {.columns = {"fare_amount"}});
  if (!loss_result.ok()) return 1;
  TabulaOptions options;
  options.cubed_attributes = {"payment_type", "rate_code", "pickup_weekday"};
  options.owned_loss = std::move(loss_result).value();
  options.threshold = 0.05;
  options.tracer = &tracer;

  std::printf("Initializing Tabula (mean loss, theta = 5%%)...\n");
  auto tabula = Tabula::Initialize(*table, options);
  if (!tabula.ok()) {
    std::printf("init failed: %s\n", tabula.status().ToString().c_str());
    return 1;
  }
  std::printf("  %zu iceberg cells in %.0f ms\n",
              tabula.value()->init_stats().iceberg_cells,
              tabula.value()->init_stats().total_millis);
  // Stage timings ARE the init spans' durations:
  std::printf("%s\n",
              RenderSpanTree(tabula.value()->init_trace()).c_str());

  QueryServerOptions sopts;
  sopts.cache.max_bytes = 16ull << 20;
  sopts.tracer = &tracer;
  sopts.slow_query_ms = 0.01;  // absurdly low, to demo the log
  QueryServer server(tabula.value().get(), sopts);

  // A dashboard pan: all visible tiles in one batched request instead
  // of N serial Query() calls.
  WorkloadOptions wopts;
  wopts.num_queries = 16;
  auto workload =
      GenerateWorkload(*table, options.cubed_attributes, wopts);
  if (!workload.ok()) return 1;
  std::vector<QueryRequest> tiles;
  for (const auto& q : *workload) tiles.emplace_back(q.where);

  auto pan = server.BatchQuery(tiles);
  if (!pan.ok()) {
    std::printf("pan failed: %s\n", pan.status().ToString().c_str());
    return 1;
  }
  size_t local = 0, global = 0;
  for (const auto& item : *pan) {
    if (!item.status.ok()) continue;
    item.answer.result->from_local_sample ? ++local : ++global;
  }
  std::printf("Pan of %zu tiles answered in one batch: %zu local samples, "
              "%zu global-sample tiles\n",
              tiles.size(), local, global);

  // The user flips back and forth between two filters — the second
  // visit of each is a cache hit (a pointer copy, no cube probe).
  std::vector<PredicateTerm> cash = {
      {"payment_type", CompareOp::kEq, Value("Cash")}};
  std::vector<PredicateTerm> credit = {
      {"payment_type", CompareOp::kEq, Value("Credit")}};
  for (int round = 0; round < 3; ++round) {
    for (const auto& where : {cash, credit}) {
      QueryRequest request(where);
      auto answer = server.Query(request);
      if (!answer.ok()) return 1;
      std::printf("  %-22s %5zu tuples  %s  %.3f ms\n",
                  where[0].literal.ToString().c_str(),
                  answer->result->sample.size(),
                  answer->cache_hit ? "cache hit " : "cube probe",
                  answer->total_millis);
    }
  }

  // One traced request: QueryRequest::trace opts it into the kOnDemand
  // tracer; kBypassCache forces the full serve → cube path so the span
  // tree shows the middleware child too.
  QueryRequest traced(cash);
  traced.trace = true;
  traced.consistency = ConsistencyHint::kBypassCache;
  auto traced_answer = server.Query(traced);
  if (!traced_answer.ok()) return 1;
  std::printf("\nTraced request (span %llu):\n%s",
              static_cast<unsigned long long>(traced_answer->span_id),
              RenderSpanTree(SpanSubtree(tracer.Snapshot(),
                                         traced_answer->span_id))
                  .c_str());

  // New rides stream in; Refresh() re-validates the cube and fences
  // every cached answer so nothing stale is ever served.
  std::printf("\nAppending 5000 rides and refreshing...\n");
  TaxiGeneratorOptions more;
  more.num_rows = 5000;
  more.seed = gen.seed + 1;
  auto extra = TaxiGenerator(more).Generate();
  for (RowId r = 0; r < extra->num_rows(); ++r) {
    if (!table->AppendRowFrom(*extra, r).ok()) return 1;
  }
  Tabula::RefreshStats rstats;
  if (!server.Refresh(&rstats).ok()) return 1;
  std::printf("  refresh: %zu new rows, %zu new iceberg cells, %.0f ms; "
              "cache generation -> %llu\n",
              rstats.new_rows, rstats.new_iceberg_cells, rstats.millis,
              static_cast<unsigned long long>(server.cache().generation()));

  auto post = server.Query(QueryRequest(cash));
  if (!post.ok()) return 1;
  std::printf("  'Cash' after refresh: %s (stale entry fenced)\n\n",
              post->cache_hit ? "cache hit — BUG" : "cube probe");

  // The slow-query log caught everything over the demo threshold, with
  // span trees for traced entries.
  std::printf("Slow-query log (threshold %.2f ms, %llu logged):\n%s\n",
              sopts.slow_query_ms,
              static_cast<unsigned long long>(
                  server.slow_query_log().total_logged()),
              server.slow_query_log().RenderText().c_str());

  // OTLP-flavoured JSON export for external tooling.
  const std::string trace_path = "serve_trace.json";
  if (WriteOtlpJsonFile(tracer, trace_path).ok()) {
    std::printf("Trace exported to %s\n\n", trace_path.c_str());
  }

  std::printf("Metrics endpoint:\n%s", server.MetricsText().c_str());
  return 0;
}
