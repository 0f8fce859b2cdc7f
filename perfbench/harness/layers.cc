// The per-layer metric table: every traced run reports every name
// below (a layer a workload does not exercise reads 0), so BENCHMARK.json
// lists one fixed set.

#include <cstdio>
#include <cstdlib>

#include "harness.h"
#include "instruments.h"

namespace perfbench {

namespace {

struct LayerDef {
  const char* name;
  const char* unit;
};

const LayerDef kLayers[] = {
    // cube build, read from init_stats()
    {"cube.dry_run_ms", "ms"},
    {"cube.real_run_ms", "ms"},
    {"cube.iceberg_cells", "count"},
    {"sampling.global_ms", "ms"},
    {"selection.ms", "ms"},
    {"selection.representatives", "count"},
    {"selection.cells_sharing", "count"},
    {"spatial.build_ms", "ms"},
    // loss / sampling, from the forwarding LossFunction decorator
    {"loss.candidate_evals", "count"},
    {"loss.adds", "count"},
    {"loss.adds_per_candidate_eval", "ratio"},
    {"loss.binds", "count"},
    {"loss.finalizes", "count"},
    {"loss.direct_evals", "count"},
    {"loss.direct_eval_ms", "ms"},
    {"loss.accumulated_rows", "count"},
    {"sampling.cells_sampled", "count"},
    // core engine, from the forwarding QueryEngine decorator
    {"core.query_us", "us"},
    {"core.lookup_us", "us"},
    {"core.local_sample_ratio", "ratio"},
    {"core.stale_ratio", "ratio"},
    {"core.plan_ms", "ms"},
    {"core.begin_ms", "ms"},
    {"core.execute_ms", "ms"},
    {"core.commit_ms", "ms"},
    // serving layer
    {"serve.query_us", "us"},
    {"serve.self_us", "us"},
    {"serve.queue_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.cache_invalidated", "count"},
    // tiered sample store
    {"store.promotes", "count"},
    {"store.demotes", "count"},
    {"store.promotes_per_miss", "ratio"},
    {"store.resident_bytes", "bytes"},
    {"store.degraded", "count"},
    // spatial grid
    {"spatial.interior_cells", "count"},
    {"spatial.boundary_cells", "count"},
    {"spatial.range_lookup_us", "us"},
    // streaming ingest
    {"ingest.append_ms", "ms"},
    {"ingest.commits", "count"},
    {"ingest.rows_per_commit", "count"},
    {"ingest.failures", "count"},
    {"ingest.pending_rows_max", "count"},
    // sharding
    {"shard.build_ms", "ms"},
    {"shard.merge_ms", "ms"},
    {"shard.critical_path_ms", "ms"},
    {"shard.verified_cells", "count"},
    {"shard.resampled_cells", "count"},
    {"shard.query_us", "us"},
    {"shard.unavailable", "count"},
    // wire protocol
    {"net.rtt_us", "us"},
    {"net.server_us", "us"},
    {"net.self_us", "us"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"net.request_bytes", "bytes"},
    {"net.answer_bytes", "bytes"},
    {"net.hedges", "count"},
    {"net.hedge_wins", "count"},
    {"net.reconnects", "count"},
    // the harness itself
    {"bench.lateness_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.spans", "count"},
};

double PerCall(Counter total, Counter calls, double scale) {
  const uint64_t n = Sum(calls);
  return n == 0 ? 0.0 : static_cast<double>(Sum(total)) * scale / n;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / den;
}

}  // namespace

void InitLayers(RunReport* report) {
  for (const LayerDef& def : kLayers) {
    report->layers[def.name] = Metric{0.0, def.unit};
  }
}

void SetLayer(RunReport* report, const std::string& name, double value) {
  auto it = report->layers.find(name);
  if (it == report->layers.end()) {
    std::fprintf(stderr, "perfbench: unknown layer metric %s\n", name.c_str());
    std::abort();
  }
  it->second.value = value;
}

void FillInitLayers(RunReport* report, const tabula::TabulaInitStats& s) {
  SetLayer(report, "cube.dry_run_ms", s.dry_run_millis);
  SetLayer(report, "cube.real_run_ms", s.real_run_millis);
  SetLayer(report, "cube.iceberg_cells", static_cast<double>(s.iceberg_cells));
  SetLayer(report, "sampling.global_ms", s.global_sample_millis);
  SetLayer(report, "selection.ms", s.selection_millis);
  SetLayer(report, "selection.representatives",
           static_cast<double>(s.representative_samples));
  SetLayer(report, "selection.cells_sharing",
           static_cast<double>(s.cells_sharing_samples));
  SetLayer(report, "spatial.build_ms", s.spatial_millis);
}

void FillCounterLayers(RunReport* report) {
  SetLayer(report, "loss.candidate_evals",
           static_cast<double>(Sum(kLossCandidateEvals)));
  SetLayer(report, "loss.adds", static_cast<double>(Sum(kLossAdds)));
  SetLayer(report, "loss.adds_per_candidate_eval",
           Ratio(Sum(kLossAdds), Sum(kLossCandidateEvals)));
  SetLayer(report, "loss.binds", static_cast<double>(Sum(kLossBinds)));
  SetLayer(report, "loss.finalizes", static_cast<double>(Sum(kLossFinalizes)));
  SetLayer(report, "loss.direct_evals",
           static_cast<double>(Sum(kLossDirectEvals)));
  SetLayer(report, "loss.direct_eval_ms",
           static_cast<double>(Sum(kLossDirectEvalNs)) / 1e6);
  SetLayer(report, "loss.accumulated_rows",
           static_cast<double>(Sum(kLossAccumulatedRows)));
  SetLayer(report, "sampling.cells_sampled",
           static_cast<double>(Sum(kSamplingCellsSampled)));

  const uint64_t engine_queries = Sum(kCoreQueries) + Sum(kShardQueries);
  SetLayer(report, "core.query_us", PerCall(kCoreQueryNs, kCoreQueries, 1e-3));
  SetLayer(report, "core.lookup_us",
           engine_queries == 0
               ? 0.0
               : static_cast<double>(Sum(kCoreLookupNs)) * 1e-3 /
                     engine_queries);
  SetLayer(report, "core.local_sample_ratio",
           Ratio(Sum(kCoreLocalAnswers), engine_queries));
  SetLayer(report, "core.stale_ratio",
           Ratio(Sum(kCoreStaleAnswers), engine_queries));
  SetLayer(report, "core.plan_ms", PerCall(kCorePlanNs, kCorePlans, 1e-6));
  SetLayer(report, "core.begin_ms", PerCall(kCoreBeginNs, kCorePlans, 1e-6));
  SetLayer(report, "core.execute_ms",
           PerCall(kCoreExecuteNs, kCorePlans, 1e-6));
  SetLayer(report, "core.commit_ms",
           PerCall(kCoreCommitNs, kCoreCommits, 1e-6));

  const uint64_t served = Sum(kServeQueries);
  SetLayer(report, "serve.query_us", PerCall(kServeNs, kServeQueries, 1e-3));
  SetLayer(report, "serve.self_us",
           served == 0 ? 0.0
                       : (static_cast<double>(Sum(kServeNs)) -
                          static_cast<double>(Sum(kCoreQueryNs) +
                                              Sum(kShardQueryNs))) *
                             1e-3 / served);
  SetLayer(report, "serve.queue_ms",
           PerCall(kServeQueueNs, kServeQueries, 1e-6));

  SetLayer(report, "spatial.interior_cells",
           Ratio(Sum(kSpatialInterior), Sum(kSpatialDecomposes)));
  SetLayer(report, "spatial.boundary_cells",
           Ratio(Sum(kSpatialBoundary), Sum(kSpatialDecomposes)));
  SetLayer(report, "spatial.range_lookup_us",
           PerCall(kSpatialRangeNs, kSpatialRangeQueries, 1e-3));

  SetLayer(report, "ingest.append_ms",
           PerCall(kIngestAppendNs, kIngestAppends, 1e-6));
  SetLayer(report, "ingest.commits", static_cast<double>(Sum(kCoreCommits)));
  SetLayer(report, "ingest.rows_per_commit",
           Ratio(Sum(kCoreCommittedRows), Sum(kCoreCommits)));

  SetLayer(report, "shard.query_us",
           PerCall(kShardQueryNs, kShardQueries, 1e-3));

  const double rtt = PerCall(kNetRttNs, kNetRequests, 1e-3);
  SetLayer(report, "net.rtt_us", rtt);
  SetLayer(report, "net.encode_us", PerCall(kNetEncodeNs, kNetEncodes, 1e-3));
  SetLayer(report, "net.decode_us", PerCall(kNetDecodeNs, kNetDecodes, 1e-3));
  SetLayer(report, "net.request_bytes",
           PerCall(kNetRequestBytes, kNetRequests, 1.0));
  SetLayer(report, "net.answer_bytes",
           PerCall(kNetAnswerBytes, kNetRequests, 1.0));
}

}  // namespace perfbench
