/// Networked serving cost and the hedging win, on one loopback box:
///
///   phase 1  in-process QPS      QueryServer::Query, no sockets
///   phase 2  wire QPS            the same requests through
///                                TabulaNetServer + TabulaClient
///   phase 3  fat-tail, no hedge  every answer write stalls 25 ms with
///                                probability 5% (the `net.write.answer`
///                                delay seam) — p99 ≈ the stall
///   phase 4  fat-tail, hedged    same faults, hedge-after-floor on:
///                                the duplicate request races the
///                                stalled one, so p99 collapses to
///                                ~floor + service time (a slow tail
///                                needs BOTH copies stalled: 0.05²)
///   phase 5  replica kill        one replica of every shard down;
///                                answers must stay non-degraded and
///                                byte-identical
///
///   --smoke    small fixed scale + CI gates: wire answers identical
///              to in-process, hedging cuts the fat-tail p99 by >=30%,
///              replica kill degrades nothing
///
/// Writes BENCH_net.json with the headline numbers (not under --smoke).

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/query_server.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {
namespace bench {
namespace {

double PercentileMs(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
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
  if (smoke) config.rows = std::min<size_t>(config.rows, 20000);

  constexpr size_t kShards = 4;
  constexpr size_t kReplicas = 2;
  const size_t qps_requests = smoke ? 2000 : 10000;
  const size_t tail_requests = smoke ? 600 : 3000;
  const double stall_ms = 25.0;
  const double stall_probability = 0.05;

  TaxiGeneratorOptions gen;
  gen.num_rows = config.rows;
  gen.seed = config.seed;
  std::unique_ptr<Table> table = TaxiGenerator(gen).Generate();
  auto loss = std::make_unique<MeanLoss>("fare_amount");

  ShardedTabulaOptions options;
  options.base.cubed_attributes = {"payment_type", "rate_code"};
  options.base.loss = loss.get();
  options.base.threshold = 0.05;
  options.num_shards = kShards;
  options.replicas_per_shard = kReplicas;
  auto engine = ShardedTabula::Initialize(*table, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "init failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  QueryServer server(engine.value().get());
  // A stalled reply write pins its worker for the whole stall, and a
  // hedge needs a free worker for its fresh connection — size the pool
  // so abandoned-but-sleeping workers cannot starve the rescue path.
  NetServerOptions server_options;
  server_options.num_workers = 32;
  TabulaNetServer net_server(&server, server_options);
  if (Status started = net_server.Start(); !started.ok()) {
    std::fprintf(stderr, "net start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  auto requests = [&] {
    WorkloadOptions wopt;
    wopt.num_queries = 64;
    wopt.seed = config.seed + 1;
    auto qs =
        GenerateWorkload(*table, options.base.cubed_attributes, wopt);
    std::vector<QueryRequest> out;
    if (qs.ok()) {
      for (const auto& q : qs.value()) out.emplace_back(q.where);
    }
    return out;
  }();
  if (requests.empty()) {
    std::fprintf(stderr, "workload generation failed\n");
    return 1;
  }

  // Phase 1: in-process QPS.
  double inproc_qps = 0.0;
  {
    Stopwatch timer;
    for (size_t i = 0; i < qps_requests; ++i) {
      auto a = server.Query(requests[i % requests.size()]);
      if (!a.ok()) return 1;
    }
    inproc_qps = static_cast<double>(qps_requests) /
                 (timer.ElapsedMillis() / 1000.0);
  }

  auto make_client = [&](bool hedge) {
    NetClientOptions copt;
    copt.endpoints.push_back({"127.0.0.1", net_server.port()});
    copt.hedge = hedge;
    copt.hedge_floor_ms = 3.0;
    copt.hedge_min_samples = 1u << 30;  // floor-paced: deterministic
    return std::make_unique<TabulaClient>(std::move(copt));
  };

  // Phase 2: wire QPS + answer-identity check against in-process.
  double net_qps = 0.0;
  size_t mismatches = 0;
  {
    auto client = make_client(false);
    client->set_table(table.get());
    for (const auto& r : requests) {
      auto wire = client->Query(r);
      auto local = server.Query(r);
      if (!wire.ok() || !local.ok()) return 1;
      if (wire->result->sample.ToRowIds() !=
          local->result->sample.ToRowIds()) {
        ++mismatches;
      }
    }
    Stopwatch timer;
    for (size_t i = 0; i < qps_requests; ++i) {
      auto a = client->Query(requests[i % requests.size()]);
      if (!a.ok()) return 1;
    }
    net_qps = static_cast<double>(qps_requests) /
              (timer.ElapsedMillis() / 1000.0);
  }

  // Phases 3 + 4: the fat tail, unhedged then hedged. The delay seam
  // triggers deterministically per hit index, so both runs face the
  // same stall schedule shape.
  auto run_tail = [&](bool hedge) {
    FaultSpec slow;
    slow.probability = stall_probability;
    slow.delay_ms = stall_ms;
    slow.fail = false;
    slow.seed = 17;
    FaultInjector::Global().Arm("net.write.answer", slow);
    auto client = make_client(hedge);
    client->set_table(table.get());
    std::vector<double> millis;
    millis.reserve(tail_requests);
    for (size_t i = 0; i < tail_requests; ++i) {
      Stopwatch timer;
      auto a = client->Query(requests[i % requests.size()]);
      if (!a.ok()) {
        std::fprintf(stderr, "tail query failed: %s\n",
                     a.status().ToString().c_str());
        std::exit(1);
      }
      millis.push_back(timer.ElapsedMillis());
    }
    FaultInjector::Global().DisarmAll();
    double hedges = static_cast<double>(
        client->metrics().counter("net_client_hedges").value());
    double wins = static_cast<double>(
        client->metrics().counter("net_client_hedge_wins").value());
    return std::tuple<double, double, double, double>(
        PercentileMs(millis, 0.50), PercentileMs(millis, 0.99), hedges,
        wins);
  };
  auto [p50_unhedged, p99_unhedged, h0, w0] = run_tail(false);
  auto [p50_hedged, p99_hedged, hedges, hedge_wins] = run_tail(true);
  (void)h0;
  (void)w0;

  // Phase 5: one replica of every shard down; all answers must stay
  // non-degraded and identical.
  size_t degraded_after_kill = 0;
  size_t kill_mismatches = 0;
  {
    for (size_t s = 0; s < kShards; ++s) {
      if (!engine.value()->SetReplicaDown(s, 0, true).ok()) return 1;
    }
    auto client = make_client(false);
    client->set_table(table.get());
    for (const auto& r : requests) {
      QueryRequest bypass = r;
      bypass.consistency = ConsistencyHint::kBypassCache;
      auto wire = client->Query(bypass);
      auto local = server.Query(bypass);
      if (!wire.ok() || !local.ok()) return 1;
      if (!wire->result->unavailable_shards.empty()) ++degraded_after_kill;
      if (wire->result->sample.ToRowIds() !=
          local->result->sample.ToRowIds()) {
        ++kill_mismatches;
      }
    }
    for (size_t s = 0; s < kShards; ++s) {
      (void)engine.value()->SetReplicaDown(s, 0, false);
    }
  }

  const double wire_overhead = inproc_qps / std::max(net_qps, 1e-9);
  const double p99_cut = 1.0 - p99_hedged / std::max(p99_unhedged, 1e-9);

  std::printf(
      "net throughput: in-process %.0f qps, wire %.0f qps "
      "(%.1fx overhead)\n",
      inproc_qps, net_qps, wire_overhead);
  std::printf(
      "fat tail (%.0f ms stall @ %.0f%%): p50 %.2f -> %.2f ms, "
      "p99 %.2f -> %.2f ms with hedging (%.0f%% cut, %zu hedges, "
      "%zu wins)\n",
      stall_ms, stall_probability * 100.0, p50_unhedged, p50_hedged,
      p99_unhedged, p99_hedged, p99_cut * 100.0,
      static_cast<size_t>(hedges), static_cast<size_t>(hedge_wins));
  std::printf(
      "replica kill: %zu degraded, %zu mismatched of %zu answers\n",
      degraded_after_kill, kill_mismatches, requests.size());

  JsonObject payload;
  payload.Set("bench", std::string("net_throughput"))
      .Set("rows", static_cast<double>(table->num_rows()))
      .Set("seed", static_cast<double>(config.seed))
      .Set("shards", static_cast<double>(kShards))
      .Set("replicas_per_shard", static_cast<double>(kReplicas))
      .Set("inproc_qps", inproc_qps)
      .Set("net_qps", net_qps)
      .Set("wire_overhead_x", wire_overhead)
      .Set("stall_ms", stall_ms)
      .Set("stall_probability", stall_probability)
      .Set("p50_unhedged_ms", p50_unhedged)
      .Set("p99_unhedged_ms", p99_unhedged)
      .Set("p50_hedged_ms", p50_hedged)
      .Set("p99_hedged_ms", p99_hedged)
      .Set("hedged_p99_cut", p99_cut)
      .Set("hedges", hedges)
      .Set("hedge_wins", hedge_wins)
      .Set("replica_kill_degraded",
           static_cast<double>(degraded_after_kill))
      .Set("answer_mismatches",
           static_cast<double>(mismatches + kill_mismatches));
  if (!smoke) WriteBenchJson("net", payload);

  net_server.Stop();

  if (smoke) {
    if (mismatches + kill_mismatches > 0) {
      std::printf("SMOKE FAIL: %zu wire answers differ from in-process\n",
                  mismatches + kill_mismatches);
      return 1;
    }
    if (degraded_after_kill > 0) {
      std::printf("SMOKE FAIL: %zu answers degraded with a healthy "
                  "replica of every shard still up\n",
                  degraded_after_kill);
      return 1;
    }
    // The tail-at-scale contract: with a 5% chance of a 25 ms stall,
    // an unhedged p99 sits at the stall while the hedged one needs two
    // independent stalls (0.25%). 30% is a deliberately generous floor
    // for noisy CI machines — the typical cut is >70%.
    if (p99_cut < 0.30) {
      std::printf("SMOKE FAIL: hedging cut p99 by only %.0f%% "
                  "(%.2f -> %.2f ms)\n",
                  p99_cut * 100.0, p99_unhedged, p99_hedged);
      return 1;
    }
    std::printf("SMOKE OK: answers identical, replica kill invisible, "
                "hedging cut p99 %.0f%%\n",
                p99_cut * 100.0);
  }
  return 0;
}
