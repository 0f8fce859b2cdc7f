// Shared pieces of the perfbench harness: run options, the run report
// every workload fills, input generation, latency statistics, outcome
// counting and the θ audit.
//
// Everything here measures the library from outside: it calls the
// public API and times or counts those calls. Nothing in src/ is
// instrumented for the benchmark.

#ifndef PERFBENCH_HARNESS_HARNESS_H_
#define PERFBENCH_HARNESS_HARNESS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/query_request.h"
#include "core/tabula.h"
#include "loss/loss_function.h"
#include "serve/query_server.h"
#include "storage/table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (WAL, span dump).
  std::string workdir = ".";
};

/// Deterministic 64-bit generator (SplitMix64): the same seed gives the
/// same inputs on every platform and standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Zipf(s) rank sampler over n items (rank 0 most popular).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Draw(SplitMix* rng) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------
// Latency statistics
// ---------------------------------------------------------------------

/// Summary of one latency sample set. `tail_q` is the highest
/// percentile of {50, 90, 99, 99.9, 99.99} that has at least ten
/// samples beyond it; `tail_ms` is its value.
struct LatencySummary {
  size_t count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double tail_q = 0.0;
  double tail_ms = 0.0;
};

/// The highest of the fixed percentiles with >= 10 samples beyond it
/// (0 when even the median lacks them).
double SupportedTailQuantile(size_t count);
/// Nearest-rank percentile of `sorted` (ascending), q in [0, 1].
double QuantileOfSorted(const std::vector<double>& sorted, double q);
LatencySummary Summarize(std::vector<double> millis);
double Median(std::vector<double> values);

// ---------------------------------------------------------------------
// Outcome counting (error_rate)
// ---------------------------------------------------------------------

/// How one attempted operation ended, as the dashboard sees it.
enum class Outcome {
  kOk,
  kFailed,         ///< error status returned
  kRefused,        ///< admission queue full (kUnavailable)
  kDegraded,       ///< deadline expired, global sample served
  kStoreDegraded,  ///< tiered-store promote failed, global sample served
  kShardDown,      ///< a shard slice was unavailable
};

/// Classifies a served answer (or the status of a failed request).
Outcome ClassifyAnswer(const tabula::Status& status,
                       const tabula::ServeAnswer* answer);

/// Thread-safe tally of outcomes; everything but kOk counts as failed.
class OutcomeTally {
 public:
  void Add(Outcome outcome) {
    counts_[static_cast<size_t>(outcome)].fetch_add(
        1, std::memory_order_relaxed);
  }
  uint64_t count(Outcome outcome) const {
    return counts_[static_cast<size_t>(outcome)].load();
  }
  uint64_t attempted() const {
    uint64_t total = 0;
    for (const auto& c : counts_) total += c.load();
    return total;
  }
  uint64_t failed() const { return attempted() - count(Outcome::kOk); }
  double error_rate() const {
    const uint64_t a = attempted();
    return a == 0 ? 0.0 : static_cast<double>(failed()) / a;
  }

 private:
  std::array<std::atomic<uint64_t>, 6> counts_{};
};

// ---------------------------------------------------------------------
// θ audit
// ---------------------------------------------------------------------

/// One (request, answer) pair kept for the audit.
struct AuditItem {
  tabula::QueryRequest request;
  std::vector<tabula::RowId> sample;
  /// The answer carried a flag that voids the θ bound (degraded,
  /// store_degraded, unavailable shards); it is not checked, only
  /// counted.
  bool flagged = false;
  bool empty_cell = false;
};

/// Checks answers against truth rows found by a direct column scan of
/// the base table (no cube, grid or shard code), evaluated with
/// LossFunction::Loss. A violation is an unflagged answer whose loss
/// exceeds θ.
class ThetaAudit {
 public:
  ThetaAudit(const tabula::Table* table, const tabula::LossFunction* loss,
             double theta);

  /// Rows of the table matching the request (equality terms on
  /// categorical columns, plus an optional inclusive bbox with named
  /// bounds).
  tabula::Result<std::vector<tabula::RowId>> TruthRows(
      const tabula::QueryRequest& request) const;

  /// Audits one item; returns a non-OK status on a violation.
  tabula::Status Check(const AuditItem& item);

  size_t checked() const { return checked_; }
  size_t flagged() const { return flagged_; }
  double max_loss() const { return max_loss_; }

 private:
  const tabula::Table* table_;
  const tabula::LossFunction* loss_;
  double theta_;
  size_t checked_ = 0;
  size_t flagged_ = 0;
  double max_loss_ = 0.0;
};

/// FNV-1a over a row-id list, chained onto `h`.
uint64_t HashRows(uint64_t h, const std::vector<tabula::RowId>& rows);
inline constexpr uint64_t kHashSeed = 1469598103934665603ull;

// ---------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produces.
struct RunReport {
  /// The end-to-end metrics BENCHMARK.json gates (every workload).
  std::map<std::string, Metric> end_to_end;
  /// Workload-specific end-to-end figures (printed, not gated).
  std::map<std::string, Metric> detail;
  /// Per-layer metrics (traced run only).
  std::map<std::string, Metric> layers;
  /// Provenance and sizing (rows, θ, ...).
  std::map<std::string, std::string> provenance;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;

  void Violation(const std::string& what) { violations.push_back(what); }
  bool correct() const { return violations.empty(); }
};

/// Per-layer metric plumbing (layers.cc). InitLayers sets every
/// per-layer metric to 0 with its unit; SetLayer aborts on a name
/// outside that table, so the reported set cannot drift.
void InitLayers(RunReport* report);
void SetLayer(RunReport* report, const std::string& name, double value);
void FillInitLayers(RunReport* report, const tabula::TabulaInitStats& stats);
/// The counter-derived metrics (loss, core, serve, spatial, ingest,
/// shard query, net codec).
void FillCounterLayers(RunReport* report);

/// Cumulative CPU time of the machine from /proc/stat, in clock ticks:
/// all states, and the share the hypervisor stole.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// CPU time this process has used, all threads, in milliseconds.
double ProcessCpuMs();

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Generates the taxi table for a run (rows drawn from `seed`).
std::unique_ptr<tabula::Table> MakeTaxiTable(size_t rows, uint64_t seed);

/// The `count` most populous non-empty equality cells over
/// `attributes` (every cuboid), most populous first: the Zipf rank
/// order of the dashboard workloads.
std::vector<tabula::QueryRequest> PopularCells(
    const tabula::Table& table, const std::vector<std::string>& attributes,
    size_t count);

/// Deterministic pan/zoom bbox frames over the pickup columns.
std::vector<tabula::SpatialRange> PanZoomFrames(const tabula::Table& table,
                                                size_t count, uint64_t seed);

inline tabula::QueryRequest RangeRequest(const tabula::SpatialRange& range) {
  tabula::QueryRequest r;
  r.range = range;
  return r;
}

/// Workload entry points (workloads.cc).
tabula::Status RunBuildHeatmap(const RunOptions& options, RunReport* report);
tabula::Status RunDashboardZipf(const RunOptions& options, RunReport* report);
tabula::Status RunIngestServe(const RunOptions& options, RunReport* report);
tabula::Status RunWireSharded(const RunOptions& options, RunReport* report);

/// Harness self-tests (selftest.cc); returns the failures.
std::vector<std::string> RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HARNESS_H_
