#ifndef TABULA_SHARD_SHARDED_TABULA_H_
#define TABULA_SHARD_SHARDED_TABULA_H_

#include <atomic>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "core/query_engine.h"
#include "core/tabula.h"
#include "cube/cube_table.h"
#include "cube/lattice.h"
#include "serve/metrics.h"
#include "storage/table.h"

namespace tabula {

/// How ShardedTabula assigns base-table rows to shards.
enum class ShardPartition {
  /// shard(r) = mix(r) % K — rows scatter uniformly, every shard sees
  /// an unbiased slice of every cell. Appends touch most shards.
  kHash,
  /// Contiguous row ranges at build time; appended rows go to the
  /// currently smallest shard, so a small append touches one shard and
  /// Refresh re-verifies only that shard.
  kRange,
};

const char* ShardPartitionName(ShardPartition partition);

/// Configuration of a sharded sampling cube.
struct ShardedTabulaOptions {
  /// Per-shard build parameters (loss, θ, cubed attributes, sampler,
  /// seed, tracer). Two knobs behave differently under sharding:
  /// `enable_sample_selection` is ignored (each shard persists its local
  /// samples individually — cross-cell representative-sample sharing is
  /// a global optimization the partitioned build forgoes), and every
  /// shard keeps its finest-cell loss states (the merge pass needs
  /// them).
  TabulaOptions base;
  /// Number of shards K; must be at least 2. A single-instance
  /// deployment is a plain `Tabula`.
  size_t num_shards = 2;
  ShardPartition partition = ShardPartition::kHash;
  /// Serving replicas per shard (R). Each shard's cube is built once
  /// and registered with R replicas that share the immutable cube and
  /// sample tables; what is replicated is the *serving* path, not the
  /// data. Query() probes replicas in health/EWMA order and degrades a
  /// shard's slice to the global sample only when every replica of
  /// that shard is gone. R = 1 keeps the pre-replication behaviour
  /// (and persistence format) exactly.
  size_t replicas_per_shard = 1;
};

/// Diagnostics of one sharded Initialize() (or the merge part of a
/// Refresh). The merge counters document how the deterministic θ bound
/// was restored for the merged cube — see DESIGN.md "Sharding".
struct ShardedInitStats {
  size_t num_shards = 0;
  size_t global_sample_tuples = 0;
  /// Iceberg cells of the merged cube (equals the single-instance
  /// count: loss states merge exactly, so classification agrees).
  size_t merged_iceberg_cells = 0;
  /// Merged iceberg cells whose shard-local iceberg status disagreed
  /// across shards (some slice was covered by the global sample alone).
  size_t conflict_cells = 0;
  /// Cells accepted by the union-closure argument, no check needed.
  size_t union_accepted_cells = 0;
  /// Cells whose merged sample was re-verified (state finalize or
  /// direct loss evaluation).
  size_t verified_cells = 0;
  /// Cells whose union sample violated θ and were re-sampled from the
  /// full raw data into an override sample.
  size_t resampled_cells = 0;
  double build_millis = 0.0;   ///< parallel per-shard build (wall)
  double merge_millis = 0.0;   ///< merge + re-verification
  double total_millis = 0.0;
  /// Modeled K-worker wall clock: the coordinator's serial work
  /// (partition, state merge, re-verification) plus the *slowest*
  /// single shard build. Shard builds are independent pool tasks, so
  /// measured wall clock converges to this once the pool has >= K
  /// workers; on smaller pools the tasks time-share and total_millis
  /// approaches the sum instead. bench_shard_scaling reports both.
  double critical_path_millis = 0.0;
  std::vector<double> shard_build_millis;   ///< per shard
  std::vector<size_t> shard_iceberg_cells;  ///< per shard (local cubes)
};

/// \brief Horizontally sharded sampling cube behind the QueryEngine
/// interface (the paper's middleware scaled out the way its testbed
/// scaled SparkSQL executors).
///
/// Initialize() partitions the base table's rows into K shards and
/// builds each shard as a `Tabula` partition over its rows — the same
/// dry run / real run the single instance runs, one coarse task per
/// shard on the global pool, sharing the coordinator's key encoder and
/// global sample — then merges: per-cell loss states merge *exactly* (they
/// are algebraic), so the merged iceberg-cell set equals the
/// single-instance cube's, and each merged iceberg cell's answer is the
/// union of its shard-local samples — re-verified against θ at merge
/// time and re-sampled from the full raw data when the union violates
/// the bound (see DESIGN.md "Sharding" for the argument per loss
/// class). Query() scatter-gathers shard samples through R-way replica
/// groups (`replicas_per_shard`): replicas of a shard share its
/// immutable cube, so any healthy replica serves the identical slice;
/// probes go in health-then-EWMA-latency order and fail over on a
/// `replica.query` / `replica.query.s<k>.r<j>` fault or an explicit
/// SetReplicaDown. Only when *every* replica of a shard is gone (or
/// the whole group fails at the legacy `shard.query` seam) does the
/// answer degrade: the global sample stands in for the missing slice,
/// `TabulaQueryResult::unavailable_shards` + `shard_error` populate,
/// and the θ bound is voided — the request still succeeds.
///
/// Thread-safety matches Tabula: Query() is const ⇒ concurrent-safe;
/// Refresh()/Save()/Load() require external serialization.
class ShardedTabula : public QueryEngine {
 public:
  static Result<std::unique_ptr<ShardedTabula>> Initialize(
      const Table& table, ShardedTabulaOptions options);

  Result<QueryResponse> Query(const QueryRequest& request) const override;
  Status Refresh(RefreshStats* stats = nullptr) override;

  /// \brief Streaming-maintenance phases (see QueryEngine). Refresh()
  /// composes them. PlanIngest routes the pending rows to their owning
  /// shards and computes the dirty cell set; ExecuteIngest rebuilds the
  /// touched shards into staged partitions and re-runs the merge + θ
  /// re-verification over the mix of staged and untouched shards;
  /// CommitIngest adopts the staged shards and the merged directory.
  /// Plan/Execute mutate only plan-staged state plus maintenance-only
  /// members Query() never reads (a loaded shard's finest states and
  /// present set), so they may run under a shared lock while queries
  /// serve.
  Result<std::unique_ptr<IngestPlan>> PlanIngest() override;
  void BeginIngest(IngestPlan* plan) override;
  Status ExecuteIngest(IngestPlan* plan) override;
  Status CommitIngest(std::unique_ptr<IngestPlan> plan,
                      RefreshStats* stats = nullptr) override;
  size_t PendingIngestRows() const override {
    return table_->num_rows() - refreshed_rows_;
  }

  /// Persists the shard manifest: partition + per-shard row lists with
  /// fingerprints, per-shard cubes and sample tables, and the merged
  /// directory with override samples — one file, written
  /// temp-then-rename so a failure mid-write never leaves a partial
  /// manifest.
  Status Save(const std::string& path) const override;

  /// Restores a manifest saved with Save(). `options` must match the
  /// saved loss, threshold, attributes, shard count and partition; the
  /// base-table fingerprint and every per-shard row-list fingerprint
  /// are verified before the manifest is trusted. Like Tabula::Load,
  /// the default rejects a manifest covering fewer rows than the table
  /// holds; `resume_partial = true` accepts it when the covered prefix
  /// matches (crash recovery after a journal replay), leaving the tail
  /// pending for the next Refresh()/ingest cycle. Like Initialize(),
  /// requires num_shards >= 2.
  static Result<std::unique_ptr<ShardedTabula>> Load(
      const Table& table, ShardedTabulaOptions options,
      const std::string& path, bool resume_partial = false);

  uint64_t generation() const override { return generation_; }
  uint64_t AddRefreshListener(std::function<void()> listener) override;
  void RemoveRefreshListener(uint64_t id) override;
  const DatasetView& global_sample() const override { return global_sample_; }
  const Table& base_table() const override { return *table_; }

  size_t num_shards() const { return options_.num_shards; }
  const ShardedTabulaOptions& options() const { return options_; }
  const ShardedInitStats& init_stats() const { return stats_; }

  /// Aggregated tiered-store counters across the K shard stores and the
  /// override store (per-shard budgets sum to base.store.budget_bytes;
  /// see DESIGN.md §12).
  SampleStoreStats StoreStats() const;
  /// Resident sample bytes across every store (the sharded budget
  /// invariant's left-hand side). 0 when the store is disabled.
  uint64_t StoreBytes() const;

  /// Number of iceberg cells of the merged cube.
  size_t merged_iceberg_cells() const { return merged_.size(); }
  /// Sorted packed keys of every merged iceberg cell (for differential
  /// tests against a single-instance cube).
  std::vector<uint64_t> MergedIcebergKeys() const {
    return merged_.SortedKeys();
  }

  /// Row ids owned by shard `i`.
  const std::vector<RowId>& shard_rows(size_t i) const;
  /// Shard `i`'s local cube (tests and diagnostics).
  const CubeTable& shard_cube(size_t i) const;

  /// Per-shard serving metrics: `shard<i>_query_latency` histograms,
  /// `shard_unavailable_total` / `shard_degraded_answers` counters and
  /// the `shard_fanout_latency` histogram; with R > 1 also
  /// `shard<i>_replica<j>_latency` histograms and the
  /// `replica_probe_failures` / `replica_failovers` counters. Safe to
  /// read concurrently with Query().
  MetricsRegistry& metrics() const { return metrics_; }

  /// Serving replicas per shard (R; 1 when unconfigured).
  size_t replicas_per_shard() const;
  /// Marks one replica of one shard down (true) or back up (false).
  /// Down replicas are skipped by the scatter-gather router; marking
  /// every replica of a shard down degrades that shard's slices to the
  /// global sample. Thread-safe against concurrent Query().
  Status SetReplicaDown(size_t shard, size_t replica, bool down);
  bool replica_down(size_t shard, size_t replica) const;
  /// Replicas of `shard` currently not marked down.
  size_t HealthyReplicaCount(size_t shard) const;

 private:
  ShardedTabula() = default;

  /// Staged state of one in-flight ingest cycle (defined in
  /// sharded_refresh.cc; the layout is an implementation detail).
  struct IngestPlanState;

  /// One entry of the merged cube directory.
  struct MergedCell {
    CuboidMask cuboid = 0;
    /// When true the union sample violated θ and `override_id` names
    /// the re-drawn sample in `override_samples_`; otherwise the
    /// answer is the scatter-gathered union of shard samples.
    bool has_override = false;
    /// Conflict cell whose absent slices are covered by the global
    /// sample: the answer (and the candidate the merge verified) is
    /// the shard-sample union *plus* the global sample, exactly the
    /// rows the missing slices would have been answered from anyway.
    bool augment_global = false;
    uint32_t override_id = 0;
  };

  /// Output of the merge + re-verification pass (staged, so a failed
  /// Refresh commits nothing).
  struct MergeOutput {
    FlatHashMap<MergedCell> merged;
    SampleTable overrides;
    size_t conflict_cells = 0;
    size_t union_accepted_cells = 0;
    size_t verified_cells = 0;
    size_t resampled_cells = 0;
  };

  /// Serving-path state of one replica. Replicas share the shard's
  /// immutable partition; only liveness and the latency estimate are
  /// per-replica. Lives in a deque so the atomics never relocate.
  struct Replica {
    std::atomic<bool> down{false};
    /// EWMA probe latency in nanoseconds (0 = no observation yet);
    /// drives the probe order so a consistently slow replica is routed
    /// around.
    std::atomic<int64_t> ewma_nanos{0};
  };

  Status InitializeSharded(const Table& table);

  /// Sizes `replicas_` to K * R (called after the partitions exist, from
  /// both the build and the Load path).
  void InitReplicas();

  Replica& replica_state(size_t shard, size_t replica) const {
    return replicas_[shard * replicas_per_shard() + replica];
  }

  /// Probe order for `shard`: healthy replicas before down ones, then
  /// ascending EWMA latency, then ascending index (deterministic
  /// tie-break — cold replicas probe in index order).
  std::vector<size_t> ReplicaOrder(size_t shard) const;

  /// Probes `shard`'s replicas in ReplicaOrder, honoring the
  /// `replica.query` / `replica.query.s<k>.r<j>` fault seams and
  /// updating EWMAs/metrics. OK once any healthy replica answered;
  /// Unavailable when every replica is down or faulted. Replicas share
  /// the shard's immutable data, so after a successful probe the caller
  /// reads the shard state directly — the bytes are replica-invariant.
  Status ProbeReplicas(size_t shard) const;

  /// Serves shard `shard`'s slice of cell `key` from its first healthy
  /// replica, appending sample rows to `gathered` (replicas share the
  /// partition, so the appended rows are replica-invariant). Fails only
  /// when every replica is down or faulted. With the tiered store
  /// enabled, a cold slice lazily promotes through the partition's
  /// store; a promote failure sets `result->store_degraded` instead of
  /// failing (the caller degrades the whole answer to the global sample
  /// — the evicted bytes are never served).
  Status QueryShardReplicas(size_t shard, uint64_t key, uint64_t query_span,
                            std::vector<RowId>* gathered,
                            TabulaQueryResult* result) const;

  /// Scatter-gather bbox path (defined in sharded_spatial.cc): per-shard
  /// grid partials composed with the same θ ladder as the merge, a
  /// failed shard degrading the answer to include the global sample.
  Status QueryRange(const QueryRequest& request, bool has_pending,
                    TabulaQueryResult* result) const;

  /// Partition options for one shard: selection off, the shard's slice
  /// of the store budget, and no hot upgrades (the union bound was
  /// verified against build-time samples).
  TabulaOptions PartitionOptions() const;

  /// Builds the partitions for `rows` (one per entry, in parallel: one
  /// pool task each, under a `shard.build` span and fault seam). `enc`
  /// and `ref_rows` are explicit because an in-flight ingest plan builds
  /// with its staged encoder and redrawn global sample (the members stay
  /// untouched until commit; queries read them).
  Result<std::vector<std::unique_ptr<Tabula>>> BuildPartitions(
      std::vector<std::vector<RowId>> rows, const KeyEncoder& enc,
      const std::vector<RowId>& ref_rows, Tracer* tracer,
      uint64_t parent_span) const;

  /// Merges the given partitions' states into a fresh directory,
  /// running the θ re-verification pass (see DESIGN.md "Sharding").
  Result<MergeOutput> MergeShardCubes(
      const std::vector<const Tabula*>& parts, const KeyEncoder& enc,
      const DatasetView& ref, const std::vector<RowId>& ref_rows) const;

  /// Shard owning an appended row id under the configured partition.
  size_t ShardForNewRow(RowId row, const std::vector<size_t>& sizes) const;

  // --- Tiered sample store (sharded_store.cc) -----------------------
  bool store_enabled() const { return options_.base.store.budget_bytes > 0; }
  /// Per-participant byte budget: the global budget splits evenly over
  /// K shard stores + the coordinator's override store (the remainder
  /// goes to the override store so the K+1 budgets sum exactly to the
  /// global one).
  uint64_t ShardStoreBudget() const;
  uint64_t OverrideStoreBudget() const;
  /// Validates the store knobs for K > 1 (drop mode only, a non-zero
  /// slice per participant).
  Status ValidateStoreOptions() const;
  /// Configures the override store and registers every override sample
  /// at kWarm (preserving tiers Load() adopted), then enforces its
  /// budget. Each partition's store is its own (Tabula's tiers).
  Status AssignOverrideTiers();
  /// Restores a cold override sample (cross-shard gather, ascending
  /// sort, re-sample — the merge-time draw reproduced) and appends the
  /// restored rows to `out`. Caller holds store_mu_ exclusively.
  Status PromoteOverrideLocked(uint64_t key, const MergedCell& cell,
                               std::vector<RowId>* out) const;

  void NotifyRefreshListeners();

  const Table* table_ = nullptr;
  ShardedTabulaOptions options_;

  KeyEncoder encoder_;
  KeyPacker packer_;
  /// Placeholder size until Initialize/Load set the real lattice
  /// (Lattice rejects zero attributes).
  Lattice lattice_{1};
  std::vector<RowId> global_sample_rows_;
  DatasetView global_sample_;
  /// One partition per shard, each a Tabula over the shard's ascending
  /// row list with its own tiered store (the shard's budget slice).
  std::vector<std::unique_ptr<Tabula>> parts_;
  /// K * R replica states, indexed shard * R + replica. A deque so the
  /// atomics never relocate; mutable because probes update EWMAs from
  /// const Query().
  mutable std::deque<Replica> replicas_;
  FlatHashMap<MergedCell> merged_;
  /// Mutable: with the store enabled, const Query() promotes cold
  /// override samples in place under store_mu_'s exclusive section.
  mutable SampleTable override_samples_;
  /// The coordinator's store for override samples, guarded by
  /// store_mu_ (each partition guards its own store). Heap-allocated
  /// lock: the engine must stay movable. See Tabula::store_mu_ for the
  /// shared/exclusive protocol.
  mutable SampleStore override_store_;
  mutable std::unique_ptr<std::shared_mutex> store_mu_ =
      std::make_unique<std::shared_mutex>();
  ShardedInitStats stats_;
  size_t refreshed_rows_ = 0;
  /// Cells the in-flight ingest cycle will change (packed keys across
  /// all cuboids), published by BeginIngest, cleared by CommitIngest;
  /// Query() probes it for per-cell staleness tagging (empty while rows
  /// pend ⇒ conservatively stale everywhere).
  FlatHashSet pending_dirty_;

  mutable MetricsRegistry metrics_;

  uint64_t generation_ = 0;
  uint64_t next_listener_id_ = 1;
  std::vector<std::pair<uint64_t, std::function<void()>>> refresh_listeners_;
};

}  // namespace tabula

#endif  // TABULA_SHARD_SHARDED_TABULA_H_
