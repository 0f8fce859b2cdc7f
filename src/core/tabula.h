#ifndef TABULA_CORE_TABULA_H_
#define TABULA_CORE_TABULA_H_

#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cube_engine.h"
#include "core/query_request.h"
#include "cube/cube_table.h"
#include "cube/dry_run.h"
#include "cube/real_run.h"
#include "loss/loss_function.h"
#include "obs/trace.h"
#include "sampling/greedy_sampler.h"
#include "selection/rep_selection.h"
#include "spatial/spatial_grid.h"
#include "storage/predicate.h"
#include "storage/table.h"
#include "store/sample_store.h"

namespace tabula {

/// Parameters of the initialization query (Section II): loss function,
/// threshold, cubed attributes, plus engine knobs.
struct TabulaOptions {
  /// Cubed attributes — the columns future WHERE clauses may filter on.
  std::vector<std::string> cubed_attributes;
  /// User-defined accuracy loss function (not owned; must outlive
  /// Tabula). Prefer `owned_loss`, which removes the lifetime footgun.
  const LossFunction* loss = nullptr;
  /// Owning variant of `loss` (e.g. from MakeLossFunction in
  /// loss/loss_registry.h). When both are set, `loss` wins — it is the
  /// explicit override. Shared so copies of the options (and the cube
  /// rebuilt by Refresh) keep the loss alive.
  std::shared_ptr<const LossFunction> owned_loss;
  /// The loss Initialize()/Refresh() actually use.
  const LossFunction* effective_loss() const {
    return loss != nullptr ? loss : owned_loss.get();
  }
  /// Accuracy loss threshold θ: the deterministic bound every returned
  /// sample satisfies.
  double threshold = 0.1;
  /// Serfling global-sample parameters (Section III-B1).
  double serfling_epsilon = 0.05;
  double serfling_delta = 0.01;
  /// SAMPLING(*, θ) engine knobs.
  GreedySamplerOptions sampler;
  /// Real-run data-fetch path (kAuto = the paper's cost model).
  RealRunPathPolicy path_policy = RealRunPathPolicy::kAuto;
  /// Representative-sample-selection knobs.
  SelectionOptions selection;
  /// When false, every local sample is persisted individually — the
  /// paper's Tabula* ablation (Section V, compared approach 6).
  bool enable_sample_selection = true;
  /// Ignored: every engine keeps its dry run's finest-cell states for
  /// incremental maintenance. Declared only because
  /// perfbench/harness/workloads.cc still assigns it; it is removed
  /// together with that assignment.
  bool keep_maintenance_state = false;
  /// Hierarchical spatial grid for bbox (pan/zoom) queries. Disabled by
  /// default (`spatial.levels == 0`): the engine then behaves bit for
  /// bit like the pre-spatial build and range requests are rejected.
  /// Enabling requires both grid columns to exist as DOUBLE columns.
  SpatialGridOptions spatial;
  /// Tracing sink (not owned; may be null). Initialize(), Query() and
  /// Refresh() emit spans into it; a null or kDisabled tracer costs one
  /// branch per call. Initialize() always produces spans — when this is
  /// unusable it records them into a private per-instance tracer so
  /// init_stats() stage timings are span-derived either way.
  Tracer* tracer = nullptr;
  /// Tiered sample store under a byte budget (DESIGN.md §12). The
  /// default (`store.budget_bytes == 0`) disables the store entirely:
  /// no tier tracking, no store locking, no persistence-format bump —
  /// the engine stays byte-identical to the pre-tiering build.
  SampleStoreOptions store;
  uint64_t seed = 42;
};

/// Timing/size breakdown of Initialize(), matching the components the
/// paper plots (Figures 8–10). Stage timings are derived from the init
/// spans (see Tabula::init_trace()), not hand-timed, so the trace and
/// the stats cannot disagree.
struct TabulaInitStats {
  double global_sample_millis = 0.0;
  double dry_run_millis = 0.0;
  double real_run_millis = 0.0;
  double selection_millis = 0.0;
  double spatial_millis = 0.0;
  double total_millis = 0.0;

  size_t global_sample_tuples = 0;
  size_t total_cells = 0;
  size_t iceberg_cells = 0;
  size_t iceberg_cuboids = 0;
  size_t representative_samples = 0;
  size_t cells_sharing_samples = 0;
  /// Spatial grid (0s when the grid is disabled).
  size_t spatial_cells = 0;
  size_t spatial_sample_tuples = 0;

  /// Memory components (Figure 9): global sample / cube table / sample
  /// table, in bytes, with tuples costed at the base table's row width.
  uint64_t global_sample_bytes = 0;
  uint64_t cube_table_bytes = 0;
  uint64_t sample_table_bytes = 0;
  uint64_t TotalBytes() const {
    return global_sample_bytes + cube_table_bytes + sample_table_bytes;
  }

  std::vector<CuboidRealRunInfo> real_run_cuboids;
};

/// Answer to a dashboard query.
struct TabulaQueryResult {
  /// The pre-materialized sample (rows of the base table).
  DatasetView sample;
  /// True when an iceberg cell's representative local sample was
  /// returned; false when the global sample sufficed (non-iceberg cell)
  /// or the cell is provably empty.
  bool from_local_sample = false;
  /// True when the queried cell provably holds no rows (a filter value
  /// that never occurs); the returned sample is empty.
  bool empty_cell = false;
  /// Middleware lookup latency (the data-system time of Tabula).
  double data_system_millis = 0.0;
  /// Shards that could not be reached while gathering this answer
  /// (sharded engine only; always empty for single-instance answers and
  /// at K=1). When non-empty, the sample stands in the global sample
  /// for the missing slices, so the deterministic θ bound no longer
  /// holds — the dashboard should mark the tile provisional.
  std::vector<uint32_t> unavailable_shards;
  /// kUnavailable detail describing the first shard failure (OK when
  /// `unavailable_shards` is empty).
  Status shard_error = Status::OK();
  /// Cube-content generation this answer was computed at (the engine's
  /// generation() at lookup time). Dashboards use it to order
  /// progressively refined answers for the same tile.
  uint64_t generation = 0;
  /// True when appended rows are still being folded into the cube AND
  /// this cell's answer is scheduled to change (the cell is in the
  /// in-flight dirty set, or the pending rows have not been classified
  /// yet, so every cell is conservatively stale). A stale answer still
  /// satisfies θ against the rows the cube has folded in — it just
  /// predates the freshest appends.
  bool stale = false;
  /// True when a cold-tier cell's lazy promote failed (injected fault
  /// or torn spill record) and the answer fell back to the global
  /// sample — the deterministic θ bound no longer holds for this tile,
  /// exactly like a dead shard. Always false when the sample store is
  /// disabled.
  bool store_degraded = false;
};

/// Answer to a QueryRequest: the query result plus the id of the span
/// that timed it (0 when the request was not traced), so callers can
/// parent their own spans under it or pull the span tree out of the
/// tracer.
struct QueryResponse {
  TabulaQueryResult result;
  uint64_t span_id = 0;
};

/// \brief The Tabula middleware (the paper's primary contribution).
///
/// Sits between the SQL data system (`storage`/`exec`) and the
/// visualization dashboard (`viz`). Initialize() executes the paper's
/// CREATE TABLE ... SAMPLING(*, θ) ... GROUP BY CUBE ... HAVING loss(...)
/// > θ pipeline: global sample → dry run → real run → representative
/// sample selection. Query() then answers
/// SELECT sample FROM cube WHERE <equality predicates on cubed attrs>
/// with a readily materialized sample whose accuracy loss w.r.t. the true
/// query answer never exceeds θ (100% confidence).
///
/// Implements QueryEngine, the interface the serving layer routes
/// through, so a `Tabula` and a sharded `ShardedTabula` (src/shard/)
/// are interchangeable behind a QueryServer. Request handling, Refresh()
/// and the refresh bookkeeping come from CubeEngine; this class supplies
/// the cube-cell and grid lookups.
class Tabula : public CubeEngine {
 public:
  /// Builds the partially materialized sampling cube over `table`.
  /// `table` must outlive the returned instance.
  static Result<std::unique_ptr<Tabula>> Initialize(const Table& table,
                                                    TabulaOptions options);

  // Query() (CubeEngine) answers a dashboard query — the canonical
  // entry point. Every `request.where` term must be an equality
  // predicate on a cubed attribute (the paper's WHERE-clause contract);
  // attributes not mentioned roll up to '*'. `request.deadline_ms` and
  // `request.consistency` are serving-layer knobs and are ignored
  // here; `request.trace`/`request.parent_span` drive the "tabula.query"
  // span emitted into the attached tracer.
  //
  // Thread-safety contract (const ⇒ safe for concurrent readers):
  // Query() reads only state that is immutable after
  // Initialize()/Load() — the key encoder/packer, cube table, sample
  // table, and global-sample row list — through genuinely const paths
  // with no hidden caches (with the store enabled, promotes mutate
  // under store_mu_), so any number of threads may call it
  // concurrently. The mutating entry points (Refresh(), and replacing
  // the instance via Load()) are NOT safe against in-flight Query()
  // calls; callers must serialize them externally — QueryServer in
  // src/serve/ does so with a shared/exclusive lock.

  const TabulaInitStats& init_stats() const { return stats_; }
  /// The spans of the last Initialize() (or full rebuild), root first:
  /// tabula.init → {global_sample, dry_run, real_run, selection}.
  /// init_stats() stage timings are these spans' durations.
  const std::vector<SpanRecord>& init_trace() const { return init_trace_; }
  const TabulaOptions& options() const { return options_; }
  const CubeTable& cube_table() const { return cube_; }
  const SampleTable& sample_table() const { return samples_; }
  /// The tiered sample store (enabled() is false when budget_bytes==0).
  const SampleStore& sample_store() const { return store_; }

  /// Maintenance sweep of the tiered store: upgrades single-reference
  /// resident cells whose hit count crossed `store.hot_promote_hits` to
  /// kHot (a fresh draw at θ × hot_theta_factor), then re-enforces the
  /// byte budget. Follows the same external-serialization contract as
  /// Refresh(). No-op when the store is disabled.
  Status MaintainStoreTiers();
  /// The spatial grid (present() is false when disabled).
  const SpatialGrid& spatial_grid() const { return grid_; }

  using CubeEngine::BytesPerTuple;

  /// \brief Persists the initialized sampling cube (global sample rows,
  /// cube table, sample table) to a binary file so subsequent sessions
  /// skip initialization entirely — the middleware restarts in
  /// milliseconds. Samples reference base-table row ids, so a saved cube
  /// is only valid for the exact table it was built on; Load verifies a
  /// fingerprint (cardinality + content probes) and the loss/threshold
  /// configuration before accepting the file.
  Status Save(const std::string& path) const override;

  /// Restores a cube saved with Save(). `options` must name the same
  /// loss function, threshold, and cubed attributes used at build time.
  /// By default the file must cover exactly `table.num_rows()` rows
  /// (a cube saved before the table grew is rejected as stale). With
  /// `resume_partial = true` a file saved at fewer rows is accepted as
  /// long as it matches the table prefix it was built on — the
  /// crash-recovery path for streaming ingestion, where the journal
  /// replays rows the cube has not folded yet and a Refresh() (or the
  /// ingest cycle) catches the cube up afterwards.
  static Result<std::unique_ptr<Tabula>> Load(const Table& table,
                                              TabulaOptions options,
                                              const std::string& path,
                                              bool resume_partial = false);

  // RefreshStats is inherited from QueryEngine; `Tabula::RefreshStats`
  // keeps naming it for existing callers.

  /// \brief Streaming-maintenance phases (see QueryEngine): incremental
  /// maintenance after the base table grew (an extension beyond the
  /// paper, which builds the cube once). Refresh() (CubeEngine) is
  /// exactly Plan → Begin → Execute → Commit run back-to-back.
  ///
  /// Call after appending rows to the base table. Re-derives every cube
  /// cell's loss state from the maintained finest-cuboid states (no
  /// 2^n GroupBys), then restores the deterministic guarantee:
  /// newly-iceberg cells get fresh local samples, cells whose raw data
  /// changed re-verify their representative sample (re-sampling on
  /// violation), and cells that dropped below θ fall back to the global
  /// sample. If an appended row introduces a previously unseen cubed
  /// attribute value, the key layout changes and a full
  /// re-initialization runs instead (reported via
  /// RefreshStats::full_rebuild). Representative-sample sharing is not
  /// re-optimized here — memory may drift above optimal until the next
  /// full initialization.
  ///
  /// The split lets the ingestion layer run the fallible/slow phases
  /// under a shared lock so queries keep serving. Plan/Execute mutate
  /// only plan-staged state plus maintenance-only members no Query()
  /// path reads (finest_states_, maintenance_bound_); Begin/Commit
  /// mutate query-visible state and need the exclusive section. At most
  /// one plan may be in flight at a time.
  Result<std::unique_ptr<IngestPlan>> PlanIngest() override;
  Status ExecuteIngest(IngestPlan* plan) override;
  Status CommitIngest(std::unique_ptr<IngestPlan> plan,
                      RefreshStats* stats = nullptr) override;

 private:
  Tracer* tracer() const override { return options_.tracer; }
  /// One cube cell: its (store-served) local sample when iceberg, else
  /// the global sample the dry run verified within θ.
  void ServeCell(uint64_t key, uint64_t query_span,
                 TabulaQueryResult* result) const override;
  const SpatialGrid& range_grid() const override { return grid_; }
  /// Same sampler seeding as the real run, so grid sampling is
  /// deterministic per options.
  SpatialGrid::Context SpatialContext() const override;
  Result<SpatialGrid::RangeAnswer> QueryGrid(
      const SpatialGrid::Context& ctx, const SpatialGrid::ResolvedBBox& box,
      TabulaQueryResult*) const override {
    return grid_.RangeQuery(ctx, box);
  }
  Result<std::vector<RowId>> GatherGridRows(
      const SpatialGrid::Context& ctx, const SpatialGrid::ResolvedBBox& box,
      TabulaQueryResult*) const override {
    return grid_.GatherRangeRows(ctx, box);
  }
  /// Spill read + lazy re-verify when a record exists, deterministic
  /// re-sample otherwise (seeded like the build, so promote → demote →
  /// promote reproduces the original bytes); kHot past the hit
  /// threshold.
  Status RestoreColdLocked(uint64_t key, uint32_t id,
                           std::vector<RowId>* sample,
                           SampleTier* tier) const override;

  /// ShardedTabula builds, persists and serves its shards as partitions
  /// of this class (BuildPartition and the members below); it adds no
  /// public surface.
  friend class ShardedTabula;

  Tabula() = default;

  /// The build options every engine requires (loss set, attributes,
  /// θ > 0, loss inputs present in `table`).
  static Status ValidateOptions(const Table& table,
                                const TabulaOptions& options);

  /// \brief The one cube build (Section III): dry run → real run →
  /// selection → spatial grid, classified against `global_sample_rows`
  /// under `encoder`. `rows` is the partition to cube (ascending);
  /// nullopt cubes every table row. Initialize() is this run over all
  /// rows with a freshly drawn global sample; ShardedTabula runs it once
  /// per shard. The engine keeps its dry run's finest-cuboid states (a
  /// partition also its present-cell set) as its maintenance state; a
  /// partition's tiers are assigned by the caller. Stage spans parent
  /// under `parent_span` in `tracer` (which must be recording).
  static Result<std::unique_ptr<Tabula>> BuildPartition(
      const Table& table, TabulaOptions options, KeyEncoder encoder,
      std::vector<RowId> global_sample_rows,
      std::optional<std::vector<RowId>> rows, Tracer* tracer,
      uint64_t parent_span);

  /// An unbuilt instance with its key layout and global sample set
  /// (the shared prologue of BuildPartition and the shard-manifest
  /// load).
  static Result<std::unique_ptr<Tabula>> NewPartition(
      const Table& table, TabulaOptions options, KeyEncoder encoder,
      std::vector<RowId> global_sample_rows,
      std::optional<std::vector<RowId>> rows);

  /// The rows this instance cubes: the partition's list, or every row.
  DatasetView PartitionView() const;

  /// Rolls finest-cuboid states up the whole lattice: one state map per
  /// cuboid (index = CuboidMask). `dirty` (optional, one key set per
  /// cuboid, finest filled) is rolled along the same edges.
  static std::vector<FlatHashMap<LossState>> RollUpLattice(
      const KeyPacker& packer, const Lattice& lattice,
      FlatHashMap<LossState> finest,
      std::vector<FlatHashSet>* dirty = nullptr);

  /// Re-makes the key encoder over the grown table into `fresh`; true
  /// when an unseen attribute value shifted the packed-key layout (every
  /// stored key is then stale and the cube must be rebuilt).
  static Result<bool> RemakeEncoder(const Table& table,
                                    const TabulaOptions& options,
                                    const KeyEncoder& current,
                                    KeyEncoder* fresh);

  /// The global sample over rows [0, n1): Serfling-sized, consistent
  /// bottom-k under the build seed. `prior` — the sample over [0, n0) —
  /// makes an ingest cycle's redraw O(k + batch) yet byte-for-byte the
  /// from-scratch draw; a fresh draw passes an empty prior and n0 = 0.
  static std::vector<RowId> DrawGlobalSample(const Table& table,
                                             const TabulaOptions& options,
                                             const std::vector<RowId>& prior,
                                             size_t n0, size_t n1);

  /// The finest states (and a partition's present-cell set) over the
  /// rows this engine has folded: its partition, or rows
  /// [0, refreshed_rows_). A build already holds them from its dry run;
  /// a loaded engine, which persists neither, re-derives them here once
  /// with a dry run.
  Status EnsureFinestStates();

  /// Builds or extends the finest-row index: a partition's fixed row
  /// list once, a whole-table engine's rows up to `n` (encoded under
  /// `encoder`, which must cover them).
  void ExtendFinestRowIndex(const KeyEncoder& encoder, size_t n);

  /// Rows of this partition in each listed cell (cell key → cuboid),
  /// appended ascending to `out[key]`: one pass over the partition's
  /// rows per distinct cuboid.
  void CollectCellRows(const FlatHashMap<CuboidMask>& cells,
                       FlatHashMap<std::vector<RowId>>* out) const;

  /// Adopts a decoded spatial grid when it matches the configured
  /// geometry, else rebuilds it deterministically over `rows` (nullptr =
  /// every table row).
  Status AdoptOrBuildGrid(std::optional<SpatialGrid> saved,
                          const std::vector<RowId>* rows);

  /// Configures the store and adopts persisted tier records (Load path;
  /// AssignInitialTiers then keeps them).
  Status AdoptTierRecords(const std::vector<SampleStore::TierRecord>& recs);

  /// The bound loss (options_.effective_loss(), cached at Initialize).
  const LossFunction* loss_fn() const { return options_.effective_loss(); }

  // --- Tiered sample store (src/core/store_tier.cc) -----------------
  /// Whether the tiered store is active for this instance.
  bool store_enabled() const { return options_.store.budget_bytes > 0; }
  /// Configures the store, registers every sample at kWarm with its
  /// cube refcount, builds the finest-row index (lazy promotes need
  /// it), and enforces the budget. Called at the end of Initialize()
  /// and (with adopted tier records already in place) by Load().
  Status AssignInitialTiers();
  /// Gathers a cell's raw rows (ascending, capped at refreshed_rows_)
  /// from the finest-row index by rolling each finest key up to the
  /// cell's cuboid — the lazy-promote analogue of PlanIngest's gather.
  Status GatherCellRows(const IcebergCell& cell,
                        std::vector<RowId>* rows) const;

  TabulaOptions options_;
  std::vector<SpanRecord> init_trace_;
  /// Mutable: with the store enabled, const Query() promotes cold cells
  /// in place under store_mu_'s exclusive section. With the store
  /// disabled both are immutable after Initialize()/Load(), preserving
  /// the pre-tiering const contract.
  mutable CubeTable cube_;
  mutable SampleTable samples_;
  /// Tier/residency bookkeeping (inert when store_enabled() is false),
  /// guarded with cube_/samples_ by store_mu_.
  mutable SampleStore store_;
  /// Hierarchical spatial grid (absent unless options_.spatial enables
  /// it). Immutable between mutating entry points, like the cube.
  SpatialGrid grid_;
  TabulaInitStats stats_;

  /// Ascending row list of a ShardedTabula partition; nullopt for an
  /// engine over the whole table.
  std::optional<std::vector<RowId>> partition_rows_;
  /// Every cell key (all lattice levels) with at least one row in this
  /// partition; lets the sharded merge tell "slice empty" from "slice
  /// covered by the global sample". Partitions only.
  FlatHashSet present_cells_;

  /// Incremental-maintenance state (see Refresh()).
  std::unique_ptr<BoundLoss> maintenance_bound_;
  /// Loss state of every finest cell over the folded rows. A build keeps
  /// its dry run's; a loaded engine re-derives them once
  /// (EnsureFinestStates) on its first ingest cycle. Each commit adopts
  /// the cycle's staged states.
  FlatHashMap<LossState> finest_states_;
  /// Row ids of every finest cell over view positions
  /// [0, finest_rows_indexed_), each list ascending. Lets ingest cycles
  /// and lazy promotes gather any cell's raw rows without a table scan —
  /// a coarser cell's rows are the union of its finest descendants'.
  /// Built on first need (the first PlanIngest, or the store being
  /// enabled) by ExtendFinestRowIndex and kept across cycles: a pure
  /// function of the (append-only) table prefix it covers, so it stays
  /// valid across abandoned cycles; the watermark makes re-indexing
  /// idempotent. Costs one RowId per indexed row.
  FlatHashMap<std::vector<RowId>> finest_rows_;
  size_t finest_rows_indexed_ = 0;
};

}  // namespace tabula

#endif  // TABULA_CORE_TABULA_H_
