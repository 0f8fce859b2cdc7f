#ifndef TABULA_CORE_TABULA_H_
#define TABULA_CORE_TABULA_H_

#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query_engine.h"
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
  /// Keep the per-finest-cell loss states after initialization so
  /// Refresh() (incremental maintenance after appends) avoids one
  /// full-table accumulation pass. Costs one extra scan at init plus
  /// O(#finest cells) memory.
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
/// are interchangeable behind a QueryServer.
class Tabula : public QueryEngine {
 public:
  /// Builds the partially materialized sampling cube over `table`.
  /// `table` must outlive the returned instance.
  static Result<std::unique_ptr<Tabula>> Initialize(const Table& table,
                                                    TabulaOptions options);

  /// Answers a dashboard query — the canonical entry point. Every
  /// `request.where` term must be an equality predicate on a cubed
  /// attribute (the paper's WHERE-clause contract); attributes not
  /// mentioned roll up to '*'. `request.deadline_ms` and
  /// `request.consistency` are serving-layer knobs and are ignored
  /// here; `request.trace`/`request.parent_span` drive the "tabula.query"
  /// span emitted into the attached tracer.
  ///
  /// Thread-safety contract (const ⇒ safe for concurrent readers):
  /// Query() reads only state that is immutable after
  /// Initialize()/Load() — the key encoder/packer, cube table, sample
  /// table, and global-sample row list — through genuinely const paths
  /// with no hidden caches, so any number of threads may call it
  /// concurrently (the Tracer is internally synchronized). The mutating
  /// entry points (Refresh(), and replacing the instance via Load())
  /// are NOT safe against in-flight Query() calls; callers must
  /// serialize them externally — QueryServer in src/serve/ does so with
  /// a shared/exclusive lock.
  Result<QueryResponse> Query(const QueryRequest& request) const override;

  const TabulaInitStats& init_stats() const { return stats_; }
  /// The spans of the last Initialize() (or full rebuild), root first:
  /// tabula.init → {global_sample, dry_run, real_run, selection}.
  /// init_stats() stage timings are these spans' durations.
  const std::vector<SpanRecord>& init_trace() const { return init_trace_; }
  const TabulaOptions& options() const { return options_; }
  const Table& base_table() const override { return *table_; }
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
  const DatasetView& global_sample() const override { return global_sample_; }
  /// The spatial grid (present() is false when disabled).
  const SpatialGrid& spatial_grid() const { return grid_; }

  /// Average bytes per materialized tuple of the base schema (used to
  /// cost sample memory like the paper's materialized tuples).
  uint64_t BytesPerTuple() const;

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

  /// \brief Incremental maintenance after the base table grew (an
  /// extension beyond the paper, which builds the cube once).
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
  Status Refresh(RefreshStats* stats = nullptr) override;

  /// \brief Streaming-maintenance phases (see QueryEngine). Refresh()
  /// is exactly Plan → Begin → Execute → Commit run back-to-back; the
  /// split lets the ingestion layer run the fallible/slow phases under
  /// a shared lock so queries keep serving. Plan/Execute mutate only
  /// plan-staged state plus maintenance-only members no Query() path
  /// reads (finest_states_, maintenance_bound_); Begin/Commit mutate
  /// query-visible state and need the exclusive section. At most one
  /// plan may be in flight at a time.
  Result<std::unique_ptr<IngestPlan>> PlanIngest() override;
  void BeginIngest(IngestPlan* plan) override;
  Status ExecuteIngest(IngestPlan* plan) override;
  Status CommitIngest(std::unique_ptr<IngestPlan> plan,
                      RefreshStats* stats = nullptr) override;
  size_t PendingIngestRows() const override {
    return table_->num_rows() - refreshed_rows_;
  }

  /// Monotone cube-content version, bumped by every successful
  /// Refresh() that saw appended rows (full rebuilds included). Caches
  /// layered above the middleware key their coherence off this counter.
  uint64_t generation() const override { return generation_; }

  /// Registers `listener` to run after every successful Refresh() (in
  /// the refreshing thread, once the cube has mutated) — the
  /// invalidation hook serve/ResultCache fences itself with. Returns a
  /// handle for RemoveRefreshListener(). Listener registration follows
  /// the same external-serialization contract as Refresh() itself.
  uint64_t AddRefreshListener(std::function<void()> listener) override;
  void RemoveRefreshListener(uint64_t id) override;

 private:
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
  /// selection → spatial grid → maintenance state, classified against
  /// `global_sample_rows` under `encoder`. `rows` is the partition to
  /// cube (ascending); nullopt cubes every table row. Initialize() is
  /// this run over all rows with a freshly drawn global sample;
  /// ShardedTabula runs it once per shard. A partition keeps its
  /// finest-cuboid states and present-cell set straight from its dry
  /// run, and its tiers are assigned by the caller. Stage spans parent
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

  /// Accumulates the per-finest-cell loss states over rows [0, n) for
  /// incremental maintenance.
  Status BuildMaintenanceState();

  /// Refresh() of both engines: Plan → Begin → Execute → Commit run
  /// back-to-back under one `tabula.refresh` span. `on_plan` (may be
  /// empty) sees each plan first — the sharded engine parents its shard
  /// builds under the span there.
  static Status RunRefresh(
      QueryEngine* engine, Tracer* tracer, RefreshStats* stats,
      const std::function<void(IngestPlan*, Span*)>& on_plan);

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

  /// Re-derives a partition's finest states and present-cell set with a
  /// dry run over its rows (a loaded partition persists neither).
  Status FoldPartitionStates();

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

  /// Loss machinery bundle for SpatialGrid calls (same sampler seeding
  /// as the real run, so grid sampling is deterministic per options).
  SpatialGrid::Context SpatialContext() const;

  /// Answers a request with a non-empty `range` (bbox). `result` fields
  /// other than generation are filled here.
  Status QueryRange(const QueryRequest& request, bool has_pending,
                    TabulaQueryResult* result) const;
  /// The answer to a hybrid bbox + equality request from its matching
  /// rows (ascending): empty, the rows themselves when at most
  /// `resample_cap`, else SAMPLING(matching, θ) at query time — all
  /// within θ and deterministic. Shared by both engines.
  static Status AnswerHybridRange(const SpatialGrid::Context& ctx,
                                  size_t resample_cap,
                                  std::vector<RowId> matching,
                                  TabulaQueryResult* result);

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
  /// Restores a cold cell's sample: spill read + lazy re-verify when a
  /// record exists, deterministic re-sample otherwise (seeded like the
  /// build, so promote→demote→promote reproduces the original bytes).
  /// Upgrades straight to kHot past the hit threshold. When the sample
  /// alone cannot fit the budget it is handed back via `transient`
  /// (served θ-bounded but not retained). Caller holds store_mu_
  /// exclusively; fires the `store.promote` seam.
  Status PromoteLocked(IcebergCell* cell,
                       std::vector<RowId>* transient) const;
  /// Demotes CLOCK victims of `store` — whose bytes live in `samples` —
  /// until resident bytes + `incoming` fit its budget; `protect` is never
  /// victimized. Infallible (spill-write failures degrade to drop mode).
  /// Caller holds the store's lock exclusively. The sharded engine
  /// enforces its override store with it too.
  static void EnforceStoreBudgetLocked(SampleStore* store,
                                       SampleTable* samples,
                                       uint64_t incoming = 0,
                                       uint32_t protect = kInvalidSampleId);
  /// Serve path for an iceberg-cell hit with the store enabled: hit
  /// accounting under the shared lock, lazy promote-on-miss under the
  /// exclusive lock (with a `store.promote` span), degrade-to-global on
  /// promote failure.
  void ServeStoredSample(uint64_t key, uint64_t parent_span,
                         TabulaQueryResult* result) const;

  const Table* table_ = nullptr;
  TabulaOptions options_;
  std::vector<SpanRecord> init_trace_;
  KeyEncoder encoder_;
  KeyPacker packer_;
  std::vector<RowId> global_sample_rows_;
  DatasetView global_sample_;
  /// Mutable: with the store enabled, const Query() promotes cold cells
  /// in place under store_mu_'s exclusive section. With the store
  /// disabled both are immutable after Initialize()/Load(), preserving
  /// the pre-tiering const contract.
  mutable CubeTable cube_;
  mutable SampleTable samples_;
  /// Tier/residency bookkeeping (inert when store_enabled() is false).
  mutable SampleStore store_;
  /// Guards cube_/samples_/store_ once the store is enabled: Query()
  /// takes it shared for lookups + hit accounting and exclusive for the
  /// lazy promote; the ingest phases that touch samples take it
  /// exclusive. Heap-allocated so Tabula stays move-assignable (the
  /// full-rebuild commit moves a fresh instance over *this).
  mutable std::unique_ptr<std::shared_mutex> store_mu_ =
      std::make_unique<std::shared_mutex>();
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
  FlatHashMap<LossState> finest_states_;
  size_t refreshed_rows_ = 0;
  /// Row ids of every finest cell over rows [0, finest_rows_indexed_),
  /// each list ascending. Lets ingest cycles gather any cell's raw rows
  /// without a table scan — a coarser cell's rows are the union of its
  /// finest descendants'. Maintenance-only and extended in place during
  /// PlanIngest: a pure function of the (append-only) table prefix it
  /// covers, so it stays valid across abandoned cycles; the watermark
  /// makes re-indexing idempotent. Costs one RowId per indexed row —
  /// the same trade keep_maintenance_state already opts into.
  FlatHashMap<std::vector<RowId>> finest_rows_;
  size_t finest_rows_indexed_ = 0;
  /// Cells the in-flight ingest cycle will change (packed keys across
  /// all cuboids), published by BeginIngest and cleared by CommitIngest.
  /// Query() reads it for precise staleness tagging; empty while rows
  /// are pending means "not classified yet" → every cell is
  /// conservatively stale.
  FlatHashSet pending_dirty_;

  /// Fires every registered refresh listener (after a cube mutation).
  void NotifyRefreshListeners();

  uint64_t generation_ = 0;
  uint64_t next_listener_id_ = 1;
  std::vector<std::pair<uint64_t, std::function<void()>>> refresh_listeners_;
};

}  // namespace tabula

#endif  // TABULA_CORE_TABULA_H_
