#ifndef TABULA_CORE_CUBE_ENGINE_H_
#define TABULA_CORE_CUBE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "core/query_engine.h"
#include "cube/cube_table.h"
#include "exec/group_by.h"
#include "exec/key_encoder.h"
#include "obs/trace.h"
#include "spatial/spatial_grid.h"
#include "store/sample_store.h"

namespace tabula {

struct TabulaQueryResult;

/// \brief The request handling and maintenance bookkeeping of both
/// sampling-cube engines: `Tabula` and `ShardedTabula` (src/shard/).
///
/// Query() is the one request path: the `tabula.query` span and timer,
/// the generation and staleness tags, WHERE validation, the
/// provably-empty answer, key packing and the bbox path. An engine
/// supplies only the lookups — ServeCell() for a packed cell key (one
/// cube cell, or the merged directory and the scatter-gather fan-out),
/// QueryGrid() and GatherGridRows() for a bbox (one grid, or every
/// shard's). Refresh() runs Plan → Begin →
/// Execute → Commit back-to-back, BeginIngest() publishes the dirty set
/// the staleness tag probes, and PublishCommit() ends every commit. The
/// tiered-store serve path (ServeStoredSample) is shared too: a
/// partition's store and the sharded override store promote alike.
class CubeEngine : public QueryEngine {
 public:
  Result<QueryResponse> Query(const QueryRequest& request) const final;
  void BeginIngest(IngestPlan* plan) final;
  Status Refresh(RefreshStats* stats = nullptr) final;
  size_t PendingIngestRows() const final {
    return table_->num_rows() - refreshed_rows_;
  }
  /// Monotone cube-content version, bumped by every committed ingest
  /// cycle that saw appended rows (full rebuilds included). Caches
  /// layered above the engine key their coherence off this counter.
  uint64_t generation() const final { return generation_; }
  /// Registers `listener` to run after every committed cycle (in the
  /// committing thread, once the cube has mutated) — the invalidation
  /// hook serve/ResultCache fences itself with. Follows the same
  /// external-serialization contract as Refresh().
  uint64_t AddRefreshListener(std::function<void()> listener) final;
  void RemoveRefreshListener(uint64_t id) final;
  const DatasetView& global_sample() const final { return global_sample_; }
  const Table& base_table() const final { return *table_; }

 protected:
  /// Where query, refresh and store-promote spans go (may be null).
  virtual Tracer* tracer() const = 0;
  /// Answers the cell `key` of a valid, not provably empty equality
  /// request; `query_span` is the request's span id (0 = untraced).
  virtual void ServeCell(uint64_t key, uint64_t query_span,
                         TabulaQueryResult* result) const = 0;
  /// The grid whose geometry resolves bbox requests (present() is false
  /// when the engine has none).
  virtual const SpatialGrid& range_grid() const = 0;
  /// Loss machinery for grid calls: the build's sampler seeding, the
  /// global sample as the reference.
  virtual SpatialGrid::Context SpatialContext() const = 0;
  /// The θ-composed answer for `box` (pure bbox), and every row matching
  /// `box`, ascending (hybrid). A scatter-gather engine that cannot
  /// reach a slice lists it in `result->unavailable_shards` and returns
  /// what it gathered; the answer then adds the global sample.
  virtual Result<SpatialGrid::RangeAnswer> QueryGrid(
      const SpatialGrid::Context& ctx, const SpatialGrid::ResolvedBBox& box,
      TabulaQueryResult* result) const = 0;
  virtual Result<std::vector<RowId>> GatherGridRows(
      const SpatialGrid::Context& ctx, const SpatialGrid::ResolvedBBox& box,
      TabulaQueryResult* result) const = 0;
  /// Restores the cold sample of cell `key` in slot `id` (store_mu_ held
  /// exclusively): its rows and the tier they re-enter at.
  virtual Status RestoreColdLocked(uint64_t key, uint32_t id,
                                   std::vector<RowId>* sample,
                                   SampleTier* tier) const = 0;
  /// Engine attributes of a finished `tabula.query` span.
  virtual void AnnotateQuerySpan(const TabulaQueryResult&, Span*) const {}
  /// Sees each Refresh() plan under its `tabula.refresh` span.
  virtual void OnRefreshPlan(IngestPlan*, Span*) {}

  /// The end of every commit: clears the dirty set, bumps the
  /// generation and fires the refresh listeners.
  void PublishCommit();

  /// Serves `rows` plus the global sample — the stand-in for slices the
  /// rows do not cover.
  void ServeWithGlobal(std::vector<RowId> rows,
                       TabulaQueryResult* result) const;

  /// Average bytes per materialized tuple of the base schema (used to
  /// cost sample memory like the paper's materialized tuples).
  uint64_t BytesPerTuple() const;

  /// Demotes CLOCK victims of `store` — whose bytes live in `samples` —
  /// until resident bytes + `incoming` fit its budget; `protect` is never
  /// victimized. Infallible (spill-write failures degrade to drop mode).
  /// Caller holds the store's lock exclusively.
  static void EnforceStoreBudgetLocked(SampleStore* store,
                                       SampleTable* samples,
                                       uint64_t incoming = 0,
                                       uint32_t protect = kInvalidSampleId);

  /// Serves cell `key` from a tiered store: hit accounting under
  /// store_mu_ shared; a cold slot promotes under store_mu_ exclusive
  /// inside a `store.promote` span (RestoreColdLocked, then the budget
  /// enforced and the sample retained, or served transiently when it
  /// alone cannot fit); a failed promote degrades to the global sample,
  /// never the evicted bytes. `*slot` is the cell's sample id, read
  /// under the lock — promoting a shared slot re-points it.
  void ServeStoredSample(SampleStore* store, SampleTable* samples,
                         uint64_t key, uint32_t* slot, uint64_t query_span,
                         TabulaQueryResult* result) const;

  const Table* table_ = nullptr;
  KeyEncoder encoder_;
  KeyPacker packer_;
  std::vector<RowId> global_sample_rows_;
  DatasetView global_sample_;
  /// Base-table rows the cube has folded in.
  size_t refreshed_rows_ = 0;
  /// Cells the in-flight ingest cycle will change (packed keys across
  /// all cuboids), published by BeginIngest and cleared by
  /// PublishCommit. Query() reads it for precise staleness tagging;
  /// empty while rows are pending means "not classified yet" → every
  /// cell is conservatively stale.
  FlatHashSet pending_dirty_;
  uint64_t generation_ = 0;
  uint64_t next_listener_id_ = 1;
  std::vector<std::pair<uint64_t, std::function<void()>>> refresh_listeners_;
  /// Guards the engine's tiered store once it is enabled: Query() takes
  /// it shared for lookups + hit accounting and exclusive for a lazy
  /// promote; ingest phases that touch samples take it exclusive.
  /// Heap-allocated so engines stay move-assignable.
  mutable std::unique_ptr<std::shared_mutex> store_mu_ =
      std::make_unique<std::shared_mutex>();

 private:
  /// The bbox path: grid present, Resolve, disjoint terms, stale tag,
  /// then the composed answer (pure) or the filtered rows answered
  /// exactly or re-sampled at query time (hybrid).
  Status QueryRange(const QueryRequest& request, bool has_pending,
                    TabulaQueryResult* result) const;
  /// The promote of ServeStoredSample: the `store.promote` seam,
  /// RestoreColdLocked, then retain-or-transient under the budget.
  Status PromoteLocked(SampleStore* store, SampleTable* samples,
                       uint64_t key, uint32_t* slot,
                       std::vector<RowId>* transient) const;
};

}  // namespace tabula

#endif  // TABULA_CORE_CUBE_ENGINE_H_
