#ifndef TABULA_CORE_QUERY_ENGINE_H_
#define TABULA_CORE_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query_request.h"
#include "storage/table.h"

namespace tabula {

struct QueryResponse;

/// \brief Common surface of a sampling-cube query engine.
///
/// Both the single-instance middleware (`Tabula`, src/core/) and the
/// horizontally sharded engine (`ShardedTabula`, src/shard/) implement
/// this interface, so the serving layer (`QueryServer`) routes to either
/// without knowing which one it fronts. The contracts mirror Tabula's:
///
///  - Query() is const ⇒ safe for any number of concurrent readers.
///  - Refresh(), Save() and listener registration follow the
///    external-serialization contract (QueryServer wraps them in an
///    exclusive lock); a failed Refresh leaves the engine answering
///    queries exactly as before, generation unchanged.
///  - generation() is a monotone cube-content version; caches layered
///    above key their coherence off it via AddRefreshListener().
class QueryEngine {
 public:
  /// Diagnostics from one Refresh() pass. Defined here (not on Tabula)
  /// so every engine reports maintenance work in the same shape;
  /// `Tabula::RefreshStats` keeps naming it through inheritance.
  struct RefreshStats {
    size_t new_rows = 0;
    size_t new_iceberg_cells = 0;
    size_t dropped_iceberg_cells = 0;
    size_t rechecked_cells = 0;
    size_t resampled_cells = 0;
    bool full_rebuild = false;
    double millis = 0.0;
  };

  /// \brief Opaque staged state of one in-flight ingest cycle.
  ///
  /// Produced by PlanIngest() and threaded through the four-phase
  /// streaming-maintenance protocol below; the concrete layout is
  /// engine-private. `dirty_keys` is the only cross-engine field the
  /// ingestion layer reads: the packed cell keys whose answers the
  /// cycle is going to change (empty on a full rebuild, where every
  /// cell is considered dirty).
  struct IngestPlan {
    virtual ~IngestPlan() = default;
    /// True when there is nothing to do (no pending rows); Begin /
    /// Execute / Commit become no-ops.
    bool no_op = false;
    /// True when the appended rows changed the encoder layout (a new
    /// attribute value widened a code) and the cycle degenerates to a
    /// from-scratch rebuild.
    bool full_rebuild = false;
    /// Row count the cycle advances the cube to (num_rows at plan time).
    size_t target_rows = 0;
    /// Maintenance counters accumulated across the phases.
    RefreshStats stats;
    /// Packed keys of cells (across all cuboids) touched by the pending
    /// rows; used for precise per-cell staleness tagging.
    std::vector<uint64_t> dirty_keys;
  };

  virtual ~QueryEngine() = default;

  /// ---- Streaming ingestion protocol (src/ingest/) -------------------
  ///
  /// Refresh() = Plan → Begin → Execute → Commit run back-to-back under
  /// one exclusive section. The split exists so a continuously-ingesting
  /// deployment can keep serving queries during the expensive phases:
  ///
  ///   PlanIngest     shared lock   fallible, slow (classify pending rows)
  ///   BeginIngest    exclusive     infallible, quick (publish dirty set,
  ///                                fold appended rows into shard state)
  ///   ExecuteIngest  shared lock   fallible, slow (re-sample / re-merge)
  ///   CommitIngest   exclusive     quick (adopt staged state, ++generation)
  ///
  /// At most one cycle may be in flight per engine (the Ingestor
  /// serializes them); Query() stays safe concurrently with the
  /// shared-lock phases. A failure in Plan or Execute abandons the
  /// cycle with the generation — and every served answer — unchanged;
  /// re-planning from scratch converges once the cause clears.
  virtual Result<std::unique_ptr<IngestPlan>> PlanIngest() = 0;
  virtual void BeginIngest(IngestPlan* plan) = 0;
  virtual Status ExecuteIngest(IngestPlan* plan) = 0;
  virtual Status CommitIngest(std::unique_ptr<IngestPlan> plan,
                              RefreshStats* stats = nullptr) = 0;

  /// Appended base-table rows the cube has not folded in yet
  /// (num_rows − refreshed rows). Non-zero ⇒ answers may be stale.
  virtual size_t PendingIngestRows() const = 0;

  /// Answers a dashboard query (see Tabula::Query for the predicate
  /// contract). Const ⇒ safe for concurrent readers.
  virtual Result<QueryResponse> Query(const QueryRequest& request) const = 0;

  /// Incremental maintenance after base-table appends.
  virtual Status Refresh(RefreshStats* stats = nullptr) = 0;

  /// Persists the engine state; Load is engine-specific (a saved file
  /// names its own format via magic bytes).
  virtual Status Save(const std::string& path) const = 0;

  /// Monotone cube-content version (bumped by successful refreshes).
  virtual uint64_t generation() const = 0;

  /// Post-refresh invalidation hooks (see CubeEngine::AddRefreshListener).
  virtual uint64_t AddRefreshListener(std::function<void()> listener) = 0;
  virtual void RemoveRefreshListener(uint64_t id) = 0;

  /// The engine's global random sample — the degraded-answer fallback
  /// the serving layer snapshots for deadline misses.
  virtual const DatasetView& global_sample() const = 0;

  /// The base table the engine was built over.
  virtual const Table& base_table() const = 0;
};

}  // namespace tabula

#endif  // TABULA_CORE_QUERY_ENGINE_H_
