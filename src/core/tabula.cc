#include "core/tabula.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/where_clause.h"
#include "cube/lattice.h"

namespace tabula {

Status Tabula::ValidateOptions(const Table& table,
                               const TabulaOptions& options) {
  const LossFunction* loss = options.effective_loss();
  if (loss == nullptr) {
    return Status::InvalidArgument("TabulaOptions.loss must be set");
  }
  if (options.cubed_attributes.empty()) {
    return Status::InvalidArgument("at least one cubed attribute required");
  }
  if (options.threshold <= 0.0) {
    return Status::InvalidArgument("accuracy loss threshold must be > 0");
  }
  for (const auto& col : loss->InputColumns()) {
    if (!table.schema().HasField(col)) {
      return Status::NotFound("loss function input column '" + col +
                              "' not in table");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Tabula>> Tabula::Initialize(const Table& table,
                                                   TabulaOptions options) {
  TABULA_RETURN_NOT_OK(ValidateOptions(table, options));

  // Stage timings below come from spans, never from ad-hoc stopwatches.
  // When the caller's tracer cannot record (absent or kDisabled), a
  // local always-on tracer stands in, so init_stats() and init_trace()
  // are populated either way. Init runs once; the span cost is noise.
  Tracer local_tracer(TracerOptions{TraceMode::kAll, /*capacity=*/64});
  Tracer* tracer = options.tracer != nullptr && options.tracer->enabled()
                       ? options.tracer
                       : &local_tracer;
  Span init_span = tracer->StartSpan("tabula.init", 0, /*opt_in=*/true);
  init_span.SetAttribute("table_rows", table.num_rows());
  init_span.SetAttribute("cubed_attributes",
                         options.cubed_attributes.size());
  init_span.SetAttribute("threshold", options.threshold);

  TABULA_ASSIGN_OR_RETURN(KeyEncoder encoder,
                          KeyEncoder::Make(table, options.cubed_attributes));

  // Stage 0: global random sample, sized by Serfling's inequality.
  Span global_span =
      tracer->StartSpan("tabula.init.global_sample", init_span.id());
  std::vector<RowId> global_rows =
      DrawGlobalSample(table, options, {}, 0, table.num_rows());
  global_span.SetAttribute("tuples", global_rows.size());
  const double global_millis = global_span.End();

  // Stages 1–4 and the maintenance state: the partition build over
  // every row.
  TABULA_ASSIGN_OR_RETURN(
      std::unique_ptr<Tabula> tabula,
      BuildPartition(table, std::move(options), std::move(encoder),
                     std::move(global_rows), std::nullopt, tracer,
                     init_span.id()));
  tabula->stats_.global_sample_millis = global_millis;

  // Tiered sample store: initial tier assignment (every sample starts
  // kWarm) and first budget enforcement. Inert when budget_bytes == 0.
  TABULA_RETURN_NOT_OK(tabula->AssignInitialTiers());

  uint64_t tuple_bytes = tabula->BytesPerTuple();
  tabula->stats_.global_sample_bytes =
      tabula->global_sample_.size() * tuple_bytes;
  tabula->stats_.cube_table_bytes = tabula->cube_.MemoryBytes();
  tabula->stats_.sample_table_bytes =
      tabula->samples_.MemoryBytes(tuple_bytes);
  init_span.SetAttribute("iceberg_cells", tabula->stats_.iceberg_cells);
  uint64_t root_id = init_span.id();
  tabula->stats_.total_millis = init_span.End();
  tabula->init_trace_ = SpanSubtree(tracer->Snapshot(), root_id);
  return tabula;
}

Result<std::unique_ptr<Tabula>> Tabula::NewPartition(
    const Table& table, TabulaOptions options, KeyEncoder encoder,
    std::vector<RowId> global_sample_rows,
    std::optional<std::vector<RowId>> rows) {
  auto tabula = std::unique_ptr<Tabula>(new Tabula());
  tabula->table_ = &table;
  tabula->options_ = std::move(options);
  tabula->encoder_ = std::move(encoder);
  std::vector<size_t> all_cols(tabula->options_.cubed_attributes.size());
  for (size_t i = 0; i < all_cols.size(); ++i) all_cols[i] = i;
  TABULA_ASSIGN_OR_RETURN(tabula->packer_,
                          KeyPacker::Make(tabula->encoder_, all_cols));
  tabula->global_sample_rows_ = std::move(global_sample_rows);
  tabula->global_sample_ = DatasetView(&table, tabula->global_sample_rows_);
  tabula->stats_.global_sample_tuples = tabula->global_sample_.size();
  tabula->partition_rows_ = std::move(rows);
  return tabula;
}

DatasetView Tabula::PartitionView() const {
  return partition_rows_.has_value() ? DatasetView(table_, *partition_rows_)
                                     : DatasetView(table_);
}

Result<std::unique_ptr<Tabula>> Tabula::BuildPartition(
    const Table& table, TabulaOptions options, KeyEncoder encoder,
    std::vector<RowId> global_sample_rows,
    std::optional<std::vector<RowId>> rows, Tracer* tracer,
    uint64_t parent_span) {
  TABULA_ASSIGN_OR_RETURN(
      std::unique_ptr<Tabula> tabula,
      NewPartition(table, std::move(options), std::move(encoder),
                   std::move(global_sample_rows), std::move(rows)));
  const TabulaOptions& opts = tabula->options_;
  const LossFunction* loss = opts.effective_loss();
  const bool partition = tabula->partition_rows_.has_value();
  const DatasetView view = tabula->PartitionView();
  Lattice lattice(opts.cubed_attributes.size());

  // Stage 1: dry run — iceberg cell lookup via algebraic roll-up. A
  // partition keeps the fold's finest states and the lattice's present
  // keys, the coordinator's merge inputs, so its rows fold once.
  Span dry_span = tracer->StartSpan("tabula.init.dry_run", parent_span);
  TABULA_ASSIGN_OR_RETURN(
      DryRunResult dry,
      RunDryRun(view, tabula->encoder_, tabula->packer_, lattice, *loss,
                tabula->global_sample_, opts.threshold,
                /*keep_lattice=*/partition));
  tabula->stats_.total_cells = dry.total_cells;
  tabula->stats_.iceberg_cells = dry.total_iceberg_cells;
  tabula->stats_.iceberg_cuboids = dry.iceberg_cuboids;
  dry_span.SetAttribute("rows_scanned", view.size());
  dry_span.SetAttribute("total_cells", dry.total_cells);
  dry_span.SetAttribute("iceberg_cells", dry.total_iceberg_cells);
  dry_span.SetAttribute("iceberg_cuboids", dry.iceberg_cuboids);
  tabula->stats_.dry_run_millis = dry_span.End();

  // Stage 2: real run — local samples for iceberg cells only.
  Span real_span = tracer->StartSpan("tabula.init.real_run", parent_span);
  GreedySamplerOptions sampler_opts = opts.sampler;
  sampler_opts.seed = opts.seed;
  TABULA_ASSIGN_OR_RETURN(
      RealRunResult real,
      RunRealRun(view, tabula->encoder_, tabula->packer_, lattice, dry,
                 *loss, opts.threshold, sampler_opts, opts.path_policy));
  tabula->stats_.real_run_cuboids = std::move(real.per_cuboid);
  tabula->cube_ = std::move(real.cube);
  real_span.SetAttribute("iceberg_cells", tabula->cube_.size());
  real_span.SetAttribute("cuboids_visited",
                         tabula->stats_.real_run_cuboids.size());
  tabula->stats_.real_run_millis = real_span.End();

  // Stage 3: representative sample selection (or persist-all for
  // Tabula* and for partitions).
  Span sel_span = tracer->StartSpan("tabula.init.selection", parent_span);
  if (opts.enable_sample_selection) {
    TABULA_ASSIGN_OR_RETURN(
        SelectionResult sel,
        SelectRepresentativeSamples(table, *loss, opts.threshold,
                                    opts.selection, &tabula->cube_,
                                    &tabula->samples_));
    tabula->stats_.representative_samples = sel.representatives;
    tabula->stats_.cells_sharing_samples = sel.cells_sharing;
  } else {
    // A partition keeps its cells' raw rows for the sharded merge.
    TABULA_ASSIGN_OR_RETURN(
        SelectionResult sel,
        PersistAllSamples(&tabula->cube_, &tabula->samples_, partition));
    tabula->stats_.representative_samples = sel.representatives;
  }
  sel_span.SetAttribute("representatives",
                        tabula->stats_.representative_samples);
  sel_span.SetAttribute("cells_sharing",
                        tabula->stats_.cells_sharing_samples);
  tabula->stats_.selection_millis = sel_span.End();

  // Stage 4 (optional): the hierarchical spatial grid for bbox queries.
  if (opts.spatial.levels > 0) {
    Span spatial_span =
        tracer->StartSpan("tabula.init.spatial", parent_span);
    TABULA_ASSIGN_OR_RETURN(
        tabula->grid_,
        SpatialGrid::Build(tabula->SpatialContext(), opts.spatial,
                           partition ? &*tabula->partition_rows_ : nullptr));
    tabula->stats_.spatial_cells = tabula->grid_.TotalCells();
    tabula->stats_.spatial_sample_tuples = tabula->grid_.SampleTuples();
    spatial_span.SetAttribute("levels", opts.spatial.levels);
    spatial_span.SetAttribute("cells", tabula->stats_.spatial_cells);
    spatial_span.SetAttribute("sample_tuples",
                              tabula->stats_.spatial_sample_tuples);
    tabula->stats_.spatial_millis = spatial_span.End();
  }

  tabula->refreshed_rows_ = table.num_rows();
  if (partition) {
    tabula->finest_states_ = std::move(dry.finest_states);
    tabula->present_cells_ = std::move(dry.present_cells);
  } else if (opts.keep_maintenance_state) {
    TABULA_RETURN_NOT_OK(tabula->BuildMaintenanceState());
  }
  return tabula;
}

uint64_t Tabula::AddRefreshListener(std::function<void()> listener) {
  uint64_t id = next_listener_id_++;
  refresh_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Tabula::RemoveRefreshListener(uint64_t id) {
  for (auto it = refresh_listeners_.begin(); it != refresh_listeners_.end();
       ++it) {
    if (it->first == id) {
      refresh_listeners_.erase(it);
      return;
    }
  }
}

void Tabula::NotifyRefreshListeners() {
  for (auto& [id, listener] : refresh_listeners_) listener();
}

uint64_t Tabula::BytesPerTuple() const {
  if (table_ == nullptr || table_->num_rows() == 0) return sizeof(RowId);
  return std::max<uint64_t>(table_->MemoryBytes() / table_->num_rows(), 1);
}

Result<QueryResponse> Tabula::Query(const QueryRequest& request) const {
  // Tracing guard: when no tracer is attached (or it is disabled and
  // the request did not opt in) `span` is inert — no allocation, no
  // clock read beyond the Stopwatch the result always carried.
  Span span;
  if (options_.tracer != nullptr) {
    span = options_.tracer->StartSpan("tabula.query", request.parent_span,
                                      request.trace);
  }
  Stopwatch timer;
  QueryResponse response;
  response.span_id = span.id();
  TabulaQueryResult& result = response.result;
  const std::vector<PredicateTerm>& where = request.where;
  // Progressive-answer tagging: the generation this answer is computed
  // at, and whether appended-but-unfolded rows are scheduled to change
  // it. With a published dirty set the tag is per-cell precise;
  // before classification (dirty set empty) every answer is
  // conservatively stale while rows pend.
  result.generation = generation_;
  const bool has_pending = table_->num_rows() > refreshed_rows_;

  auto finish = [&]() {
    if (span.recording()) {
      span.SetAttribute("terms", where.size());
      span.SetAttribute("from_local_sample", result.from_local_sample);
      span.SetAttribute("empty_cell", result.empty_cell);
      span.SetAttribute("sample_rows", result.sample.size());
      // The span duration IS the reported latency, so trace and stats
      // cannot disagree.
      result.data_system_millis = span.End();
    } else {
      result.data_system_millis = timer.ElapsedMillis();
    }
  };

  // Bbox (pan/zoom) requests take the spatial path; everything below it
  // is the pre-spatial equality surface, untouched bit for bit.
  if (!request.range.empty()) {
    TABULA_RETURN_NOT_OK(QueryRange(request, has_pending, &result));
    finish();
    return response;
  }

  // Invalid-request returns below leave `span` to end at scope exit;
  // the recorded span then has no result attributes, which is the
  // trace-side marker for a rejected query.
  std::vector<uint32_t> codes;
  bool provably_empty = false;
  TABULA_RETURN_NOT_OK(
      ValidateEqualityTerms(encoder_, where, &codes, &provably_empty));
  if (provably_empty) {
    // The filter value never occurs in the data: the cell is provably
    // empty, so an empty sample is the exact answer (loss 0). Pending
    // rows may contain the value, so the emptiness claim itself is
    // stale while an ingest is in flight (coarse: the value has no
    // cell key to probe the dirty set with).
    result.empty_cell = true;
    result.stale = has_pending;
    result.sample = DatasetView(table_, {});
    finish();
    return response;
  }

  uint64_t key = packer_.PackCodes(codes);
  result.stale =
      has_pending && (pending_dirty_.empty() || pending_dirty_.Contains(key));
  const IcebergCell* cell = cube_.Find(key);
  if (cell != nullptr) {
    if (store_enabled()) {
      // Hit accounting + cold-tier lazy promote (store_tier.cc).
      ServeStoredSample(key, span.id(), &result);
    } else {
      result.from_local_sample = true;
      result.sample = DatasetView(table_, samples_.sample(cell->sample_id));
    }
  } else {
    // Non-iceberg cell: the dry run verified the global sample is within
    // θ of this cell's raw data.
    result.sample = DatasetView(table_, global_sample_rows_);
  }
  finish();
  return response;
}

SpatialGrid::Context Tabula::SpatialContext() const {
  SpatialGrid::Context ctx;
  ctx.table = table_;
  ctx.loss = loss_fn();
  ctx.threshold = options_.threshold;
  ctx.sampler = options_.sampler;
  ctx.sampler.seed = options_.seed;
  ctx.ref = global_sample_;
  return ctx;
}

Status Tabula::QueryRange(const QueryRequest& request, bool has_pending,
                          TabulaQueryResult* result) const {
  if (!grid_.present()) {
    return Status::InvalidArgument(
        "this engine has no spatial grid (enable TabulaOptions.spatial to "
        "serve bbox queries)");
  }
  TABULA_ASSIGN_OR_RETURN(SpatialGrid::ResolvedBBox box,
                          grid_.Resolve(request.range));
  TABULA_RETURN_NOT_OK(
      CheckRangeTermsDisjoint(grid_.options(), request.where));
  // Spatial cells live outside the cube's dirty-key space, so staleness
  // tagging is conservative: any pending rows mark the answer stale.
  result->stale = has_pending;
  SpatialGrid::Context ctx = SpatialContext();

  if (request.where.empty()) {
    TABULA_ASSIGN_OR_RETURN(SpatialGrid::RangeAnswer answer,
                            grid_.RangeQuery(ctx, box));
    if (answer.raw_count == 0) {
      result->empty_cell = true;
      result->sample = DatasetView(table_, {});
      return Status::OK();
    }
    result->from_local_sample = true;
    result->sample = DatasetView(table_, std::move(answer.sample));
    return Status::OK();
  }

  // Hybrid bbox + equality: validate the equality terms exactly like the
  // pure path (same errors), then filter the bbox rows and answer
  // exactly when small, else SAMPLING(matching, θ) at query time — both
  // within θ, both deterministic.
  std::vector<uint32_t> codes;
  bool provably_empty = false;
  TABULA_RETURN_NOT_OK(ValidateEqualityTerms(encoder_, request.where, &codes,
                                            &provably_empty));
  std::vector<RowId> matching;
  if (!provably_empty) {
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                            grid_.GatherRangeRows(ctx, box));
    TABULA_ASSIGN_OR_RETURN(BoundPredicate pred,
                            BoundPredicate::Bind(*table_, request.where));
    matching = pred.FilterRows(rows);
  }
  return AnswerHybridRange(ctx, grid_.options().resample_cap,
                           std::move(matching), result);
}

Status Tabula::AnswerHybridRange(const SpatialGrid::Context& ctx,
                                 size_t resample_cap,
                                 std::vector<RowId> matching,
                                 TabulaQueryResult* result) {
  if (matching.empty()) {
    result->empty_cell = true;
    result->sample = DatasetView(ctx.table, {});
    return Status::OK();
  }
  result->from_local_sample = true;
  if (resample_cap == 0 || matching.size() <= resample_cap) {
    result->sample = DatasetView(ctx.table, std::move(matching));
    return Status::OK();
  }
  GreedySampler sampler(ctx.loss, ctx.threshold, ctx.sampler);
  TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample,
                          sampler.Sample(DatasetView(ctx.table, matching)));
  result->sample = DatasetView(ctx.table, std::move(sample));
  return Status::OK();
}

}  // namespace tabula
