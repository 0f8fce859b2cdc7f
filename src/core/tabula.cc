#include "core/tabula.h"

#include "common/logging.h"
#include "common/rng.h"
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

  // Stage 1: dry run — iceberg cell lookup via algebraic roll-up. The
  // engine keeps the fold's finest states as its maintenance state, and
  // a partition also the lattice's present keys (the coordinator's merge
  // inputs), so its rows fold once.
  Span dry_span = tracer->StartSpan("tabula.init.dry_run", parent_span);
  TABULA_ASSIGN_OR_RETURN(
      DryRunResult dry,
      RunDryRun(view, tabula->encoder_, tabula->packer_, lattice, *loss,
                tabula->global_sample_, opts.threshold,
                /*keep_present_cells=*/partition));
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
      RunRealRun(view, tabula->encoder_, tabula->packer_, dry, *loss,
                 opts.threshold, sampler_opts, opts.path_policy));
  tabula->stats_.real_run_cuboids = std::move(real.per_cuboid);
  tabula->cube_ = std::move(real.cube);
  real_span.SetAttribute("iceberg_cells", tabula->cube_.size());
  real_span.SetAttribute("cuboids_visited",
                         tabula->stats_.real_run_cuboids.size());
  tabula->stats_.real_run_millis = real_span.End();

  // Stage 3: representative sample selection (or persist-all for
  // Tabula* and for partitions).
  Span sel_span = tracer->StartSpan("tabula.init.selection", parent_span);
  SelectionResult sel;
  if (opts.enable_sample_selection) {
    TABULA_ASSIGN_OR_RETURN(
        sel, SelectRepresentativeSamples(table, *loss, opts.threshold,
                                         opts.selection, &tabula->cube_,
                                         &tabula->samples_));
    tabula->stats_.cells_sharing_samples = sel.cells_sharing;
  } else {
    // A partition keeps its cells' raw rows for the sharded merge.
    TABULA_ASSIGN_OR_RETURN(
        sel, PersistAllSamples(&tabula->cube_, &tabula->samples_, partition));
  }
  tabula->stats_.representative_samples = sel.representatives;
  sel_span.SetAttribute("representatives",
                        tabula->stats_.representative_samples);
  sel_span.SetAttribute("cells_sharing",
                        tabula->stats_.cells_sharing_samples);
  sel_span.SetAttribute("graph_edges", sel.graph_edges);
  sel_span.SetAttribute("edge_tests", sel.loss_evaluations);
  sel_span.SetAttribute("rank_fallbacks", sel.rank_fallbacks);
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
  tabula->finest_states_ = std::move(dry.finest_states);
  tabula->present_cells_ = std::move(dry.present_cells);
  return tabula;
}

void Tabula::ServeCell(uint64_t key, uint64_t query_span,
                       TabulaQueryResult* result) const {
  IcebergCell* cell = cube_.FindMutable(key);
  if (cell == nullptr) {
    // Non-iceberg cell: the dry run verified the global sample is within
    // θ of this cell's raw data.
    result->sample = DatasetView(table_, global_sample_rows_);
  } else if (store_enabled()) {
    // Hit accounting + cold-tier lazy promote (CubeEngine).
    ServeStoredSample(&store_, &samples_, key, &cell->sample_id, query_span,
                      result);
  } else {
    result->from_local_sample = true;
    result->sample = DatasetView(table_, samples_.sample(cell->sample_id));
  }
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

}  // namespace tabula
