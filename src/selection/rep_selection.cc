#include "selection/rep_selection.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace tabula {

Result<SelectionResult> SelectRepresentativeSamples(
    const Table& base, const LossFunction& loss, double theta,
    const SelectionOptions& options, CubeTable* cube,
    SampleTable* sample_table) {
  Stopwatch timer;
  SelectionResult result;
  const size_t m = cube->size();
  if (m == 0) {
    result.millis = timer.ElapsedMillis();
    return result;
  }

  TABULA_ASSIGN_OR_RETURN(
      SamGraph graph,
      SamGraph::Build(base, *cube, loss, theta, options.graph));
  result.graph_edges = graph.num_edges();
  result.loss_evaluations = graph.loss_evaluations();

  // --- Algorithm 3 ---
  // Heads sorted by descending out-degree; the LinkedHashMap of the paper
  // is modeled by the sorted order plus an alive bitmap.
  std::vector<uint32_t> heads(m);
  std::iota(heads.begin(), heads.end(), 0u);
  std::stable_sort(heads.begin(), heads.end(), [&](uint32_t a, uint32_t b) {
    return graph.OutEdges(a).size() > graph.OutEdges(b).size();
  });
  std::vector<char> alive(m, 1);
  std::vector<char> selected(m, 0);
  for (uint32_t head : heads) {
    if (!alive[head]) continue;
    // Pick the most representative remaining sample...
    selected[head] = 1;
    alive[head] = 0;
    // ...and remove every sample it represents from the map.
    for (uint32_t tail : graph.OutEdges(head)) {
      alive[tail] = 0;
    }
  }

  // Persist representatives; link every cell to one representative that
  // covers it (its own sample when selected, otherwise the first selected
  // in-neighbor — the paper picks an arbitrary link when several exist).
  std::vector<uint32_t> sample_id_of(m, kInvalidSampleId);
  for (uint32_t v = 0; v < m; ++v) {
    if (selected[v]) {
      sample_id_of[v] =
          sample_table->Add(cube->mutable_cells()[v].local_sample);
    }
  }
  result.representatives = sample_table->size();

  for (uint32_t v = 0; v < m; ++v) {
    IcebergCell& cell = cube->mutable_cells()[v];
    if (selected[v]) {
      cell.sample_id = sample_id_of[v];
      continue;
    }
    uint32_t rep = kInvalidSampleId;
    for (uint32_t u : graph.InEdges(v)) {
      if (selected[u]) {
        rep = sample_id_of[u];
        break;
      }
    }
    // Every vertex is either selected or was removed as some selected
    // head's tail, so a representative must exist.
    TABULA_CHECK(rep != kInvalidSampleId);
    cell.sample_id = rep;
    ++result.cells_sharing;
  }

  cube->DropRawData();
  result.millis = timer.ElapsedMillis();
  return result;
}

Result<SelectionResult> PersistAllSamples(CubeTable* cube,
                                          SampleTable* sample_table,
                                          bool keep_raw_rows) {
  Stopwatch timer;
  SelectionResult result;
  for (auto& cell : cube->mutable_cells()) {
    cell.sample_id = sample_table->Add(cell.local_sample);
  }
  result.representatives = sample_table->size();
  if (!keep_raw_rows) cube->DropRawData();
  result.millis = timer.ElapsedMillis();
  return result;
}

}  // namespace tabula
