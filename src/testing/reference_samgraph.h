#ifndef TABULA_TESTING_REFERENCE_SAMGRAPH_H_
#define TABULA_TESTING_REFERENCE_SAMGRAPH_H_

#include "common/status.h"
#include "cube/cube_table.h"
#include "loss/loss_function.h"
#include "selection/samgraph.h"

namespace tabula {

/// The SamGraph join as first written, kept as a differential oracle
/// only: serial, every signature computed, every candidate ranked with
/// one nth_element over all other cells, and every edge test re-folding
/// the candidate cell's raw rows through the representative's Bind. The
/// production SamGraph::Build (per-cell states for reference-free
/// losses, sorted 1-D ranking) must yield the same edge sets and edge
/// test count. Out-lists keep the oracle's ranked order, so only their
/// membership is comparable. Nothing on the production path calls this.
Result<SamGraph> BuildReferenceSamGraph(const Table& base,
                                        const CubeTable& cube,
                                        const LossFunction& loss, double theta,
                                        const SamGraphOptions& options);

}  // namespace tabula

#endif  // TABULA_TESTING_REFERENCE_SAMGRAPH_H_
