#ifndef TABULA_SELECTION_SAMGRAPH_H_
#define TABULA_SELECTION_SAMGRAPH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "cube/cube_table.h"
#include "loss/loss_function.h"

namespace tabula {

/// Tuning knobs for SamGraph construction.
struct SamGraphOptions {
  /// Per-vertex cap on representation-relationship tests, applied after
  /// ranking candidates by loss-signature proximity — the paper's
  /// non-exhaustive similarity join ("this join result does not have to
  /// exhaust all possible representation relationships"; correctness is
  /// unaffected, only the amount of sharing). 0 = exhaustive.
  size_t max_candidates_per_vertex = 64;
};

/// \brief The sample representation graph (paper Definition 6).
///
/// Vertices are iceberg cells (by index into the cube table). A directed
/// edge u→v means sample(u) can represent cell v:
/// loss(raw(v), sample(u)) <= θ. Self-edges are implicit (every local
/// sample satisfies its own cell by construction of Algorithm 1) and are
/// materialized so Algorithm 3's degree ordering matches the paper.
class SamGraph {
 public:
  /// Builds the graph with the inner join of the cube table against
  /// itself on the representation relationship (the paper's SQL join),
  /// pruned by signature ranking per SamGraphOptions.
  static Result<SamGraph> Build(const Table& base, const CubeTable& cube,
                                const LossFunction& loss, double theta,
                                const SamGraphOptions& options);

  /// A graph from per-vertex out-lists (each led by its self-edge);
  /// in-lists are derived in ascending source order. Build assembles its
  /// result this way, and so does the reference join in src/testing/.
  static SamGraph FromOutEdges(std::vector<std::vector<uint32_t>> out,
                               size_t loss_evaluations,
                               size_t rank_fallbacks);

  size_t num_vertices() const { return out_.size(); }
  /// Cells representable by vertex u's sample (including u itself).
  const std::vector<uint32_t>& OutEdges(uint32_t u) const { return out_[u]; }
  /// Samples that can represent cell v (including v's own).
  const std::vector<uint32_t>& InEdges(uint32_t v) const { return in_[v]; }

  size_t num_edges() const { return num_edges_; }
  /// Exact edge tests run (self-edges are not tested).
  size_t loss_evaluations() const { return loss_evaluations_; }
  /// Vertices whose sorted 1-D ranking tied at the cap boundary and were
  /// re-ranked by the full selection (DESIGN.md §11).
  size_t rank_fallbacks() const { return rank_fallbacks_; }

 private:
  std::vector<std::vector<uint32_t>> out_;
  std::vector<std::vector<uint32_t>> in_;
  size_t num_edges_ = 0;
  size_t loss_evaluations_ = 0;
  size_t rank_fallbacks_ = 0;
};

}  // namespace tabula

#endif  // TABULA_SELECTION_SAMGRAPH_H_
