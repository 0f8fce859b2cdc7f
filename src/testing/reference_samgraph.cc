#include "testing/reference_samgraph.h"

#include <algorithm>

namespace tabula {

Result<SamGraph> BuildReferenceSamGraph(const Table& base,
                                        const CubeTable& cube,
                                        const LossFunction& loss, double theta,
                                        const SamGraphOptions& options) {
  const size_t m = cube.size();
  std::vector<std::vector<double>> raw_sig(m), sample_sig(m);
  for (size_t i = 0; i < m; ++i) {
    const IcebergCell& cell = cube.cells()[i];
    raw_sig[i] = loss.Signature(DatasetView(&base, cell.raw_rows));
    sample_sig[i] = loss.Signature(DatasetView(&base, cell.local_sample));
  }
  const bool have_signatures = m > 0 && !raw_sig[0].empty();

  std::vector<std::vector<uint32_t>> out(m);
  size_t evals = 0;
  std::vector<double> distance(m);
  for (size_t u = 0; u < m; ++u) {
    std::vector<uint32_t> candidates;
    for (size_t v = 0; v < m; ++v) {
      if (v != u) candidates.push_back(static_cast<uint32_t>(v));
    }
    const size_t cap = options.max_candidates_per_vertex;
    if (cap > 0 && candidates.size() > cap) {
      if (have_signatures) {
        for (size_t v = 0; v < m; ++v) {
          double sum = 0.0;
          const size_t n = std::min(sample_sig[u].size(), raw_sig[v].size());
          for (size_t i = 0; i < n; ++i) {
            double d = sample_sig[u][i] - raw_sig[v][i];
            sum += d * d;
          }
          distance[v] = sum;
        }
        std::nth_element(candidates.begin(), candidates.begin() + cap,
                         candidates.end(), [&](uint32_t a, uint32_t b) {
                           return distance[a] < distance[b];
                         });
      }
      candidates.resize(cap);
    }

    TABULA_ASSIGN_OR_RETURN(
        auto bound,
        loss.Bind(base, DatasetView(&base, cube.cells()[u].local_sample)));
    out[u].push_back(static_cast<uint32_t>(u));  // self-edge
    for (uint32_t v : candidates) {
      LossState state;
      for (RowId r : cube.cells()[v].raw_rows) bound->Accumulate(&state, r);
      ++evals;
      if (bound->Finalize(state) <= theta) out[u].push_back(v);
    }
  }
  return SamGraph::FromOutEdges(std::move(out), evals, /*rank_fallbacks=*/0);
}

}  // namespace tabula
