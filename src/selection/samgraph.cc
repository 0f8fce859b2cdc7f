#include "selection/samgraph.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>

#include "common/thread_pool.h"

namespace tabula {

namespace {
double SignatureDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double sum = 0.0;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}
}  // namespace

Result<SamGraph> SamGraph::Build(const Table& base, const CubeTable& cube,
                                 const LossFunction& loss, double theta,
                                 const SamGraphOptions& options) {
  const size_t m = cube.size();
  SamGraph graph;
  graph.out_.resize(m);
  graph.in_.resize(m);
  if (m == 0) return graph;

  // Signatures of each cell's raw data and each cell's local sample, used
  // to rank candidate (representative, cell) pairs before the exact test.
  std::vector<std::vector<double>> raw_sig(m), sample_sig(m);
  auto& pool = ThreadPool::Global();
  pool.ParallelFor(m, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const IcebergCell& cell = cube.cells()[i];
      raw_sig[i] = loss.Signature(DatasetView(&base, cell.raw_rows));
      sample_sig[i] = loss.Signature(DatasetView(&base, cell.local_sample));
    }
  });
  const bool have_signatures = !raw_sig[0].empty();

  // For each representative candidate u, bind the loss to sample(u) once
  // (amortizing per-sample indexes) and test its closest cells. Edge-test
  // cost per u is skewed by the candidates' cell sizes, so vertices are
  // stolen one at a time rather than pre-chunked across workers. Each u
  // writes only its own found_per_u slot; the adjacency lists are
  // assembled serially afterwards in ascending-u order so InEdges/OutEdges
  // ordering — which rep_selection uses to break representative-link ties
  // — is independent of worker scheduling.
  std::vector<std::vector<uint32_t>> found_per_u(m);
  std::atomic<size_t> evals{0};
  Status first_error = Status::OK();
  std::mutex error_mu;

  pool.ParallelForGrains(m, [&](size_t, size_t begin, size_t end) {
    std::vector<double> distance;
    for (size_t u = begin; u < end; ++u) {
      const IcebergCell& rep = cube.cells()[u];
      // Candidate targets: all other vertices, ranked by signature
      // proximity of sample(u) to raw(v) when signatures exist. Each
      // distance is computed once into a buffer; the comparator only
      // reads it, so its results (and the selected set) are unchanged.
      std::vector<uint32_t> candidates;
      candidates.reserve(m - 1);
      for (size_t v = 0; v < m; ++v) {
        if (v != u) candidates.push_back(static_cast<uint32_t>(v));
      }
      if (options.max_candidates_per_vertex > 0 &&
          candidates.size() > options.max_candidates_per_vertex) {
        if (have_signatures) {
          distance.resize(m);
          for (size_t v = 0; v < m; ++v) {
            distance[v] = SignatureDistance(sample_sig[u], raw_sig[v]);
          }
          std::nth_element(
              candidates.begin(),
              candidates.begin() + options.max_candidates_per_vertex,
              candidates.end(), [&](uint32_t a, uint32_t b) {
                return distance[a] < distance[b];
              });
        }
        candidates.resize(options.max_candidates_per_vertex);
      }

      auto bound = loss.Bind(base, DatasetView(&base, rep.local_sample));
      if (!bound.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = bound.status();
        continue;
      }

      std::vector<uint32_t> found;
      found.push_back(static_cast<uint32_t>(u));  // self-edge
      for (uint32_t v : candidates) {
        const IcebergCell& cell = cube.cells()[v];
        LossState state;
        for (RowId r : cell.raw_rows) {
          bound.value()->Accumulate(&state, r);
        }
        evals.fetch_add(1, std::memory_order_relaxed);
        if (bound.value()->Finalize(state) <= theta) {
          found.push_back(v);
        }
      }

      found_per_u[u] = std::move(found);
    }
  }, /*grain_rows=*/1);
  TABULA_RETURN_NOT_OK(first_error);
  for (size_t u = 0; u < m; ++u) {
    for (uint32_t v : found_per_u[u]) {
      graph.out_[u].push_back(v);
      graph.in_[v].push_back(static_cast<uint32_t>(u));
      ++graph.num_edges_;
    }
  }
  graph.loss_evaluations_ = evals.load();
  return graph;
}

}  // namespace tabula
