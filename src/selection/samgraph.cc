#include "selection/samgraph.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
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

/// True when every signature is one finite value, so distances to a
/// fixed point are monotone along the raw signatures' sorted order.
bool AllFinite1D(const std::vector<std::vector<double>>& raw_sig,
                 const std::vector<std::vector<double>>& sample_sig) {
  for (size_t i = 0; i < raw_sig.size(); ++i) {
    if (raw_sig[i].size() != 1 || sample_sig[i].size() != 1 ||
        !std::isfinite(raw_sig[i][0]) || !std::isfinite(sample_sig[i][0])) {
      return false;
    }
  }
  return true;
}

/// Appends to `out` the `cap` cells whose raw signature is nearest to
/// `sample_sig[u]`, skipping u, given the cells sorted by raw signature.
/// Distances grow monotonically away from the insertion point of
/// `sample_sig[u]` on either side, so merging the two sides yields
/// candidates in non-decreasing distance. The first `cap` are the unique
/// nearest set only when the next one is strictly farther; on a tie this
/// returns false and the caller ranks all cells instead. Needs
/// `cap < by_sig.size() - 1`.
bool NearestBySortedSignature(
    size_t u, size_t cap, const std::vector<uint32_t>& by_sig,
    const std::vector<std::vector<double>>& raw_sig,
    const std::vector<std::vector<double>>& sample_sig,
    std::vector<uint32_t>* out) {
  const size_t m = by_sig.size();
  const auto dist = [&](size_t k) {
    return SignatureDistance(sample_sig[u], raw_sig[by_sig[k]]);
  };
  const double s = sample_sig[u][0];
  const auto below = [&](uint32_t v, double x) { return raw_sig[v][0] < x; };
  size_t right = static_cast<size_t>(
      std::lower_bound(by_sig.begin(), by_sig.end(), s, below) -
      by_sig.begin());
  size_t left = right;  // the next cell on the left is left - 1
  const auto take_next = [&](double* d) {
    if (right < m && by_sig[right] == u) ++right;
    if (left > 0 && by_sig[left - 1] == u) --left;
    const bool take_left =
        right == m || (left > 0 && dist(left - 1) <= dist(right));
    const size_t k = take_left ? --left : right++;
    *d = dist(k);
    return by_sig[k];
  };
  double last = 0.0;
  for (size_t k = 0; k < cap; ++k) out->push_back(take_next(&last));
  double next = 0.0;
  take_next(&next);
  return next > last;
}
}  // namespace

SamGraph SamGraph::FromOutEdges(std::vector<std::vector<uint32_t>> out,
                                size_t loss_evaluations,
                                size_t rank_fallbacks) {
  SamGraph graph;
  graph.in_.resize(out.size());
  for (size_t u = 0; u < out.size(); ++u) {
    for (uint32_t v : out[u]) {
      graph.in_[v].push_back(static_cast<uint32_t>(u));
    }
    graph.num_edges_ += out[u].size();
  }
  graph.out_ = std::move(out);
  graph.loss_evaluations_ = loss_evaluations;
  graph.rank_fallbacks_ = rank_fallbacks;
  return graph;
}

Result<SamGraph> SamGraph::Build(const Table& base, const CubeTable& cube,
                                 const LossFunction& loss, double theta,
                                 const SamGraphOptions& options) {
  const size_t m = cube.size();
  if (m == 0) return SamGraph();
  const size_t cap = options.max_candidates_per_vertex;
  // Ranking happens only when the cap leaves some candidates out.
  const bool ranked = cap > 0 && m - 1 > cap;
  // A reference-free loss accumulates the same LossState for a cell
  // whatever sample it is bound to, so each cell's raw rows are folded
  // once (through one Bind, in raw_rows order) and every edge test is a
  // Finalize — bit-equal to folding the rows again per edge.
  const bool ref_free = !loss.StateDependsOnReference();
  std::unique_ptr<BoundLoss> accumulator;
  if (ref_free) {
    TABULA_ASSIGN_OR_RETURN(
        accumulator,
        loss.Bind(base, DatasetView(&base, cube.cells()[0].local_sample)));
  }

  // Signatures of each cell's raw data and each cell's local sample, used
  // to rank candidate (representative, cell) pairs before the exact test.
  std::vector<std::vector<double>> raw_sig, sample_sig;
  std::vector<LossState> states;
  if (ranked) {
    raw_sig.resize(m);
    sample_sig.resize(m);
  }
  if (ref_free) states.resize(m);
  auto& pool = ThreadPool::Global();
  if (ranked || ref_free) {
    pool.ParallelFor(m, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const IcebergCell& cell = cube.cells()[i];
        if (ranked) {
          raw_sig[i] = loss.Signature(DatasetView(&base, cell.raw_rows));
          sample_sig[i] =
              loss.Signature(DatasetView(&base, cell.local_sample));
        }
        if (ref_free) {
          for (RowId r : cell.raw_rows) accumulator->Accumulate(&states[i], r);
        }
      }
    });
  }
  const bool have_signatures = ranked && !raw_sig[0].empty();
  // 1-D signatures rank by a binary search into the cells sorted by raw
  // signature (ties by index) and a two-pointer walk outwards.
  std::vector<uint32_t> by_sig;
  if (have_signatures && AllFinite1D(raw_sig, sample_sig)) {
    by_sig.resize(m);
    std::iota(by_sig.begin(), by_sig.end(), 0u);
    std::stable_sort(by_sig.begin(), by_sig.end(),
                     [&](uint32_t a, uint32_t b) {
                       return raw_sig[a][0] < raw_sig[b][0];
                     });
  }

  // For each representative candidate u, bind the loss to sample(u) once
  // (amortizing per-sample indexes) and test its closest cells. Edge-test
  // cost per u is skewed by the candidates' cell sizes, so vertices are
  // stolen one at a time rather than pre-chunked across workers. Each u
  // writes only its own found_per_u slot, the self-edge first and then
  // ascending targets; the in-lists are assembled serially afterwards in
  // ascending-u order so InEdges ordering — which rep_selection uses to
  // break representative-link ties — is independent of worker scheduling.
  std::vector<std::vector<uint32_t>> found_per_u(m);
  std::atomic<size_t> evals{0};
  std::atomic<size_t> fallbacks{0};
  Status first_error = Status::OK();
  std::mutex error_mu;

  pool.ParallelForGrains(m, [&](size_t, size_t begin, size_t end) {
    std::vector<double> distance;
    std::vector<uint32_t> candidates;
    for (size_t u = begin; u < end; ++u) {
      candidates.clear();
      bool selected = false;
      if (!by_sig.empty()) {
        selected = NearestBySortedSignature(u, cap, by_sig, raw_sig,
                                            sample_sig, &candidates);
        if (!selected) {
          candidates.clear();
          fallbacks.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (!selected) {
        // Candidate targets: all other vertices, ranked by signature
        // proximity of sample(u) to raw(v) when signatures exist. Each
        // distance is computed once into a buffer; the comparator only
        // reads it, so its results (and the selected set) are unchanged.
        candidates.reserve(m - 1);
        for (size_t v = 0; v < m; ++v) {
          if (v != u) candidates.push_back(static_cast<uint32_t>(v));
        }
        if (ranked) {
          if (have_signatures) {
            distance.resize(m);
            for (size_t v = 0; v < m; ++v) {
              distance[v] = SignatureDistance(sample_sig[u], raw_sig[v]);
            }
            std::nth_element(candidates.begin(), candidates.begin() + cap,
                             candidates.end(), [&](uint32_t a, uint32_t b) {
                               return distance[a] < distance[b];
                             });
          }
          candidates.resize(cap);
        }
      }
      if (ranked) std::sort(candidates.begin(), candidates.end());

      const IcebergCell& rep = cube.cells()[u];
      auto bound = loss.Bind(base, DatasetView(&base, rep.local_sample));
      if (!bound.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = bound.status();
        continue;
      }

      std::vector<uint32_t> found;
      found.push_back(static_cast<uint32_t>(u));  // self-edge
      for (uint32_t v : candidates) {
        double value;
        if (ref_free) {
          value = bound.value()->Finalize(states[v]);
        } else {
          LossState state;
          for (RowId r : cube.cells()[v].raw_rows) {
            bound.value()->Accumulate(&state, r);
          }
          value = bound.value()->Finalize(state);
        }
        if (value <= theta) found.push_back(v);
      }
      evals.fetch_add(candidates.size(), std::memory_order_relaxed);

      found_per_u[u] = std::move(found);
    }
  }, /*grain_rows=*/1);
  TABULA_RETURN_NOT_OK(first_error);
  // The per-cell states and signatures are dead; free them before the
  // adjacency lists are assembled.
  states = {};
  raw_sig = {};
  sample_sig = {};
  return FromOutEdges(std::move(found_per_u), evals.load(), fallbacks.load());
}

}  // namespace tabula
