#include "testing/reference_min_dist.h"

#include <algorithm>
#include <cmath>

namespace tabula {

namespace {

/// Incremental facility-location evaluator with a spatial-grid pruning
/// index: a candidate c can only improve raw tuples whose current
/// min-distance exceeds dist(tuple, c), and every current min-distance is
/// bounded by radius_bound_, so evaluations only visit grid cells within
/// that (monotonically shrinking) radius of the candidate. Early rounds
/// touch everything; once the sample covers the cell, each round touches
/// a tiny neighborhood — the difference between O(k·N) and ~O(N) total.
class ReferenceMinDistEvaluator final : public GreedyLossEvaluator {
 public:
  ReferenceMinDistEvaluator(std::vector<Point> raw_points,
                            DistanceMetric metric)
      : points_(std::move(raw_points)), metric_(metric) {
    // Initialize every tuple's min-distance to a value dominating all real
    // distances (bounding-box "diagonal") so the facility-location gain is
    // finite and submodular from the empty sample onward.
    min_x_ = min_y_ = kInfiniteLoss;
    double max_x = -kInfiniteLoss, max_y = -kInfiniteLoss;
    for (const auto& p : points_) {
      min_x_ = std::min(min_x_, p.x);
      min_y_ = std::min(min_y_, p.y);
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
    double diag = points_.empty()
                      ? 1.0
                      : (max_x - min_x_) + (max_y - min_y_) + 1.0;
    cur_min_.assign(points_.size(), diag);
    cur_sum_ = diag * static_cast<double>(points_.size());
    radius_bound_ = diag;

    // Uniform grid over the bounding box (~1 point/cell, clamped).
    int target =
        static_cast<int>(std::sqrt(static_cast<double>(points_.size())));
    nx_ = ny_ = std::clamp(target, 1, 512);
    double w = max_x - min_x_;
    double h = max_y - min_y_;
    cell_w_ = w > 0 ? w / nx_ : 1.0;
    cell_h_ = h > 0 ? h / ny_ : 1.0;
    cells_.resize(static_cast<size_t>(nx_) * ny_);
    for (uint32_t i = 0; i < points_.size(); ++i) {
      cells_[CellOf(points_[i])].points.push_back(i);
    }
    for (auto& cell : cells_) {
      cell.bound = cell.points.empty() ? 0.0 : diag;
    }
  }

  double CurrentLoss() const override {
    if (chosen_count_ == 0) return kInfiniteLoss;
    return cur_sum_ / static_cast<double>(points_.size());
  }

  double InternalLoss() const override {
    if (points_.empty()) return 0.0;
    return cur_sum_ / static_cast<double>(points_.size());
  }

  double LossWithCandidate(size_t candidate) const override {
    const Point& c = points_[candidate];
    double gain = 0.0;
    VisitNeighborhood(c, [&](const GridCell& cell) {
      for (uint32_t i : cell.points) {
        double d = Distance(metric_, points_[i], c);
        if (d < cur_min_[i]) gain += cur_min_[i] - d;
      }
    });
    return (cur_sum_ - gain) / static_cast<double>(points_.size());
  }

  void Add(size_t candidate) override {
    const Point& c = points_[candidate];
    double gain = 0.0;
    VisitNeighborhood(c, [&](GridCell& cell) {
      double new_bound = 0.0;
      for (uint32_t i : cell.points) {
        double d = Distance(metric_, points_[i], c);
        if (d < cur_min_[i]) {
          gain += cur_min_[i] - d;
          cur_min_[i] = d;
        }
        new_bound = std::max(new_bound, cur_min_[i]);
      }
      cell.bound = new_bound;
    });
    cur_sum_ -= gain;
    ++chosen_count_;
    if (++adds_since_refresh_ >= 16) RefreshRadiusBound();
  }

  size_t raw_size() const override { return points_.size(); }

 private:
  struct GridCell {
    std::vector<uint32_t> points;
    /// Max cur_min_ among this cell's points (an upper bound maintained
    /// exactly on every Add that touches the cell).
    double bound = 0.0;
  };

  size_t CellOf(const Point& p) const {
    int cx = std::clamp(static_cast<int>((p.x - min_x_) / cell_w_), 0,
                        nx_ - 1);
    int cy = std::clamp(static_cast<int>((p.y - min_y_) / cell_h_), 0,
                        ny_ - 1);
    return static_cast<size_t>(cy) * nx_ + cx;
  }

  /// Invokes fn(cell) for every grid cell that could contain a point
  /// gaining from a facility at c. Two prunes stack: the global
  /// radius_bound_ (no cur_min_ exceeds it) trims the window, and each
  /// cell's own bound vs. its minimum distance to c skips well-covered
  /// cells. Both bounds dominate Chebyshev distance, which lower-bounds
  /// every supported metric.
  template <typename Fn>
  void VisitNeighborhood(const Point& c, const Fn& fn) const {
    int x0 = std::clamp(
        static_cast<int>((c.x - radius_bound_ - min_x_) / cell_w_), 0,
        nx_ - 1);
    int x1 = std::clamp(
        static_cast<int>((c.x + radius_bound_ - min_x_) / cell_w_), 0,
        nx_ - 1);
    int y0 = std::clamp(
        static_cast<int>((c.y - radius_bound_ - min_y_) / cell_h_), 0,
        ny_ - 1);
    int y1 = std::clamp(
        static_cast<int>((c.y + radius_bound_ - min_y_) / cell_h_), 0,
        ny_ - 1);
    for (int cy = y0; cy <= y1; ++cy) {
      // Chebyshev distance from c to the cell's y-band.
      double cell_lo_y = min_y_ + cy * cell_h_;
      double dy = std::max({cell_lo_y - c.y, c.y - (cell_lo_y + cell_h_),
                            0.0});
      for (int cx = x0; cx <= x1; ++cx) {
        auto& cell =
            const_cast<GridCell&>(cells_[static_cast<size_t>(cy) * nx_ + cx]);
        if (cell.points.empty()) continue;
        double cell_lo_x = min_x_ + cx * cell_w_;
        double dx = std::max({cell_lo_x - c.x, c.x - (cell_lo_x + cell_w_),
                              0.0});
        // No point in the cell can improve if even the closest corner is
        // beyond every point's current min-distance.
        if (std::max(dx, dy) >= cell.bound) continue;
        fn(cell);
      }
    }
  }

  void RefreshRadiusBound() {
    adds_since_refresh_ = 0;
    double r = 0.0;
    for (const auto& cell : cells_) r = std::max(r, cell.bound);
    radius_bound_ = r;
  }

  std::vector<Point> points_;
  DistanceMetric metric_;
  std::vector<double> cur_min_;
  double cur_sum_ = 0.0;
  size_t chosen_count_ = 0;
  double radius_bound_ = 0.0;
  size_t adds_since_refresh_ = 0;

  double min_x_ = 0.0, min_y_ = 0.0, cell_w_ = 1.0, cell_h_ = 1.0;
  int nx_ = 1, ny_ = 1;
  std::vector<GridCell> cells_;
};

}  // namespace

std::unique_ptr<GreedyLossEvaluator> MakeReferenceMinDistEvaluator(
    std::vector<Point> raw_points, DistanceMetric metric) {
  return std::make_unique<ReferenceMinDistEvaluator>(std::move(raw_points),
                                                     metric);
}

}  // namespace tabula
