#include "loss/min_dist_loss.h"

#include <algorithm>
#include <cmath>

namespace tabula {

namespace {

class MinDistBoundLoss final : public BoundLoss {
 public:
  MinDistBoundLoss(const DoubleColumn* x_col, const DoubleColumn* y_col,
                   std::unique_ptr<PointGrid> ref_index)
      : x_col_(x_col), y_col_(y_col), ref_index_(std::move(ref_index)) {}

  void Accumulate(LossState* state, RowId row) const override {
    Point p{x_col_->At(row), y_col_ != nullptr ? y_col_->At(row) : 0.0};
    state->num.Add(p.x);  // count tracking rides along num.count
    if (ref_index_ != nullptr) {
      state->ref_dist_sum += ref_index_->NearestDistance(p);
    } else {
      state->ref_dist_sum = kInfiniteLoss;  // empty reference sample
    }
  }

  double Finalize(const LossState& state) const override {
    if (state.num.count == 0) return 0.0;  // empty cell: nothing to lose
    return state.ref_dist_sum / state.num.count;
  }

 private:
  const DoubleColumn* x_col_;
  const DoubleColumn* y_col_;
  std::unique_ptr<PointGrid> ref_index_;
};

/// Incremental facility-location evaluator with a spatial-grid pruning
/// index: a candidate c can only improve raw tuples whose current
/// min-distance exceeds dist(tuple, c), and every current min-distance is
/// bounded by radius_bound_, so evaluations only visit grid cells within
/// that (monotonically shrinking) radius of the candidate. Early rounds
/// touch everything; once the sample covers the cell, each round touches
/// a tiny neighborhood — the difference between O(k·N) and ~O(N) total.
///
/// Points are counting-sorted into grid-cell order once, so a visited
/// cell is one contiguous run of x / y / cur_min values rather than an
/// index list into a shared point array. Within a cell, points keep
/// ascending original order, so the visit order — and with it every
/// floating-point sum — matches the plain point-list evaluator
/// (src/testing/reference_min_dist.h) bit for bit.
class MinDistGreedyEvaluator final : public GreedyLossEvaluator {
 public:
  MinDistGreedyEvaluator(const std::vector<Point>& points,
                         DistanceMetric metric)
      : n_(points.size()), metric_(metric) {
    // Initialize every tuple's min-distance to a value dominating all real
    // distances (bounding-box "diagonal") so the facility-location gain is
    // finite and submodular from the empty sample onward.
    min_x_ = min_y_ = kInfiniteLoss;
    double max_x = -kInfiniteLoss, max_y = -kInfiniteLoss;
    for (const auto& p : points) {
      min_x_ = std::min(min_x_, p.x);
      min_y_ = std::min(min_y_, p.y);
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
    double diag =
        points.empty() ? 1.0 : (max_x - min_x_) + (max_y - min_y_) + 1.0;
    cur_sum_ = diag * static_cast<double>(n_);
    radius_bound_ = diag;

    // Uniform grid over the bounding box (~1 point/cell, clamped).
    int target = static_cast<int>(std::sqrt(static_cast<double>(n_)));
    nx_ = ny_ = std::clamp(target, 1, 512);
    double w = max_x - min_x_;
    double h = max_y - min_y_;
    cell_w_ = w > 0 ? w / nx_ : 1.0;
    cell_h_ = h > 0 ? h / ny_ : 1.0;

    // Stable counting sort of the points by grid cell.
    cells_.resize(static_cast<size_t>(nx_) * ny_ + 1);
    std::vector<uint32_t> cell_of(n_);
    for (size_t i = 0; i < n_; ++i) {
      cell_of[i] = static_cast<uint32_t>(CellOf(points[i]));
      ++cells_[cell_of[i] + 1].begin;
    }
    for (size_t c = 1; c < cells_.size(); ++c) {
      cells_[c].begin += cells_[c - 1].begin;
    }
    xs_.resize(n_);
    ys_.resize(n_);
    slot_.resize(n_);
    std::vector<uint32_t> cursor(cells_.size() - 1);
    for (size_t c = 0; c + 1 < cells_.size(); ++c) cursor[c] = cells_[c].begin;
    for (size_t i = 0; i < n_; ++i) {
      const uint32_t k = cursor[cell_of[i]]++;
      xs_[k] = points[i].x;
      ys_[k] = points[i].y;
      slot_[i] = k;
    }
    cur_min_.assign(n_, diag);
    for (size_t c = 0; c + 1 < cells_.size(); ++c) {
      cells_[c].bound = Empty(c) ? 0.0 : diag;
    }
  }

  double CurrentLoss() const override {
    if (chosen_count_ == 0) return kInfiniteLoss;
    return cur_sum_ / static_cast<double>(n_);
  }

  double InternalLoss() const override {
    if (n_ == 0) return 0.0;
    return cur_sum_ / static_cast<double>(n_);
  }

  double LossWithCandidate(size_t candidate) const override {
    const double cx = xs_[slot_[candidate]];
    const double cy = ys_[slot_[candidate]];
    double gain = 0.0;
    if (metric_ == DistanceMetric::kEuclidean) {
      VisitNeighborhood(cx, cy,
                        [&](size_t c) { CellGain<true>(c, cx, cy, &gain); });
    } else {
      VisitNeighborhood(cx, cy,
                        [&](size_t c) { CellGain<false>(c, cx, cy, &gain); });
    }
    return (cur_sum_ - gain) / static_cast<double>(n_);
  }

  void Add(size_t candidate) override {
    const double cx = xs_[slot_[candidate]];
    const double cy = ys_[slot_[candidate]];
    double gain = 0.0;
    if (metric_ == DistanceMetric::kEuclidean) {
      VisitNeighborhood(cx, cy,
                        [&](size_t c) { CellCommit<true>(c, cx, cy, &gain); });
    } else {
      VisitNeighborhood(cx, cy, [&](size_t c) {
        CellCommit<false>(c, cx, cy, &gain);
      });
    }
    cur_sum_ -= gain;
    ++chosen_count_;
    if (++adds_since_refresh_ >= 16) RefreshRadiusBound();
  }

  size_t raw_size() const override { return n_; }

 private:
  /// Grid cell c owns positions [cells_[c].begin, cells_[c + 1].begin) of
  /// the point arrays; the trailing sentinel closes the last cell.
  struct GridCell {
    uint32_t begin = 0;
    /// Max cur_min_ among this cell's points (an upper bound maintained
    /// exactly on every Add that touches the cell).
    double bound = 0.0;
  };

  /// The rounded sqrt(d2) cannot be below cur_min once
  /// d2 >= cur_min² · (1 + 1e-12): the slack covers the rounding of
  /// cur_min² and of the product, so Euclidean scans skip those sqrts and
  /// run the exact `d < cur_min` test for every point that could pass it.
  /// Where cur_min² underflows, cur_min is itself the rounded sqrt of an
  /// earlier d² (the diagonal start is >= 1), whose square rounds back to
  /// at most the slack-widened bound, so the skip stays exact there too.
  static constexpr double kSkipSlack = 1.0 + 1e-12;

  bool Empty(size_t c) const { return cells_[c].begin == cells_[c + 1].begin; }

  size_t CellOf(const Point& p) const {
    int cx = std::clamp(static_cast<int>((p.x - min_x_) / cell_w_), 0,
                        nx_ - 1);
    int cy = std::clamp(static_cast<int>((p.y - min_y_) / cell_h_), 0,
                        ny_ - 1);
    return static_cast<size_t>(cy) * nx_ + cx;
  }

  /// Whether a facility at offset (dx, dy) beats a point's current
  /// min-distance cm; sets *d to the distance when it does. Euclidean
  /// offsets skip the sqrt when d² rules the facility out (kSkipSlack).
  template <bool kEuclidean>
  static bool Closer(double dx, double dy, double cm, double* d) {
    if constexpr (kEuclidean) {
      const double d2 = dx * dx + dy * dy;
      if (d2 >= cm * cm * kSkipSlack) return false;
      *d = std::sqrt(d2);
    } else {
      *d = std::abs(dx) + std::abs(dy);
    }
    return *d < cm;
  }

  /// Adds grid cell c's gain from a facility at (x, y) to *gain, point by
  /// point in cell order.
  template <bool kEuclidean>
  void CellGain(size_t c, double x, double y, double* gain) const {
    double g = *gain;
    for (uint32_t k = cells_[c].begin; k < cells_[c + 1].begin; ++k) {
      double d;
      if (Closer<kEuclidean>(xs_[k] - x, ys_[k] - y, cur_min_[k], &d)) {
        g += cur_min_[k] - d;
      }
    }
    *gain = g;
  }

  /// CellGain that also commits: lowers each improved cur_min_ and
  /// refreshes the cell's bound.
  template <bool kEuclidean>
  void CellCommit(size_t c, double x, double y, double* gain) {
    double g = *gain;
    double new_bound = 0.0;
    for (uint32_t k = cells_[c].begin; k < cells_[c + 1].begin; ++k) {
      double d;
      if (Closer<kEuclidean>(xs_[k] - x, ys_[k] - y, cur_min_[k], &d)) {
        g += cur_min_[k] - d;
        cur_min_[k] = d;
      }
      new_bound = std::max(new_bound, cur_min_[k]);
    }
    *gain = g;
    cells_[c].bound = new_bound;
  }

  /// Invokes fn(cell index) for every grid cell that could contain a
  /// point gaining from a facility at (x, y). Two prunes stack: the
  /// global radius_bound_ (no cur_min_ exceeds it) trims the window, and
  /// each cell's own bound vs. its minimum distance to the facility skips
  /// well-covered cells. Both bounds dominate Chebyshev distance, which
  /// lower-bounds every supported metric.
  template <typename Fn>
  void VisitNeighborhood(double x, double y, const Fn& fn) const {
    int x0 = std::clamp(
        static_cast<int>((x - radius_bound_ - min_x_) / cell_w_), 0,
        nx_ - 1);
    int x1 = std::clamp(
        static_cast<int>((x + radius_bound_ - min_x_) / cell_w_), 0,
        nx_ - 1);
    int y0 = std::clamp(
        static_cast<int>((y - radius_bound_ - min_y_) / cell_h_), 0,
        ny_ - 1);
    int y1 = std::clamp(
        static_cast<int>((y + radius_bound_ - min_y_) / cell_h_), 0,
        ny_ - 1);
    for (int cy = y0; cy <= y1; ++cy) {
      // Chebyshev distance from the facility to the cell's y-band.
      double cell_lo_y = min_y_ + cy * cell_h_;
      double dy = std::max({cell_lo_y - y, y - (cell_lo_y + cell_h_), 0.0});
      for (int cx = x0; cx <= x1; ++cx) {
        const size_t c = static_cast<size_t>(cy) * nx_ + cx;
        if (Empty(c)) continue;
        double cell_lo_x = min_x_ + cx * cell_w_;
        double dx =
            std::max({cell_lo_x - x, x - (cell_lo_x + cell_w_), 0.0});
        // No point in the cell can improve if even the closest corner is
        // beyond every point's current min-distance.
        if (std::max(dx, dy) >= cells_[c].bound) continue;
        fn(c);
      }
    }
  }

  void RefreshRadiusBound() {
    adds_since_refresh_ = 0;
    double r = 0.0;
    for (size_t c = 0; c + 1 < cells_.size(); ++c) {
      r = std::max(r, cells_[c].bound);
    }
    radius_bound_ = r;
  }

  size_t n_;
  DistanceMetric metric_;
  /// Point coordinates and current min-distances in grid-cell order;
  /// slot_[i] is original point i's position in them.
  std::vector<double> xs_, ys_;
  std::vector<double> cur_min_;
  std::vector<uint32_t> slot_;
  double cur_sum_ = 0.0;
  size_t chosen_count_ = 0;
  double radius_bound_ = 0.0;
  size_t adds_since_refresh_ = 0;

  double min_x_ = 0.0, min_y_ = 0.0, cell_w_ = 1.0, cell_h_ = 1.0;
  int nx_ = 1, ny_ = 1;
  std::vector<GridCell> cells_;
};

}  // namespace

MinDistLoss::MinDistLoss(std::string name,
                         std::vector<std::string> coord_columns,
                         DistanceMetric metric)
    : name_(std::move(name)),
      columns_(std::move(coord_columns)),
      metric_(metric) {
  TABULA_CHECK(columns_.size() == 1 || columns_.size() == 2);
}

Result<std::vector<Point>> MinDistLoss::ExtractPoints(
    const DatasetView& view) const {
  if (view.table() == nullptr) {
    return Status::InvalidArgument("view has no table");
  }
  const Table& table = *view.table();
  TABULA_ASSIGN_OR_RETURN(const Column* xc, table.ColumnByName(columns_[0]));
  const auto* x_col = xc->As<DoubleColumn>();
  if (x_col == nullptr) {
    return Status::TypeMismatch(name_ + " coordinate '" + columns_[0] +
                                "' must be DOUBLE");
  }
  const DoubleColumn* y_col = nullptr;
  if (columns_.size() == 2) {
    TABULA_ASSIGN_OR_RETURN(const Column* yc, table.ColumnByName(columns_[1]));
    y_col = yc->As<DoubleColumn>();
    if (y_col == nullptr) {
      return Status::TypeMismatch(name_ + " coordinate '" + columns_[1] +
                                  "' must be DOUBLE");
    }
  }
  std::vector<Point> points(view.size());
  for (size_t i = 0; i < view.size(); ++i) {
    RowId r = view.row(i);
    points[i] = {x_col->At(r), y_col != nullptr ? y_col->At(r) : 0.0};
  }
  return points;
}

Result<std::unique_ptr<BoundLoss>> MinDistLoss::Bind(
    const Table& table, const DatasetView& ref) const {
  TABULA_ASSIGN_OR_RETURN(const Column* xc, table.ColumnByName(columns_[0]));
  const auto* x_col = xc->As<DoubleColumn>();
  if (x_col == nullptr) {
    return Status::TypeMismatch(name_ + " coordinate '" + columns_[0] +
                                "' must be DOUBLE");
  }
  const DoubleColumn* y_col = nullptr;
  if (columns_.size() == 2) {
    TABULA_ASSIGN_OR_RETURN(const Column* yc, table.ColumnByName(columns_[1]));
    y_col = yc->As<DoubleColumn>();
    if (y_col == nullptr) {
      return Status::TypeMismatch(name_ + " coordinate '" + columns_[1] +
                                  "' must be DOUBLE");
    }
  }
  std::unique_ptr<PointGrid> index;
  if (!ref.empty()) {
    TABULA_ASSIGN_OR_RETURN(std::vector<Point> ref_points,
                            ExtractPoints(ref));
    index = std::make_unique<PointGrid>(std::move(ref_points), metric_);
  }
  return std::unique_ptr<BoundLoss>(
      std::make_unique<MinDistBoundLoss>(x_col, y_col, std::move(index)));
}

Result<double> MinDistLoss::Loss(const DatasetView& raw,
                                 const DatasetView& sample) const {
  if (raw.empty()) return 0.0;
  if (sample.empty()) return kInfiniteLoss;
  TABULA_ASSIGN_OR_RETURN(std::vector<Point> sam_points,
                          ExtractPoints(sample));
  PointGrid index(std::move(sam_points), metric_);
  TABULA_ASSIGN_OR_RETURN(std::vector<Point> raw_points, ExtractPoints(raw));
  double sum = 0.0;
  for (const auto& p : raw_points) sum += index.NearestDistance(p);
  return sum / static_cast<double>(raw_points.size());
}

std::vector<double> MinDistLoss::Signature(const DatasetView& view) const {
  auto points = ExtractPoints(view);
  if (!points.ok() || points.value().empty()) return {0.0, 0.0};
  double sx = 0.0, sy = 0.0;
  for (const auto& p : points.value()) {
    sx += p.x;
    sy += p.y;
  }
  double n = static_cast<double>(points.value().size());
  return {sx / n, sy / n};
}

Result<std::unique_ptr<GreedyLossEvaluator>> MinDistLoss::MakeGreedyEvaluator(
    const DatasetView& raw) const {
  TABULA_ASSIGN_OR_RETURN(std::vector<Point> points, ExtractPoints(raw));
  return std::unique_ptr<GreedyLossEvaluator>(
      std::make_unique<MinDistGreedyEvaluator>(points, metric_));
}

std::unique_ptr<LossFunction> MakeHeatmapLoss(const std::string& x_column,
                                              const std::string& y_column,
                                              DistanceMetric metric) {
  return std::make_unique<MinDistLoss>(
      "heatmap_loss", std::vector<std::string>{x_column, y_column}, metric);
}

std::unique_ptr<LossFunction> MakeHistogramLoss(const std::string& column) {
  return std::make_unique<MinDistLoss>("histogram_loss",
                                       std::vector<std::string>{column},
                                       DistanceMetric::kEuclidean);
}

}  // namespace tabula
