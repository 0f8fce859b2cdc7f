#ifndef TABULA_TESTING_REFERENCE_MIN_DIST_H_
#define TABULA_TESTING_REFERENCE_MIN_DIST_H_

#include <memory>
#include <vector>

#include "loss/loss_function.h"
#include "loss/spatial.h"

namespace tabula {

/// The point-list greedy evaluator for the min-distance losses, kept as a
/// differential oracle only: per-grid-cell index lists into one point
/// array, and a sqrt for every visited point. The production evaluator
/// (MinDistLoss::MakeGreedyEvaluator) lays points out cell-contiguously
/// and skips provably losing sqrts; it must return bit-equal
/// LossWithCandidate / CurrentLoss / InternalLoss values along any greedy
/// run. Nothing on the production path calls this.
std::unique_ptr<GreedyLossEvaluator> MakeReferenceMinDistEvaluator(
    std::vector<Point> raw_points, DistanceMetric metric);

}  // namespace tabula

#endif  // TABULA_TESTING_REFERENCE_MIN_DIST_H_
