#include "core/where_clause.h"

#include <algorithm>
#include <string>

namespace tabula {

Status ValidateEqualityTerms(const KeyEncoder& encoder,
                             const std::vector<PredicateTerm>& where,
                             std::vector<uint32_t>* codes,
                             bool* provably_empty) {
  const auto& names = encoder.column_names();
  codes->assign(names.size(), kNullCode);
  *provably_empty = false;
  for (const auto& term : where) {
    if (term.op != CompareOp::kEq) {
      return Status::InvalidArgument(
          "sampling-cube queries support equality predicates only (got '" +
          term.column + " " + CompareOpName(term.op) + " ...')");
    }
    auto it = std::find(names.begin(), names.end(), term.column);
    if (it == names.end()) {
      return Status::InvalidArgument(
          "'" + term.column +
          "' is not a cubed attribute; WHERE-clause attributes must be a "
          "subset of the cubed attributes of the initialization query");
    }
    size_t k = static_cast<size_t>(it - names.begin());
    if ((*codes)[k] != kNullCode) {
      return Status::InvalidArgument("duplicate predicate on '" +
                                     term.column + "'");
    }
    auto code = encoder.CodeForValue(k, term.literal);
    if (!code.ok()) {
      *provably_empty = true;
      return Status::OK();
    }
    (*codes)[k] = code.value();
  }
  return Status::OK();
}

Status CheckRangeTermsDisjoint(const SpatialGridOptions& grid,
                               const std::vector<PredicateTerm>& where) {
  for (const auto& term : where) {
    if (term.column == grid.x_column || term.column == grid.y_column) {
      return Status::InvalidArgument(
          "cannot mix a spatial range and an equality predicate on '" +
          term.column + "'");
    }
  }
  return Status::OK();
}

}  // namespace tabula
