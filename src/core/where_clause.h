#ifndef TABULA_CORE_WHERE_CLAUSE_H_
#define TABULA_CORE_WHERE_CLAUSE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/key_encoder.h"
#include "spatial/spatial_grid.h"
#include "storage/predicate.h"

namespace tabula {

/// \brief The paper's WHERE-clause contract, shared by every engine:
/// each term is an equality predicate on a distinct cubed attribute.
///
/// On success `codes` holds one dictionary code per cubed attribute
/// (kNullCode for attributes the clause leaves at '*'). A literal absent
/// from its dictionary sets `*provably_empty` and stops validation there
/// — the cell holds no rows, so later terms are not examined.
Status ValidateEqualityTerms(const KeyEncoder& encoder,
                             const std::vector<PredicateTerm>& where,
                             std::vector<uint32_t>* codes,
                             bool* provably_empty);

/// Rejects a bbox request whose WHERE clause also constrains one of the
/// grid's own columns by equality.
Status CheckRangeTermsDisjoint(const SpatialGridOptions& grid,
                               const std::vector<PredicateTerm>& where);

}  // namespace tabula

#endif  // TABULA_CORE_WHERE_CLAUSE_H_
