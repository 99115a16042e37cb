// Shared vocabulary for the broadcast control-information protocols
// (Section 3.2): the client's read records and the algorithm selector.

#ifndef BCC_MATRIX_CONTROL_INFO_H_
#define BCC_MATRIX_CONTROL_INFO_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/cycle_stamp.h"
#include "history/object_id.h"

namespace bcc {

/// One entry of R_t: "transaction t read the committed value of `object` as
/// of the beginning of broadcast cycle `cycle`".
struct ReadRecord {
  ObjectId object;
  Cycle cycle;

  friend bool operator==(const ReadRecord& a, const ReadRecord& b) {
    return a.object == b.object && a.cycle == b.cycle;
  }
};

/// Returned by read-condition scans when every read passes.
inline constexpr size_t kReadConditionPass = static_cast<size_t>(-1);

/// The concurrency-control algorithms compared in Section 4.
enum class Algorithm {
  kDatacycle,  ///< serializability baseline [Herman et al.]
  kRMatrix,    ///< reduced matrix, weakened read condition (Section 3.2.2)
  kFMatrix,    ///< full n x n matrix (Section 3.2.1)
  kFMatrixNo,  ///< F-Matrix with control-broadcast cost ignored (baseline)
};

std::string_view AlgorithmName(Algorithm a);

/// All four algorithms, in the order the paper's figures list them.
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kDatacycle, Algorithm::kRMatrix, Algorithm::kFMatrix,
    Algorithm::kFMatrixNo};

}  // namespace bcc

#endif  // BCC_MATRIX_CONTROL_INFO_H_
