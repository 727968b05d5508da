#ifndef WIREBENCH_MAINTAIN_H_
#define WIREBENCH_MAINTAIN_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "data.h"

namespace wirebench {

/// The section 5 maintenance layer, in process (the server has no write
/// path): IncrementalMaintainer keeps Q2 of Example 1.1(b) for
/// `sizes.subscribers` values of p under `sizes.maintain_batches` seeded
/// batches of visit insertions and deletions, driven through the public
/// phase API (CollectDeletionCandidates -> ApplyUpdate ->
/// IntegrateInsertions -> RecheckCandidates). The maintained answers are
/// checked against CqEvaluator::EvaluateFull at the end.
struct MaintainRun {
  Tally tally;  ///< batches and the final recomputation checks
  double collect_us = 0, apply_us = 0, integrate_us = 0, recheck_us = 0;
  double insert_ns = 0, remove_ns = 0;  ///< per tuple inside ApplyUpdate
  /// Fetched per inserted tuple and subscriber / the static per-tuple bound.
  double bound_ratio = 0;
};

MaintainRun RunMaintain(const Sizes& sizes, uint64_t seed);

}  // namespace wirebench

#endif  // WIREBENCH_MAINTAIN_H_
