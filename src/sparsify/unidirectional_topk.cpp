#include "sparsify/unidirectional_topk.h"

namespace fedsparse::sparsify {

// J at any shard count is the whole union: bucketed aggregation
// (bit-identical sums at every shard count), per-bucket index sorts
// concatenated into the globally index-sorted update, and full-upload CSR
// resets via the parallel builder. Nothing here is selective, so the only
// determinism obligations are the aggregation order (see shard_engine.h) and
// the update's index order (buckets are ascending disjoint index ranges).
void UnidirectionalTopK::choose(const Pass& p, RoundOutcome& out) {
  aggregate(p, /*f=*/{}, out);
  emit_update_from_buckets(p, out);

  // Stage: resets — every uploaded element is used, so clients reset their
  // full top-k sets (no membership filter). The downlink is the whole union,
  // up to 2kN values.
  build_resets(p, /*f=*/{}, out);
}

}  // namespace fedsparse::sparsify
