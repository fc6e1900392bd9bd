#include "sparsify/unidirectional_topk.h"

#include <algorithm>

#include "sparsify/topk.h"
#include "tensor/matrix.h"
#include "util/thread_pool.h"

namespace fedsparse::sparsify {

UnidirectionalTopK::UnidirectionalTopK(std::size_t dim) : pipe_(dim) {}

// One round at any shard count: bucketed aggregation of the whole union
// (bit-identical sums at every shard count), per-bucket index sorts
// concatenated into the globally index-sorted update, and full-upload CSR
// resets via the parallel builder. Nothing here is selective, so the only
// determinism obligations are the aggregation order (see shard_engine.h) and
// the update's index order (buckets are ascending disjoint index ranges).
RoundOutcome UnidirectionalTopK::round(const RoundInput& in, std::size_t k) {
  validate_round_input(in);
  k = std::clamp<std::size_t>(k, 1, pipe_.dim());
  util::ThreadPool* pool = tensor::parallel_pool();
  const ShardPlan plan = pipe_.make_plan(in.client_vectors.size());
  const std::size_t S = plan.shards();

  pipe_.select_uploads(in, k);

  ValidationStats vstats;
  const std::span<const double> weights = pipe_.validate_uploads(in, vstats);
  if (vstats.degraded) {
    RoundOutcome out;
    pipe_.finish_degraded(in, out);
    out.validation = vstats;
    return out;
  }

  RoundOutcome out;
  if (pipe_.robust_enabled()) {
    pipe_.aggregate_robust(in, weights, S, pool, /*f=*/{});
    out.robust = pipe_.robust_stats();
  } else {
    pipe_.aggregate(weights, S, pool, /*f=*/{});
  }

  out.kind = RoundOutcome::Kind::kSparseUpdate;
  out.validation = vstats;
  pipe_.emit_update_from_buckets(pool, out);

  // Stage: resets — every uploaded element is used, so clients reset their
  // full top-k sets (no membership filter). Payload accounting: parallel
  // uplinks charge the largest actual per-client payload; the downlink is the
  // whole union, up to 2kN values.
  pipe_.build_resets(S, pool, /*f=*/{}, out);
  pipe_.finish_payload(out);
  return out;
}

}  // namespace fedsparse::sparsify
