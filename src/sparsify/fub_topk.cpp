#include "sparsify/fub_topk.h"

#include <algorithm>
#include <functional>

#include "sparsify/keys.h"
#include "sparsify/topk.h"
#include "tensor/matrix.h"
#include "util/thread_pool.h"

namespace fedsparse::sparsify {

FubTopK::FubTopK(std::size_t dim) : pipe_(dim) {}

// One round at any shard count: aggregate everything uploaded, then keep the
// top-k indices by (|aggregate| desc, index asc) — exactly the 64-bit key
// order on (agg value, index), and the per-index keys are unique. So:
// bucketed aggregation (bit-identical sums at every shard count, see
// shard_engine.h), per-bucket partial top-k via nth_element + radix sort, and
// a k-bounded tree merge of the runs. The merged run is the global top-k set;
// the update is re-sorted by index, and resets / contributions consume only
// set membership.
RoundOutcome FubTopK::round(const RoundInput& in, std::size_t k) {
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
  const BucketAggregator& aggregator =
      pipe_.robust_enabled() ? pipe_.aggregate_robust(in, weights, S, pool, /*f=*/{})
                             : pipe_.aggregate(weights, S, pool, /*f=*/{});
  if (pipe_.robust_enabled()) out.robust = pipe_.robust_stats();
  float* agg = pipe_.agg();

  const std::size_t B = aggregator.buckets();
  std::vector<ShardArena>& arenas = pipe_.arenas(B);
  for_each_shard(pool, B, [&](std::size_t b) {
    ShardArena& ar = arenas[b];
    ar.keys.clear();
    for (const std::int32_t j : aggregator.touched(b)) {
      const auto idx = static_cast<std::size_t>(j);
      ar.keys.push_back(make_key(agg[idx], idx));
    }
    if (ar.keys.size() > k) {
      std::nth_element(ar.keys.begin(), ar.keys.begin() + static_cast<std::ptrdiff_t>(k),
                       ar.keys.end(), std::greater<std::uint64_t>());
      ar.keys.resize(k);
    }
    sort_keys_desc(ar.keys, ar.key_scratch);
  });
  const auto merged = pipe_.merge_arena_keys(B, k);

  std::uint32_t* stamp = pipe_.stamp();
  const std::uint32_t in_j = pipe_.next_token();
  out.kind = RoundOutcome::Kind::kSparseUpdate;
  out.validation = vstats;
  out.update.resize(merged.size());
  for (std::size_t p = 0; p < merged.size(); ++p) {
    const std::size_t idx = key_index(merged[p]);
    stamp[idx] = in_j;
    out.update[p] = SparseEntry{static_cast<std::int32_t>(idx), agg[idx]};
  }
  sort_by_index(out.update);

  // Stage: per-client resets + contributions (an uploaded entry resets iff it
  // made the broadcast, i.e. carries the in_j stamp), then payload
  // accounting: parallel uplinks charge the largest actual per-client payload.
  pipe_.build_resets(S, pool, {stamp, in_j}, out);
  pipe_.finish_payload(out);
  return out;
}

}  // namespace fedsparse::sparsify
