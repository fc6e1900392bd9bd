#include "sparsify/fub_topk.h"

#include <algorithm>
#include <functional>

#include "sparsify/keys.h"
#include "sparsify/topk.h"

namespace fedsparse::sparsify {

// J at any shard count: aggregate everything uploaded, then keep the
// top-k indices by (|aggregate| desc, index asc) — exactly the 64-bit key
// order on (agg value, index), and the per-index keys are unique. So:
// bucketed aggregation (bit-identical sums at every shard count, see
// shard_engine.h), per-bucket partial top-k via nth_element + radix sort, and
// a k-bounded tree merge of the runs. The merged run is the global top-k set;
// the update is re-sorted by index, and resets / contributions consume only
// set membership.
void FubTopK::choose(const Pass& p, RoundOutcome& out) {
  const std::size_t k = p.k;
  const BucketAggregator& aggregator = aggregate(p, /*f=*/{}, out);
  float* agg = this->agg();

  const std::size_t B = aggregator.buckets();
  std::vector<ShardArena>& arenas = this->arenas(B);
  for_each_shard(p.pool, B, [&](std::size_t b) {
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
  const auto merged = merge_arena_keys(B, k);

  std::uint32_t* stamp = this->stamp();
  const std::uint32_t in_j = next_token();
  out.update.resize(merged.size());
  for (std::size_t pos = 0; pos < merged.size(); ++pos) {
    const std::size_t idx = key_index(merged[pos]);
    stamp[idx] = in_j;
    out.update[pos] = SparseEntry{static_cast<std::int32_t>(idx), agg[idx]};
  }
  sort_by_index(out.update);

  // Stage: per-client resets + contributions (an uploaded entry resets iff it
  // made the broadcast, i.e. carries the in_j stamp).
  build_resets(p, {stamp, in_j}, out);
}

}  // namespace fedsparse::sparsify
