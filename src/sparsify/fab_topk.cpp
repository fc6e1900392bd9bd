#include "sparsify/fab_topk.h"

#include <algorithm>
#include <unordered_set>

#include "sparsify/keys.h"
#include "sparsify/topk.h"

namespace fedsparse::sparsify {

std::size_t FabTopK::find_kappa(const std::vector<SparseVector>& uploads, std::size_t k) {
  // |∪_i J_i^κ| is nondecreasing in κ, so binary search works. Evaluating the
  // union size at κ costs O(N·κ) with a hash set.
  const auto union_size = [&uploads](std::size_t kappa) {
    std::unordered_set<std::int32_t> seen;
    for (const auto& up : uploads) {
      const std::size_t take = std::min(kappa, up.size());
      for (std::size_t j = 0; j < take; ++j) seen.insert(up[j].index);
    }
    return seen.size();
  };
  std::size_t lo = 0, hi = k;  // invariant: union_size(lo) <= k
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (union_size(mid) <= k) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

// J at any shard count S (S = 1 included): every O(N·k) server pass
// is split into per-shard arena passes over a contiguous client partition
// plus a fixed-order serial combine, so the outcome does not depend on S.
//
//  * κ — an index's prefix depth is the smallest j at which any client
//    uploads it as its (j+1)-th strongest entry; |∪_i J_i^κ| counts the
//    indices with depth < κ. Per-shard minima min-merged in fixed shard
//    order give each index's global depth (min is commutative/associative),
//    a histogram over depths gives every union size at once, and a
//    prefix-sum walk returns the largest κ with size ≤ k — the same κ as the
//    binary search of find_kappa.
//  * J — {depth < κ}, read off the merged depth map. Its order is never
//    observable: the update is index-sorted at the end and resets /
//    contributions test only membership.
//  * Fill — the (κ+1)-th candidates not already in J, strongest first by
//    (|v| desc, index asc), first occurrence of each index, until |J| = k.
//    Per-shard: radix-sort the shard's candidates as 64-bit keys (the same
//    total order), dedup within the shard (a dropped duplicate is weaker than
//    an earlier same-index key, so the walk would skip it anyway) and
//    truncate to the fill quota f = k − |J| (an entry below f distinct
//    stronger in-shard candidates has ≥ f distinct stronger candidates
//    globally and can never be chosen). Tree-merging the runs restores the
//    global candidate order for the final walk.
//  * Aggregation / resets — BucketAggregator reproduces the client-major
//    float addition sequence per index (see shard_engine.h); CsrResetBuilder
//    emits the client-major reset lists over a contiguous partition. The
//    builder runs FIRST: the aggregator re-stamps J's entries with its touch
//    token, consuming the in_j membership the filter reads.
void FabTopK::choose(const Pass& p, RoundOutcome& out) {
  const std::size_t dim = this->dim();
  const std::size_t k = p.k;
  const std::size_t S = p.plan.shards();
  const std::vector<SparseVector>& uploads = this->uploads();

  // Per-shard min prefix depth of every index the shard saw.
  std::vector<ShardArena>& arenas = this->arenas(S);
  for_each_shard(p.pool, S, [&](std::size_t s) {
    ShardArena& ar = arenas[s];
    const std::uint32_t tok = ar.begin_pass(dim);
    ar.touched.clear();
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t i = p.plan.begin(s); i < p.plan.end(s); ++i) {
        const auto& up = uploads[i];
        if (up.size() <= j) continue;
        const auto idx = static_cast<std::size_t>(up[j].index);
        if (ar.stamp[idx] != tok) {
          ar.stamp[idx] = tok;
          ar.aux[idx] = static_cast<std::uint32_t>(j);
          ar.touched.push_back(up[j].index);
        }
      }
    }
  });

  // Fixed-order min-merge into the global depth map, then the growth
  // histogram walk: union_growth_[j] counts the indices first appearing at
  // prefix depth j+1.
  if (depth_.size() < dim) depth_.resize(dim, 0);
  std::uint32_t* stamp = this->stamp();
  const std::uint32_t seen = next_token();
  touched_union_.clear();
  for (std::size_t s = 0; s < S; ++s) {
    const ShardArena& ar = arenas[s];
    for (const std::int32_t j : ar.touched) {
      const auto idx = static_cast<std::size_t>(j);
      const std::uint32_t d = ar.aux[idx];
      if (stamp[idx] != seen) {
        stamp[idx] = seen;
        depth_[idx] = d;
        touched_union_.push_back(j);
      } else if (d < depth_[idx]) {
        depth_[idx] = d;
      }
    }
  }
  union_growth_.assign(k, 0);
  for (const std::int32_t j : touched_union_) {
    ++union_growth_[depth_[static_cast<std::size_t>(j)]];
  }
  std::size_t size = 0, kappa = 0;
  for (std::size_t j = 0; j < k; ++j) {
    size += union_growth_[j];
    if (size > k) break;
    kappa = j + 1;
  }

  const std::uint32_t in_j = next_token();
  selected_.clear();
  for (const std::int32_t j : touched_union_) {
    const auto idx = static_cast<std::size_t>(j);
    if (depth_[idx] < kappa) {
      stamp[idx] = in_j;
      selected_.push_back(j);
    }
  }

  if (selected_.size() < k) {
    const std::size_t need = k - selected_.size();
    for_each_shard(p.pool, S, [&](std::size_t s) {
      ShardArena& ar = arenas[s];
      ar.keys.clear();
      for (std::size_t i = p.plan.begin(s); i < p.plan.end(s); ++i) {
        const auto& up = uploads[i];
        if (up.size() > kappa) {
          const auto& e = up[kappa];
          if (stamp[static_cast<std::size_t>(e.index)] != in_j) {
            ar.keys.push_back(make_key(e.value, static_cast<std::size_t>(e.index)));
          }
        }
      }
      sort_keys_desc(ar.keys, ar.key_scratch);
      const std::uint32_t tok = ar.begin_pass(dim);
      std::size_t kept = 0;
      for (const std::uint64_t key : ar.keys) {
        const std::size_t idx = key_index(key);
        if (ar.stamp[idx] == tok) continue;
        ar.stamp[idx] = tok;
        ar.keys[kept++] = key;
        if (kept == need) break;
      }
      ar.keys.resize(kept);
    });
    std::size_t total_fill = 0;
    for (std::size_t s = 0; s < S; ++s) total_fill += arenas[s].keys.size();
    const auto merged = merge_arena_keys(S, total_fill);
    for (const std::uint64_t key : merged) {
      if (selected_.size() >= k) break;
      const std::size_t idx = key_index(key);
      if (stamp[idx] != in_j) {
        stamp[idx] = in_j;
        selected_.push_back(static_cast<std::int32_t>(idx));
      }
    }
  }

  const BucketAggregator::Filter filter{stamp, in_j};
  build_resets(p, filter, out);
  aggregate(p, filter, out);

  // Buckets are ascending disjoint index ranges, so per-bucket index sorts
  // concatenate into the globally index-sorted update. Every j ∈ J has at
  // least one uploader (prefix members and fill candidates both come from
  // uploads), so the aggregated set IS J.
  emit_update_from_buckets(p, out);
}

}  // namespace fedsparse::sparsify
