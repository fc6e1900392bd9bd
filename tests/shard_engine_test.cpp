// Property tests for the sharded round engine's building blocks: the
// k-bounded keyed tree merge must reproduce the global top-k of the union of
// per-shard top-k runs (including ties and index order), and the shard plan
// must stay a balanced contiguous partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sparsify/keys.h"
#include "sparsify/shard_engine.h"
#include "util/rng.h"

namespace fedsparse::sparsify {
namespace {

std::vector<float> random_values(std::size_t n, util::Rng& rng, double zero_prob = 0.3) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.bernoulli(zero_prob) ? 0.0f : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return v;
}

// Global reference: all keys of v, sorted by the total (|v| desc, idx asc)
// order, truncated to k.
std::vector<std::uint64_t> global_topk_keys(const std::vector<float>& v, std::size_t k) {
  std::vector<std::uint64_t> keys;
  keys.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) keys.push_back(make_key(v[i], i));
  std::sort(keys.begin(), keys.end(), std::greater<std::uint64_t>());
  if (keys.size() > k) keys.resize(k);
  return keys;
}

// ---------------- keyed tree merge ------------------------------------------

TEST(KeyMergeTest, MergedShardTopKEqualsGlobalTopK) {
  // Any global-top-k element is inside its own shard's top-k, so merging the
  // per-shard top-k runs and keeping k must equal the global top-k — for any
  // partition, any shard count, any k.
  util::Rng rng(42);
  for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u, 16u}) {
      for (const std::size_t k : {1u, 5u, 32u, 2000u}) {
        const auto v = random_values(n, rng);
        const ShardPlan plan = make_shard_plan(n, shards);
        std::vector<std::vector<std::uint64_t>> runs(plan.shards());
        for (std::size_t s = 0; s < plan.shards(); ++s) {
          for (std::size_t i = plan.begin(s); i < plan.end(s); ++i) {
            runs[s].push_back(make_key(v[i], i));
          }
          std::sort(runs[s].begin(), runs[s].end(), std::greater<std::uint64_t>());
          if (runs[s].size() > k) runs[s].resize(k);
        }
        const auto merged = merge_topk_sorted_runs(runs, k);
        const auto ref = global_topk_keys(v, k);
        ASSERT_EQ(merged, ref) << "n=" << n << " shards=" << shards << " k=" << k;
      }
    }
  }
}

TEST(KeyMergeTest, TiedMagnitudesMergeInIndexOrder) {
  // Equal |value| across indices must come out ascending by index — the key
  // encoding's complemented low word — regardless of which shard holds which.
  std::vector<float> v(40, 0.0f);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = (i % 2 == 0) ? 0.5f : -0.5f;
  std::vector<std::vector<std::uint64_t>> runs(4);
  for (std::size_t i = 0; i < v.size(); ++i) runs[i % 4].push_back(make_key(v[i], i));
  for (auto& r : runs) std::sort(r.begin(), r.end(), std::greater<std::uint64_t>());
  const auto merged = merge_topk_sorted_runs(runs, 10);
  ASSERT_EQ(merged.size(), 10u);
  for (std::size_t p = 0; p < merged.size(); ++p) {
    EXPECT_EQ(key_index(merged[p]), p) << "tie order broken at position " << p;
  }
}

TEST(KeyMergeTest, EmptyAndAllZeroRunsAreHarmless) {
  const auto none = merge_topk_sorted_runs({}, 5);
  EXPECT_TRUE(none.empty());
  const auto empties = merge_topk_sorted_runs({{}, {}, {}}, 5);
  EXPECT_TRUE(empties.empty());
  // One real run among empties — any k cap, including k > total.
  std::vector<std::uint64_t> run = {make_key(2.0f, 3), make_key(1.0f, 1)};
  const auto merged = merge_topk_sorted_runs({{}, run, {}}, 99);
  EXPECT_EQ(merged, run);
}

TEST(KeyMergeTest, MergerReuseAcrossDifferentRunCounts) {
  // The KeyMerger's per-level buffers are reused across calls with varying
  // run counts (odd counts carry a run across levels — the aliasing trap).
  util::Rng rng(7);
  KeyMerger merger;
  for (const std::size_t shards : {5u, 2u, 9u, 16u, 3u, 1u}) {
    const std::size_t n = 200;
    const auto v = random_values(n, rng);
    const ShardPlan plan = make_shard_plan(n, shards);
    std::vector<std::vector<std::uint64_t>> owned(plan.shards());
    std::vector<std::span<const std::uint64_t>> runs;
    for (std::size_t s = 0; s < plan.shards(); ++s) {
      for (std::size_t i = plan.begin(s); i < plan.end(s); ++i) {
        owned[s].push_back(make_key(v[i], i));
      }
      std::sort(owned[s].begin(), owned[s].end(), std::greater<std::uint64_t>());
      runs.push_back({owned[s].data(), owned[s].size()});
    }
    std::vector<std::uint64_t> out;
    merger.merge({runs.data(), runs.size()}, 25, out);
    EXPECT_EQ(out, global_topk_keys(v, 25)) << "shards=" << shards;
  }
}

// ---------------- shard plan -------------------------------------------------

TEST(ShardPlanTest, BalancedContiguousPartition) {
  for (const std::size_t n : {0u, 1u, 2u, 7u, 100u, 1001u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u, 200u}) {
      const ShardPlan plan = make_shard_plan(n, shards);
      ASSERT_GE(plan.shards(), 1u);
      EXPECT_LE(plan.shards(), std::max<std::size_t>(1, std::min(shards, std::max<std::size_t>(1, n))));
      EXPECT_EQ(plan.begin(0), 0u);
      EXPECT_EQ(plan.end(plan.shards() - 1), n);
      std::size_t lo = n, hi = 0;
      for (std::size_t s = 0; s < plan.shards(); ++s) {
        ASSERT_LE(plan.begin(s), plan.end(s));
        const std::size_t size = plan.end(s) - plan.begin(s);
        lo = std::min(lo, size);
        hi = std::max(hi, size);
        if (s + 1 < plan.shards()) ASSERT_EQ(plan.end(s), plan.begin(s + 1));
      }
      if (n > 0) EXPECT_LE(hi - lo, 1u) << "n=" << n << " shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace fedsparse::sparsify
