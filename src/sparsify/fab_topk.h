// FAB-top-k: fairness-aware bidirectional top-k gradient sparsification.
//
// The paper's first contribution (Section III-B, Algorithm 1). Each client
// uploads the top-k entries of its accumulated gradient; the server selects
// exactly k downlink elements such that every client contributes at least
// ⌊k/N⌋ of them:
//
//   1. binary-search the largest per-client prefix length κ with
//      |∪_i J_i^κ| ≤ k  (J_i^κ = client i's κ strongest uploaded indices);
//   2. J ← ∪_i J_i^κ, then fill up to k with the strongest entries of
//      (∪_i J_i^{κ+1}) \ J;
//   3. aggregate b_j = Σ_i (C_i/C)·a_ij·1[j ∈ J_i] for j ∈ J;
//   4. clients reset accumulated entries j ∈ J ∩ J_i.
//
// Fairness guarantee: κ never drops below ⌊k/N⌋ because N·⌊k/N⌋ ≤ k.
//
// The shared stages (selection, screening, aggregation arena, shard scratch,
// reset builder, payload accounting) live in TopKMethod; this class owns
// only the FAB-specific choose(): the κ search and the fill.
#pragma once

#include "sparsify/topk_method.h"

namespace fedsparse::sparsify {

class FabTopK final : public TopKMethod {
 public:
  explicit FabTopK(std::size_t dim) : TopKMethod(dim) {}

  std::string name() const override { return "fab_topk"; }

  /// Reference κ search (hash-set based binary search), exposed for unit
  /// tests: given per-client uploads sorted strongest-first, returns the
  /// largest κ ∈ [0, k] with |∪_i J_i^κ| ≤ k. choose() computes the same κ
  /// from a merged per-index prefix-depth histogram.
  static std::size_t find_kappa(const std::vector<SparseVector>& uploads, std::size_t k);

 private:
  void choose(const Pass& p, RoundOutcome& out) override;

  // FAB-specific per-round scratch (reused; steady-state rounds allocate
  // nothing): the selected downlink set J, the union-growth histogram of the
  // κ search, and the merged per-index min prefix depths.
  std::vector<std::int32_t> selected_;
  std::vector<std::size_t> union_growth_;
  std::vector<std::uint32_t> depth_;         // global min prefix depth per index
  std::vector<std::int32_t> touched_union_;  // indices seen by any shard
};

}  // namespace fedsparse::sparsify
