// FUB-top-k: fairness-unaware bidirectional top-k (baseline, refs [28],[31]).
//
// Identical uplink to FAB-top-k, but the server simply keeps the k
// largest-|aggregate| indices among everything uploaded — no per-client
// guarantee, so clients whose gradients are small can be excluded entirely
// (the bias FAB-top-k exists to prevent; see Fig. 4 right).
//
// Shared stages live in TopKMethod; this class owns only the FUB-specific
// choose(): top-k over the aggregated union.
#pragma once

#include "sparsify/topk_method.h"

namespace fedsparse::sparsify {

class FubTopK final : public TopKMethod {
 public:
  explicit FubTopK(std::size_t dim) : TopKMethod(dim) {}

  std::string name() const override { return "fub_topk"; }

 private:
  void choose(const Pass& p, RoundOutcome& out) override;
};

}  // namespace fedsparse::sparsify
