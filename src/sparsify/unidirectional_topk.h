// Unidirectional top-k GS (baseline, ref [22] — Deep Gradient Compression).
//
// Clients upload their top-k; the server aggregates and broadcasts the whole
// union, which can be as large as k·N elements — the downlink blow-up that
// motivates bidirectional schemes.
//
// Shared stages live in TopKMethod; nothing here is selective, so choose()
// keeps everything (broadcast the whole aggregated union).
#pragma once

#include "sparsify/topk_method.h"

namespace fedsparse::sparsify {

class UnidirectionalTopK final : public TopKMethod {
 public:
  explicit UnidirectionalTopK(std::size_t dim) : TopKMethod(dim) {}

  std::string name() const override { return "unidirectional_topk"; }

 private:
  void choose(const Pass& p, RoundOutcome& out) override;
};

}  // namespace fedsparse::sparsify
