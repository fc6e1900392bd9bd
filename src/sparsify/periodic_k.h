// Periodic-k GS (baseline, refs [8],[30]): a random set of k coordinates is
// aggregated each round, cycling through a shuffled permutation of all D
// coordinates so that every element is aggregated at least once per ⌈D/k⌉
// rounds ("periodic averaging").
//
// Communication accounting note: because the selection is pseudo-random the
// indices could in principle be derived from a shared seed, halving the
// payload; we charge the full 2k index/value cost like the other GS methods
// so that all k-element schemes are compared at equal per-round budget —
// matching the paper's Fig. 4 setup.
#pragma once

#include "sparsify/method.h"

namespace fedsparse::sparsify {

class PeriodicK final : public Method {
 public:
  PeriodicK(std::size_t dim, std::uint64_t seed);

  std::string name() const override { return "periodic"; }
  RoundOutcome round(const RoundInput& in, std::size_t k) override;

  /// The k′ probe: aggregates the first k coordinates of the last round's
  /// selection in permutation order — a prefix of the round just run — and
  /// leaves the permutation pass untouched. Empty before the first round.
  RoundOutcome probe_round(const RoundInput& in, std::size_t k) override;

 private:
  RoundOutcome aggregate(const RoundInput& in, std::span<const std::int32_t> selected) const;
  void reshuffle();

  std::size_t dim_;
  util::Rng rng_;
  std::vector<std::int32_t> permutation_;
  std::size_t cursor_ = 0;
  std::vector<std::int32_t> selected_;  // last round's coordinates, permutation order
};

}  // namespace fedsparse::sparsify
