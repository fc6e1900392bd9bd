#include "sparsify/periodic_k.h"

#include <algorithm>

namespace fedsparse::sparsify {

PeriodicK::PeriodicK(std::size_t dim, std::uint64_t seed) : dim_(dim), rng_(seed) {
  permutation_.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) permutation_[i] = static_cast<std::int32_t>(i);
  reshuffle();
}

void PeriodicK::reshuffle() {
  rng_.shuffle(permutation_);
  cursor_ = 0;
}

RoundOutcome PeriodicK::probe_round(const RoundInput& in, std::size_t k) {
  validate_round_input(in);
  k = std::min(std::clamp<std::size_t>(k, 1, dim_), selected_.size());
  return aggregate(in, {selected_.data(), k});
}

RoundOutcome PeriodicK::round(const RoundInput& in, std::size_t k) {
  validate_round_input(in);
  k = std::clamp<std::size_t>(k, 1, dim_);

  // Next k coordinates of the current permutation pass; reshuffle on wrap so
  // each pass visits every coordinate exactly once.
  selected_.clear();
  while (selected_.size() < k) {
    if (cursor_ >= dim_) reshuffle();
    const std::size_t take = std::min(k - selected_.size(), dim_ - cursor_);
    selected_.insert(selected_.end(), permutation_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                     permutation_.begin() + static_cast<std::ptrdiff_t>(cursor_ + take));
    cursor_ += take;
  }
  return aggregate(in, selected_);
}

RoundOutcome PeriodicK::aggregate(const RoundInput& in,
                                  std::span<const std::int32_t> selected) const {
  const std::size_t n = in.client_vectors.size();
  RoundOutcome out;
  out.kind = RoundOutcome::Kind::kSparseUpdate;
  out.update.reserve(selected.size());
  for (const std::int32_t j : selected) {
    double b = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      b += in.data_weights[i] *
           static_cast<double>(in.client_vectors[i][static_cast<std::size_t>(j)]);
    }
    out.update.push_back(SparseEntry{j, static_cast<float>(b)});
  }
  sort_by_index(out.update);

  // Every client's value for every selected coordinate was aggregated: one
  // shared list serves all n participants instead of n copies of it.
  out.reset_kind = RoundOutcome::ResetKind::kUniform;
  out.uniform_reset.assign(selected.begin(), selected.end());
  out.contributed.assign(n, selected.size());
  out.uplink_values = 2.0 * static_cast<double>(selected.size());
  out.downlink_values = 2.0 * static_cast<double>(selected.size());
  return out;
}

}  // namespace fedsparse::sparsify
