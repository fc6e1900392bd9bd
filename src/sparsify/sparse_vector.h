// Sparse gradient representation: (index, value) pairs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fedsparse::sparsify {

struct SparseEntry {
  std::int32_t index = 0;
  float value = 0.0f;

  friend bool operator==(const SparseEntry&, const SparseEntry&) = default;
};

using SparseVector = std::vector<SparseEntry>;

/// Scatters `sv` into a dense vector of dimension `dim` (unset entries zero).
/// Duplicate-index contract: repeated indices ACCUMULATE (`+=`), matching
/// axpy_sparse — a duplicated entry contributes every occurrence, none are
/// silently dropped.
std::vector<float> to_dense(const SparseVector& sv, std::size_t dim);

/// dst[j] += alpha * value for each (j, value) in sv.
void axpy_sparse(float alpha, const SparseVector& sv, std::span<float> dst);

/// Sorts entries by index ascending (canonical order for comparison).
void sort_by_index(SparseVector& sv);

/// a − b over the union of indices; both inputs must be sorted by index.
/// Entries whose difference is exactly zero are dropped. Used to derive the
/// k'-element probe update from the k-element one (w' = w + η·(a − b) terms).
SparseVector sparse_subtract(const SparseVector& a, const SparseVector& b);

}  // namespace fedsparse::sparsify
