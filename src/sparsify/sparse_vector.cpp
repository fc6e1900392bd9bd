#include "sparsify/sparse_vector.h"

#include <algorithm>
#include <stdexcept>

namespace fedsparse::sparsify {

std::vector<float> to_dense(const SparseVector& sv, std::size_t dim) {
  std::vector<float> out(dim, 0.0f);
  for (const auto& e : sv) {
    if (e.index < 0 || static_cast<std::size_t>(e.index) >= dim) {
      throw std::out_of_range("to_dense: index out of range");
    }
    out[static_cast<std::size_t>(e.index)] += e.value;
  }
  return out;
}

void axpy_sparse(float alpha, const SparseVector& sv, std::span<float> dst) {
  for (const auto& e : sv) {
    dst[static_cast<std::size_t>(e.index)] += alpha * e.value;
  }
}

void sort_by_index(SparseVector& sv) {
  std::sort(sv.begin(), sv.end(),
            [](const SparseEntry& a, const SparseEntry& b) { return a.index < b.index; });
}

SparseVector sparse_subtract(const SparseVector& a, const SparseVector& b) {
  SparseVector out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].index < b[j].index)) {
      out.push_back(a[i++]);
    } else if (i >= a.size() || b[j].index < a[i].index) {
      out.push_back(SparseEntry{b[j].index, -b[j].value});
      ++j;
    } else {
      const float d = a[i].value - b[j].value;
      if (d != 0.0f) out.push_back(SparseEntry{a[i].index, d});
      ++i;
      ++j;
    }
  }
  return out;
}

}  // namespace fedsparse::sparsify
