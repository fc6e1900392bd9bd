#include "sparsify/topk.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>

#include "sparsify/accumulator.h"
#include "sparsify/keys.h"
#include "tensor/matrix.h"
#include "util/thread_pool.h"
#include "util/vec_ext.h"

namespace fedsparse::sparsify {

namespace {

constexpr std::size_t kSampleSize = 512;

// Below this dimension the prefilter's sampling pass is not worth its scan;
// sorting all D entries is already cheap.
constexpr std::size_t kPrefilterMinDim = 4096;

// Survivor cap of the hinted threshold scan for a depth-k selection.
constexpr std::size_t hint_cap(std::size_t k) { return 8 * k + 64; }

inline SparseEntry entry_at(const float* v, std::size_t i) {
  return SparseEntry{static_cast<std::int32_t>(i), v[i]};
}

// The 31 magnitude bits as three LSD digits: bits 0–9, 10–20 and 21–30. The
// top digit (eight exponent bits and two mantissa bits) also drives the cut
// and the prefilter's sampled threshold.
constexpr unsigned kDigitShift[3] = {0, 10, 21};
constexpr std::uint32_t kDigitMask[3] = {1023, 2047, 1023};
constexpr std::uint32_t kTopDigits = kDigitMask[2] + 1;

inline std::uint32_t digit(const SparseEntry& e, int d) {
  return (key_abs_bits(e.value) >> kDigitShift[d]) & kDigitMask[d];
}
inline std::uint32_t top_digit(float x) { return key_abs_bits(x) >> kDigitShift[2]; }

// Appends every entry in [begin, end) with |v[i]| >= threshold, in index
// order. Returns false (leaving `out` valid but incomplete) as soon as a
// survivor would exceed `cap` — the hinted filter's bail-out.
//
// Vectorized in 16-element strides (util/vec_ext.h): two 8-lane
// compares fold into one survivor bitmask, walked bit-by-bit with ctz, so
// the common no-survivor stride costs two compares and one well-predicted
// branch instead of 16 fabs tests. The |v| >= t predicate is evaluated as
// (v >= t) | (v <= -t) — identical for every float including ±0 (and NaN,
// which fails both forms) — and survivors append in ascending index order
// either way, so the collected sequence matches the scalar loop exactly.
bool threshold_scan_range_append(const float* v, std::size_t begin, std::size_t end,
                                 float threshold, std::size_t cap, SparseVector& out) {
  std::size_t i = begin;
#if FEDSPARSE_VEC_EXT
  namespace vec = util::vec;
  using vec::load8;
  using vec::v8sf;
  const v8sf tv = {threshold, threshold, threshold, threshold,
                   threshold, threshold, threshold, threshold};
  const v8sf ntv = -tv;
  for (; i + 2 * vec::kLanes <= end; i += 2 * vec::kLanes) {
    const v8sf x0 = load8(v + i);
    const v8sf x1 = load8(v + i + vec::kLanes);
    const int m0 = vec::lane_mask((x0 >= tv) | (x0 <= ntv));
    const int m1 = vec::lane_mask((x1 >= tv) | (x1 <= ntv));
    int mask = m0 | (m1 << vec::kLanes);
    while (mask != 0) {
      const auto lane = static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(mask)));
      mask &= mask - 1;
      if (out.size() >= cap) return false;
      out.push_back(entry_at(v, i + lane));
    }
  }
#endif
  for (; i < end; ++i) {
    if (std::fabs(v[i]) >= threshold) {
      if (out.size() >= cap) return false;
      out.push_back(entry_at(v, i));
    }
  }
  return true;
}

// Chunk-pruned threshold scan: chunks whose |v| upper bound is below the
// threshold contain no survivor by construction and cost one compare for
// their kAccumulatorChunk entries. Exact: pruning only skips entries a
// positive threshold already excludes, and surviving chunks are scanned in
// ascending order, so the appended sequence is identical to the dense scan's.
bool threshold_scan_append(std::span<const float> v, std::span<const float> chunk_max,
                           float threshold, std::size_t cap, SparseVector& out) {
  if (chunk_max.empty()) {
    return threshold_scan_range_append(v.data(), 0, v.size(), threshold, cap, out);
  }
  // Pruning policy: the chunk walk only pays when chunks actually skip — at
  // high survivor fractions its data-dependent skip branch mispredicts
  // (~50/50 on a dense Gaussian accumulator with k = D/100, measured +7%
  // per selection) while saving nothing, so a strided sample of the bounds
  // estimates the surviving fraction and sends near-dense vectors down the
  // straight linear scan. Policy only: both paths collect the identical
  // sequence, this picks the cheaper traversal.
  std::size_t sampled = 0, passing = 0;
  for (std::size_t c = 0; c < chunk_max.size(); c += 8) {
    ++sampled;
    passing += chunk_max[c] >= threshold ? 1 : 0;
  }
  if (10 * passing >= 4 * sampled) {
    return threshold_scan_range_append(v.data(), 0, v.size(), threshold, cap, out);
  }
  for (std::size_t c = 0; c < chunk_max.size(); ++c) {
    if (chunk_max[c] < threshold) continue;
    const std::size_t begin = c * kAccumulatorChunk;
    const std::size_t end = std::min(v.size(), begin + kAccumulatorChunk);
    if (!threshold_scan_range_append(v.data(), begin, end, threshold, cap, out)) return false;
  }
  return true;
}

// Estimates an |value| threshold from a strided sample such that roughly
// 2.5*k of the D entries survive, then keeps only entries >= threshold.
// Returns false when fewer than k survive (threshold overshot) — the caller
// falls back to scanning everything. Exactness: if >= k entries pass the
// filter, the k-th largest |v| overall is >= threshold, so every true top-k
// entry passed the filter too.
//
// The threshold is the lowest magnitude in the top digit (see emit_top_k)
// that holds the sample's rank-th entry, found by walking the sample's digit
// histogram down from the top. It sits at most one digit (a quarter binade)
// below the rank-th sampled magnitude, so a few more entries survive than
// aimed for.
bool prefilter(std::span<const float> v, std::size_t k, std::span<const float> chunk_max,
               SparseVector& out) {
  std::uint32_t hist[kTopDigits] = {};
  const std::size_t stride = v.size() / kSampleSize;
  for (std::size_t s = 0; s < kSampleSize; ++s) ++hist[top_digit(v[s * stride])];
  const double frac =
      std::min(1.0, 2.5 * static_cast<double>(k) / static_cast<double>(v.size()));
  const auto rank = std::min<std::size_t>(
      kSampleSize - 1, static_cast<std::size_t>(frac * static_cast<double>(kSampleSize)));
  std::uint32_t d = kTopDigits;
  for (std::size_t seen = 0; seen <= rank;) seen += hist[--d];
  const std::uint32_t bits = d << kDigitShift[2];
  float threshold;
  std::memcpy(&threshold, &bits, sizeof threshold);
  // A zero threshold admits every entry (|v| >= 0 always holds) — e.g. a
  // post-reset accumulator that is mostly exact zeros — silently turning the
  // "prefilter" into a full copy plus a wasted sampling pass. Bail out to the
  // dense path instead.
  if (threshold <= 0.0f) return false;

  out.clear();
  threshold_scan_append(v, chunk_max, threshold, std::numeric_limits<std::size_t>::max(), out);
  if (out.size() >= k) return true;
  out.clear();
  return false;
}

// Threshold scan seeded by the caller's previous k-th magnitude: no sampling
// pass, and a threshold that tracks the true cut instead of aiming at 2.5k
// survivors. The hint is used as-is: accumulated gradients mostly grow
// between rounds, so last round's k-th magnitude usually still admits >= k
// entries, and when it does not (accumulator reset shifted the cut upward,
// or k grew) the sampled prefilter takes over. Loosening the threshold
// instead would drown in the distribution's bulk — on Gaussian-ish tails
// even a 2x margin admits a large fraction of D. The cap bails out when the
// landscape shifted the other way (k shrank a lot). Conservative-exact like
// prefilter(): success requires >= k survivors, which implies every true
// top-k entry passed.
bool hint_filter(std::span<const float> v, std::size_t k, float hint,
                 std::span<const float> chunk_max, SparseVector& out) {
  if (hint <= 0.0f) return false;
  const std::size_t cap = hint_cap(k);
  out.clear();
  if (!threshold_scan_append(v, chunk_max, hint, cap, out)) {
    out.clear();
    return false;
  }
  if (out.size() >= k) return true;
  out.clear();
  return false;
}

// Below this many entries after the cut a comparison sort beats clearing and
// walking the magnitude radix's 3,072 low- and mid-digit counters.
constexpr std::size_t kRadixMinEntries = 256;

inline void put(SparseEntry& slot, const SparseEntry& e) { slot = e; }
inline void put(std::int32_t& slot, const SparseEntry& e) { slot = e.index; }
inline std::size_t index_of(const SparseEntry& e) { return static_cast<std::size_t>(e.index); }
inline std::size_t index_of(std::int32_t i) { return static_cast<std::size_t>(i); }

// Writes the first k entries of the stable |value|-descending order of
// `survivors` to out[0, k). Every collection path appends entries of equal
// |value| in ascending index order, so this is the exact (|v| desc, index asc)
// selection. Needs survivors.size() >= k > 0; clobbers both buffers.
//
// Cut: a histogram of the top digit gives the lowest digit whose count from
// the top reaches k. Every top-k entry has a top digit at or above it, so a
// stable, branch-free compaction drops the rest. Sort: an LSD radix over the
// kept entries orders them on the magnitude alone — the index never needs a
// pass — with buckets laid out in descending digit order and passes whose
// digit is the same for every entry skipped. The last pass scatters straight
// into `out`, keeping only positions below k. Few kept entries take a
// comparison sort instead.
template <class Out>
void emit_top_k(SparseVector& survivors, std::size_t k, SparseVector& scratch, Out& out) {
  out.resize(k);
  const std::size_t n = survivors.size();
  SparseEntry* src = survivors.data();
  std::uint32_t top[kTopDigits] = {};
  std::uint32_t top_max = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t d = digit(src[i], 2);
    ++top[d];
    top_max = std::max(top_max, d);
  }
  std::uint32_t cut = top_max + 1;
  std::size_t m = 0;
  while (m < k) m += top[--cut];
  if (m < n) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const SparseEntry e = src[i];
      src[kept] = e;
      kept += digit(e, 2) >= cut ? 1 : 0;
    }
  }
  if (m < kRadixMinEntries) {
    // Keyed on the position in `src`, which orders ties like the index.
    std::uint64_t keys[kRadixMinEntries];
    for (std::size_t i = 0; i < m; ++i) keys[i] = make_key(src[i].value, i);
    std::sort(keys, keys + m, std::greater<std::uint64_t>());
    for (std::size_t p = 0; p < k; ++p) put(out[p], src[key_index(keys[p])]);
    return;
  }
  std::uint32_t low[1024] = {}, mid[2048] = {};
  for (std::size_t i = 0; i < m; ++i) {
    ++low[digit(src[i], 0)];
    ++mid[digit(src[i], 1)];
  }
  std::uint32_t* const count[3] = {low, mid, top};
  // Only buckets [cut, top_max] of the top digit hold kept entries.
  const std::uint32_t lo_bucket[3] = {0, 0, cut};
  const std::uint32_t hi_bucket[3] = {kDigitMask[0], kDigitMask[1], top_max};
  int active[3];
  int passes = 0;
  for (int d = 0; d < 3; ++d) {
    if (count[d][digit(src[0], d)] != m) active[passes++] = d;
  }
  if (passes > 1) scratch.resize(m);
  SparseEntry* spare = scratch.data();
  for (int a = 0; a < passes; ++a) {
    const int d = active[a];
    std::uint32_t* c = count[d];
    std::uint32_t pos = 0;
    for (std::uint32_t b = hi_bucket[d] + 1; b-- > lo_bucket[d];) {
      const std::uint32_t bucket = c[b];
      c[b] = pos;
      pos += bucket;
    }
    if (a + 1 < passes) {
      for (std::size_t i = 0; i < m; ++i) spare[c[digit(src[i], d)]++] = src[i];
      std::swap(src, spare);
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t p = c[digit(src[i], d)]++;
        if (p < k) put(out[p], src[i]);
      }
      return;
    }
  }
  for (std::size_t p = 0; p < k; ++p) put(out[p], src[p]);  // already in order
}

}  // namespace

// Sorts keys descending: LSD radix, 8-bit digits, buckets laid out in
// reverse digit order each pass (a stable descending pass per byte yields a
// fully descending sequence after the last one). Keys are unique, so the
// result is the exact sequence std::sort(greater<>) produces. Passes whose
// digit is constant across all keys reorder nothing and are skipped. Small
// inputs stay on std::sort: below a few hundred elements the 256-bucket
// bookkeeping costs more than the comparisons. Client selection does not use
// it; its two callers are FAB's fill (fab_topk.cpp) and FUB's per-shard
// candidate runs (fub_topk.cpp), whose keys are not in index order.
void sort_keys_desc(std::vector<std::uint64_t>& keys, std::vector<std::uint64_t>& scratch) {
  constexpr std::size_t kRadixMinSize = 512;
  const std::size_t n = keys.size();
  if (n < kRadixMinSize) {
    std::sort(keys.begin(), keys.end(), std::greater<std::uint64_t>());
    return;
  }
  scratch.resize(n);
  std::uint64_t* src = keys.data();
  std::uint64_t* dst = scratch.data();
  std::size_t count[256];
  for (std::size_t pass = 0; pass < 8; ++pass) {
    const std::size_t shift = pass * 8;
    std::fill(count, count + 256, 0);
    for (std::size_t i = 0; i < n; ++i) ++count[(src[i] >> shift) & 255];
    if (std::any_of(count, count + 256, [n](std::size_t c) { return c == n; })) {
      continue;  // constant digit: a stable pass would copy src verbatim
    }
    std::size_t pos = 0;
    for (std::size_t d = 256; d-- > 0;) {  // descending digit order
      const std::size_t c = count[d];
      count[d] = pos;
      pos += c;
    }
    for (std::size_t i = 0; i < n; ++i) dst[count[(src[i] >> shift) & 255]++] = src[i];
    std::swap(src, dst);
  }
  if (src != keys.data()) std::memcpy(keys.data(), src, n * sizeof(std::uint64_t));
}

namespace {

// Dense fallback when summaries exist: clean chunks (bound 0) hold only
// (±)zeros, so collect every |v| > 0 entry from the dirty chunks first —
// O(dirty) instead of O(D). If fewer than k such entries exist the selection's
// tail is zeros in ascending index order (|0| ties break on index), so the pad
// loop appends the smallest-index zeros after the positives, reading the
// stored value so even a -0.0 entry round-trips bit-for-bit. Zeros sort below
// every positive, so the stable magnitude sort still sees equal magnitudes in
// index order.
void collect_tiered_dense(std::span<const float> v, std::span<const float> chunk_max,
                          std::size_t k, SparseVector& out) {
  out.clear();
  for (std::size_t c = 0; c < chunk_max.size(); ++c) {
    if (chunk_max[c] <= 0.0f) continue;
    const std::size_t begin = c * kAccumulatorChunk;
    const std::size_t end = std::min(v.size(), begin + kAccumulatorChunk);
    for (std::size_t i = begin; i < end; ++i) {
      if (key_abs_bits(v[i]) != 0) out.push_back(entry_at(v.data(), i));
    }
  }
  if (out.size() >= k) return;
  std::size_t need = k - out.size();
  for (std::size_t c = 0; c < chunk_max.size() && need > 0; ++c) {
    const std::size_t begin = c * kAccumulatorChunk;
    const std::size_t end = std::min(v.size(), begin + kAccumulatorChunk);
    for (std::size_t i = begin; i < end && need > 0; ++i) {
      if (key_abs_bits(v[i]) == 0) {
        out.push_back(entry_at(v.data(), i));
        --need;
      }
    }
  }
}

// Writes the k strongest entries of v to `out`, strongest first.
template <class Out>
void select(std::span<const float> v, std::span<const float> chunk_max, std::size_t k,
            TopKWorkspace& ws, Out& out) {
  if (!chunk_max.empty() && chunk_max.size() != accumulator_chunks(v.size())) {
    throw std::invalid_argument("top_k: chunk summary size does not cover the vector");
  }
  k = std::min(k, v.size());
  SparseVector& survivors = ws.survivors;
  survivors.clear();
  if (k == 0) {
    out.clear();
    return;
  }

  bool hint_ok = false;
  bool filtered = false;
  if (k < v.size() && v.size() >= kPrefilterMinDim) {
    hint_ok = hint_filter(v, k, ws.threshold_hint, chunk_max, survivors);
    filtered = hint_ok || prefilter(v, k, chunk_max, survivors);
  }
  if (!filtered) {
    if (!chunk_max.empty()) {
      collect_tiered_dense(v, chunk_max, k, survivors);
    } else {
      for (std::size_t i = 0; i < v.size(); ++i) survivors.push_back(entry_at(v.data(), i));
    }
  }
  emit_top_k(survivors, k, ws.scratch, out);
  // Replace the hint when this selection is at least as deep as the one that
  // produced it, or when the stored hint just failed (it drifted stale — low
  // thresholds self-correct here after a cap bail-out). A successful
  // shallower pass keeps the deeper hint intact. (The k'-probe never gets
  // here: it reuses prefixes of the round's selection.)
  if (!hint_ok || k >= ws.hint_k) {
    ws.threshold_hint = std::fabs(v[index_of(out.back())]);
    ws.hint_k = k;
  }
}

}  // namespace

void top_k_entries(std::span<const float> v, std::size_t k, TopKWorkspace& ws, SparseVector& out) {
  select(v, /*chunk_max=*/{}, k, ws, out);
}

void top_k_entries(std::span<const float> v, std::span<const float> chunk_max, std::size_t k,
                   TopKWorkspace& ws, SparseVector& out) {
  select(v, chunk_max, k, ws, out);
}

void top_k_indices(std::span<const float> v, std::size_t k, TopKWorkspace& ws,
                   std::vector<std::int32_t>& out) {
  select(v, /*chunk_max=*/{}, k, ws, out);
}
void top_k_uploads_fleet(const std::vector<std::span<const float>>& vecs,
                         const std::vector<std::span<const float>>& chunk_maxes, std::size_t k,
                         std::span<const std::size_t> ids,
                         std::vector<TopKWorkspace>& slot_workspaces,
                         std::vector<ClientHint>& hints, std::vector<SparseVector>& uploads) {
  const std::size_t n = vecs.size();
  if (!chunk_maxes.empty() && chunk_maxes.size() != n) {
    throw std::invalid_argument("top_k_uploads_fleet: chunk_maxes size mismatch");
  }
  uploads.resize(n);  // shrink-to-n keeps callers' per-client views exact
  std::size_t hints_needed = n;
  for (const std::size_t id : ids) hints_needed = std::max(hints_needed, id + 1);
  if (hints.size() < hints_needed) hints.resize(hints_needed);
  util::ThreadPool* pool = tensor::parallel_pool();
  const std::size_t slots = pool != nullptr ? pool->slot_count() : 1;
  if (slot_workspaces.size() < slots) slot_workspaces.resize(slots);
  const auto select_slot = [&](std::size_t s) {
    // The workspace is pure scratch except for (threshold_hint, hint_k);
    // round-tripping that pair through the per-client store makes every
    // client's selection independent of which slot workspace ran it.
    TopKWorkspace& ws = slot_workspaces[pool != nullptr ? pool->current_slot() : 0];
    ClientHint& hint = hints[ids.empty() ? s : ids[s]];
    ws.threshold_hint = hint.threshold;
    ws.hint_k = hint.k;
    top_k_entries(vecs[s], chunk_maxes.empty() ? std::span<const float>{} : chunk_maxes[s], k,
                  ws, uploads[s]);
    hint.threshold = ws.threshold_hint;
    hint.k = static_cast<std::uint32_t>(ws.hint_k);
  };
  // Below ~64k total elements the pool dispatch costs more than the
  // selections; the FAB round this threads (N=10, D=128k) is far above it.
  constexpr std::size_t kParallelElemThreshold = 1u << 16;
  std::size_t total = 0;
  for (const auto& v : vecs) total += v.size();
  if (pool != nullptr && pool->size() > 1 && n > 1 && total >= kParallelElemThreshold) {
    pool->parallel_for(n, select_slot, /*grain=*/1);
  } else {
    for (std::size_t s = 0; s < n; ++s) select_slot(s);
  }
}

std::vector<std::int32_t> top_k_indices(std::span<const float> v, std::size_t k) {
  TopKWorkspace ws;
  std::vector<std::int32_t> out;
  top_k_indices(v, k, ws, out);
  return out;
}

SparseVector top_k_entries(std::span<const float> v, std::size_t k) {
  TopKWorkspace ws;
  SparseVector out;
  top_k_entries(v, k, ws, out);
  return out;
}

SparseVector top_k_entries_heap(std::span<const float> v, std::size_t k) {
  struct HeapItem {
    float abs_value;
    std::int32_t index;
  };
  // Min-heap ordering on (abs_value asc, index desc) so the weakest element —
  // the one a stronger candidate should evict — sits at the top.
  const auto stronger = [](const HeapItem& a, const HeapItem& b) {
    if (a.abs_value != b.abs_value) return a.abs_value > b.abs_value;
    return a.index < b.index;
  };
  k = std::min(k, v.size());
  std::vector<HeapItem> heap;
  SparseVector out;
  if (k == 0) return out;
  heap.reserve(k);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const float av = std::fabs(v[i]);
    const HeapItem item{av, static_cast<std::int32_t>(i)};
    if (heap.size() < k) {
      heap.push_back(item);
      std::push_heap(heap.begin(), heap.end(), stronger);
    } else if (stronger(item, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), stronger);
      heap.back() = item;
      std::push_heap(heap.begin(), heap.end(), stronger);
    }
  }
  std::sort(heap.begin(), heap.end(), [&](const HeapItem& a, const HeapItem& b) {
    if (a.abs_value != b.abs_value) return a.abs_value > b.abs_value;
    return a.index < b.index;
  });
  out.resize(heap.size());
  for (std::size_t i = 0; i < heap.size(); ++i) {
    out[i] = SparseEntry{heap[i].index, v[static_cast<std::size_t>(heap[i].index)]};
  }
  return out;
}

}  // namespace fedsparse::sparsify
