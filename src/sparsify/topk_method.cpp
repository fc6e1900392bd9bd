#include "sparsify/topk_method.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sparsify/accumulator.h"
#include "tensor/matrix.h"
#include "util/contracts.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace fedsparse::sparsify {

#ifdef FEDSPARSE_CONTRACTS
namespace {

// Selection-layer invariants, checked on every emitted upload before the
// tamper seam can legitimately break them: indices in [0, D) with no
// duplicates, and — when the caller provided accumulator chunk summaries —
// every uploaded |value| within its chunk's max-|a| bound (the bound the
// chunk-pruned scans rely on for exactness).
void check_selected_uploads(const RoundInput& in, const std::vector<SparseVector>& uploads,
                            std::size_t dim) {
  std::vector<std::int32_t> sorted;
  for (std::size_t s = 0; s < uploads.size(); ++s) {
    sorted.clear();
    const std::span<const float> chunk_max =
        in.client_chunk_max.empty() ? std::span<const float>{} : in.client_chunk_max[s];
    for (const auto& e : uploads[s]) {
      FEDSPARSE_CONTRACT(e.index >= 0 && static_cast<std::size_t>(e.index) < dim,
                         "selection emitted an out-of-bounds index");
      if (!chunk_max.empty()) {
        const std::size_t c = static_cast<std::size_t>(e.index) / kAccumulatorChunk;
        FEDSPARSE_CONTRACT(c < chunk_max.size() && std::abs(e.value) <= chunk_max[c],
                           "chunk max-|a| summary does not bound an uploaded value");
      }
      sorted.push_back(e.index);
    }
    std::sort(sorted.begin(), sorted.end());
    FEDSPARSE_CONTRACT(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                       "selection emitted a duplicate index");
  }
}

}  // namespace
#endif

TopKMethod::TopKMethod(std::size_t dim) : dim_(dim), agg_(dim, 0.0f), stamp_(dim, 0) {}

float TopKMethod::upload_threshold_hint(std::size_t client_id, std::size_t k) const {
  if (client_id >= hints_.size()) return 0.0f;
  const ClientHint& hint = hints_[client_id];
  return hint_compatible(hint.k, k) ? hint.threshold : 0.0f;
}

RoundOutcome TopKMethod::round(const RoundInput& in, std::size_t k) {
  validate_round_input(in);
  k = std::clamp<std::size_t>(k, 1, dim_);
  // Stage: client-side top-k of the accumulated gradient, strongest first.
  select_uploads(in, k);
  return finish_round(in, k, /*book=*/true);
}

RoundOutcome TopKMethod::probe_round(const RoundInput& in, std::size_t k) {
  validate_round_input(in);
  k = std::clamp<std::size_t>(k, 1, dim_);
  take_prefixes(in, k);
  return finish_round(in, k, /*book=*/false);
}

RoundOutcome TopKMethod::finish_round(const RoundInput& in, std::size_t k, bool book) {
  // Stage: screen the uploads before anything server-side reads them — a
  // poisoned payload must not reach the κ search, let alone the arena.
  RoundOutcome out;
  const std::span<const double> weights = screen_uploads(in, book, out.validation);
  if (out.validation.degraded) {
    // Degraded round: empty update, no resets, all-zero contributions. The
    // engine holds weights and every client keeps its accumulated mass.
    out.reset_kind = RoundOutcome::ResetKind::kNone;
    out.contributed.assign(in.client_vectors.size(), 0);
  } else {
    choose({in, k, make_shard_plan(in.client_vectors.size(), shards_), tensor::parallel_pool(),
            weights, book},
           out);
  }

  // Stage: payload accounting. Clients transmit in parallel, so the round
  // waits on the largest actual per-client payload, not a flat 2k; the full
  // per-client distribution feeds the heterogeneous network model.
  finish_payload(out);
  return out;
}

void TopKMethod::select_uploads(const RoundInput& in, std::size_t k) {
  FEDSPARSE_SPAN("pipeline_select");
  const bool kept = in.tamper != nullptr || validator_.enabled();
  std::vector<SparseVector>& selected = kept ? selection_ : uploads_;
  top_k_uploads_fleet(in.client_vectors, in.client_chunk_max, k, in.client_ids, slot_ws_, hints_,
                      selected);
#ifdef FEDSPARSE_CONTRACTS
  check_selected_uploads(in, selected, dim_);
#endif
  if (kept) {
    uploads_.resize(selected.size());
    for (std::size_t s = 0; s < selected.size(); ++s) {
      uploads_[s].assign(selected[s].begin(), selected[s].end());
    }
  }
  prefix_ = {in.round, k, kept};
  tamper_uploads(in);
}

void TopKMethod::take_prefixes(const RoundInput& in, std::size_t k) {
  FEDSPARSE_SPAN("pipeline_select");
  if (prefix_.depth < k || prefix_.round != in.round ||
      uploads_.size() != in.client_vectors.size()) {
    throw std::logic_error("TopKMethod::probe_round: no round at depth >= k for this input");
  }
  for (std::size_t s = 0; s < uploads_.size(); ++s) {
    if (prefix_.kept) {
      const SparseVector& sel = selection_[s];
      uploads_[s].assign(sel.begin(), sel.begin() + static_cast<std::ptrdiff_t>(
                                                         std::min(k, sel.size())));
    } else if (uploads_[s].size() > k) {
      uploads_[s].resize(k);
    }
  }
  if (!prefix_.kept) prefix_.depth = k;
  tamper_uploads(in);
}

void TopKMethod::tamper_uploads(const RoundInput& in) {
  if (in.tamper == nullptr) return;
  for (std::size_t s = 0; s < uploads_.size(); ++s) {
    const std::size_t cid = in.client_ids.empty() ? s : in.client_ids[s];
    in.tamper->apply(in.round, cid, uploads_[s]);
  }
}

std::span<const double> TopKMethod::screen_uploads(const RoundInput& in, bool book,
                                                   ValidationStats& stats) {
  FEDSPARSE_SPAN("pipeline_screen");
  const std::span<const double> eff =
      validator_.screen(uploads_, in.client_ids, in.data_weights, dim_, in.round, stats, book);
#ifdef FEDSPARSE_CONTRACTS
  // Mass conservation across the screen: outside degraded rounds the
  // effective weights must remain a convex combination (sum 1), whether they
  // are the passthrough span or the renormalized internal buffer.
  if (!stats.degraded && !eff.empty()) {
    double total = 0.0;
    for (const double w : eff) total += w;
    FEDSPARSE_CONTRACT(std::abs(total - 1.0) < 1e-6,
                       "screening broke weight mass conservation");
  }
#endif
  return eff;
}

std::vector<ShardArena>& TopKMethod::arenas(std::size_t count) {
  if (arenas_.size() < count) arenas_.resize(count);
  return arenas_;
}

std::span<const std::uint64_t> TopKMethod::merge_arena_keys(std::size_t count,
                                                            std::size_t bound) {
  runs_.clear();
  for (std::size_t s = 0; s < count; ++s) {
    runs_.push_back({arenas_[s].keys.data(), arenas_[s].keys.size()});
  }
  merger_.merge({runs_.data(), runs_.size()}, bound, merged_keys_);
#ifdef FEDSPARSE_CONTRACTS
  // The 64-bit selection keys are a total order; a merge of descending runs
  // must itself be descending or the top-k cut is wrong.
  for (std::size_t p = 1; p < merged_keys_.size(); ++p) {
    FEDSPARSE_CONTRACT(merged_keys_[p - 1] >= merged_keys_[p],
                       "key merge produced a non-descending run");
  }
#endif
  return {merged_keys_.data(), merged_keys_.size()};
}

const BucketAggregator& TopKMethod::aggregate(const Pass& p, const BucketAggregator::Filter& f,
                                              RoundOutcome& out) {
  const std::size_t S = p.plan.shards();
  ++stamp_token_;
  if (robust_cfg_.trivial()) {
    FEDSPARSE_SPAN("pipeline_aggregate");
    aggregator_.run(uploads_, p.weights, dim_, S, p.pool, f, agg_.data(), stamp_.data(),
                    stamp_token_);
    return aggregator_;
  }
  FEDSPARSE_SPAN("pipeline_robust_aggregate");
  RobustStats& stats = out.robust;
  aggregator_.run_robust(uploads_, p.weights, dim_, S, p.pool, f, robust_cfg_, agg_.data(),
                         stamp_.data(), stamp_token_, stats);

  // Reputation pass: every contributing client scored by the cosine between
  // its upload and the robust aggregate restricted to the client's own
  // coordinates (membership = the indices the reduce just stamped, which is
  // exactly the filter the scatter applied). Serial in slot order — pure and
  // shard-count invariant. Trust is the weighted fraction of contributors
  // that are NOT anti-aligned; anti-aligned clients take a reputation strike
  // through the validator's quarantine bookkeeping (not on the probe, which
  // only scores). An honest client with a divergent gradient can dip below
  // the threshold on a noisy round, so clean-run trust is high but not
  // pinned at 1.0; the strike/clear pair below keeps such false positives
  // from ever reaching quarantine (that takes consecutive suspect rounds).
  double contributing_w = 0.0;
  double aligned_w = 0.0;
  for (std::size_t s = 0; s < uploads_.size(); ++s) {
    double dot = 0.0;
    double norm_up = 0.0;
    double norm_agg = 0.0;
    bool contributed = false;
    for (const auto& e : uploads_[s]) {
      const auto idx = static_cast<std::size_t>(e.index);
      if (stamp_[idx] != stamp_token_) continue;
      contributed = true;
      const double v = static_cast<double>(e.value);
      const double a = static_cast<double>(agg_[idx]);
      dot += v * a;
      norm_up += v * v;
      norm_agg += a * a;
    }
    if (!contributed) continue;
    const double w = p.weights[s];
    contributing_w += w;
    const bool anti_aligned =
        norm_up > 0.0 && norm_agg > 0.0 &&
        dot < robust_cfg_.suspect_cosine * std::sqrt(norm_up) * std::sqrt(norm_agg);
    const std::size_t cid = p.in.client_ids.empty() ? s : p.in.client_ids[s];
    if (anti_aligned) {
      ++stats.suspects;
      if (p.book) validator_.note_suspect(cid, p.in.round);
    } else {
      aligned_w += w;
      if (p.book) validator_.note_aligned(cid, p.in.round);
    }
  }
  stats.mean_trust = contributing_w > 0.0 ? aligned_w / contributing_w : 1.0;
  return aggregator_;
}

void TopKMethod::build_resets(const Pass& p, const BucketAggregator::Filter& f,
                              RoundOutcome& out) {
  if (!p.book) return;
  FEDSPARSE_SPAN("pipeline_resets");
  resets_.run(uploads_, p.plan.shards(), p.pool, f, out);
}

void TopKMethod::emit_update_from_buckets(const Pass& p, RoundOutcome& out) {
  FEDSPARSE_SPAN("pipeline_emit");
  const std::size_t B = aggregator_.buckets();
  if (arenas_.size() < B) arenas_.resize(B);
  bucket_offsets_.resize(B + 1);
  bucket_offsets_[0] = 0;
  for (std::size_t b = 0; b < B; ++b) {
    bucket_offsets_[b + 1] = bucket_offsets_[b] + aggregator_.touched(b).size();
  }
  out.update.resize(bucket_offsets_[B]);
  for_each_shard(p.pool, B, [&](std::size_t b) {
    ShardArena& ar = arenas_[b];
    const auto touched = aggregator_.touched(b);
    ar.touched.assign(touched.begin(), touched.end());
    std::sort(ar.touched.begin(), ar.touched.end());
    std::size_t pos = bucket_offsets_[b];
    for (const std::int32_t j : ar.touched) {
      out.update[pos++] = SparseEntry{j, agg_[static_cast<std::size_t>(j)]};
    }
  });
}

void TopKMethod::finish_payload(RoundOutcome& out) const {
#ifdef FEDSPARSE_CONTRACTS
  // Every emitting path (index sort, bucket concatenation) must deliver the
  // update strictly index-ascending and in-bounds — appliers and the probe's
  // sparse_subtract rely on it.
  for (std::size_t p = 0; p < out.update.size(); ++p) {
    FEDSPARSE_CONTRACT(out.update[p].index >= 0 &&
                           static_cast<std::size_t>(out.update[p].index) < dim_,
                       "emitted update index out of bounds");
    if (p > 0) {
      FEDSPARSE_CONTRACT(out.update[p - 1].index < out.update[p].index,
                         "emitted update not strictly index-sorted");
    }
  }
#endif
  set_uplink_from_uploads(uploads_, out);
  // Screening may have emptied rejected payloads after they crossed the wire;
  // the timing model charges the transmitted sizes, not the surviving ones.
  const auto pre = validator_.pre_screen_uplink();
  if (!pre.empty()) {
    out.uplink_values = 0.0;
    for (std::size_t s = 0; s < pre.size(); ++s) {
      out.client_uplink_values[s] = pre[s];
      out.uplink_values = std::max(out.uplink_values, pre[s]);
    }
  }
  out.downlink_values = 2.0 * static_cast<double>(out.update.size());
}

}  // namespace fedsparse::sparsify
