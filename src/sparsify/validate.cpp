#include "sparsify/validate.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace fedsparse::sparsify {

namespace {

double l2_norm(const SparseVector& sv) {
  double s = 0.0;
  for (const auto& e : sv) s += static_cast<double>(e.value) * static_cast<double>(e.value);
  return std::sqrt(s);
}

}  // namespace

// Structural + finiteness screen. Selection emits magnitude-ordered payloads
// (strongest entry first), so index order carries no canonical form; the
// checks are range, no-duplicate, and finite — everything a bit-flipped
// (index, value) pair can break before it reaches the aggregation arena.
// Duplicates are caught with a round-trip-free stamp array: one token bump
// per payload, O(k) per screen, no O(D) clearing.
bool UploadValidator::structurally_valid(const SparseVector& sv, std::size_t dim) {
  if (seen_stamp_.size() < dim) seen_stamp_.assign(dim, 0);
  ++stamp_token_;
  for (const auto& e : sv) {
    if (!std::isfinite(e.value)) return false;
    if (e.index < 0 || static_cast<std::size_t>(e.index) >= dim) return false;
    if (seen_stamp_[static_cast<std::size_t>(e.index)] == stamp_token_) return false;
    seen_stamp_[static_cast<std::size_t>(e.index)] = stamp_token_;
  }
  return true;
}

bool UploadValidator::quarantined(std::size_t client_id, std::size_t round) const {
  const auto it = offenders_.find(client_id);
  return it != offenders_.end() && it->second.quarantined_until >= round;
}

void UploadValidator::note_suspect(std::size_t client_id, std::size_t round) {
  if (cfg_.quarantine_after == 0) return;
  Offender& off = offenders_[client_id];
  static const util::Counter c_suspects("validate.robust_suspects");
  c_suspects.add(1);
  ++off.suspect_strikes;
  if (off.suspect_strikes >= cfg_.quarantine_after && off.quarantined_until < round) {
    off.quarantined_until = round + cfg_.quarantine_rounds;
    off.suspect_strikes = 0;
  }
}

void UploadValidator::note_aligned(std::size_t client_id, std::size_t round) {
  const auto it = offenders_.find(client_id);
  if (it == offenders_.end()) return;
  Offender& off = it->second;
  if (off.quarantined_until >= round) return;
  off.suspect_strikes = 0;
}

std::span<const double> UploadValidator::screen(std::vector<SparseVector>& uploads,
                                                std::span<const std::size_t> client_ids,
                                                std::span<const double> weights, std::size_t dim,
                                                std::size_t round, ValidationStats& stats,
                                                bool book) {
  stats = ValidationStats{};
  stats.checked = uploads.size();
  pre_uplink_.clear();
  if (!cfg_.enabled || uploads.empty()) return weights;

  const std::size_t n = uploads.size();
  const auto cid = [&](std::size_t s) { return client_ids.empty() ? s : client_ids[s]; };

  verdict_.assign(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    if (quarantined(cid(s), round)) {
      verdict_[s] = 2;
      ++stats.quarantined;
    } else if (!structurally_valid(uploads[s], dim)) {
      verdict_[s] = 1;
      ++stats.rejected;
    }
  }

  // Norm-outlier clipping over the survivors: non-empty valid payloads vs the
  // round's median payload norm. nth_element on a scratch copy keeps this
  // O(n); the verdict pass above already filtered what the median sees.
  if (cfg_.norm_clip_mult > 0.0) {
    norms_.clear();
    for (std::size_t s = 0; s < n; ++s) {
      if (verdict_[s] == 0 && !uploads[s].empty()) norms_.push_back(l2_norm(uploads[s]));
    }
    if (norms_.size() >= 2) {
      const std::size_t mid = norms_.size() / 2;
      std::nth_element(norms_.begin(), norms_.begin() + mid, norms_.end());
      const double bound = cfg_.norm_clip_mult * norms_[mid];
      if (bound > 0.0) {
        for (std::size_t s = 0; s < n; ++s) {
          if (verdict_[s] != 0 || uploads[s].empty()) continue;
          const double norm = l2_norm(uploads[s]);
          if (norm > bound) {
            const float scale = static_cast<float>(bound / norm);
            for (auto& e : uploads[s]) e.value *= scale;
            ++stats.clipped;
          }
        }
      }
    }
  }

  // Strike bookkeeping (skipped by the probe's what-if screen). A clean round
  // clears a non-quarantined offender's strikes ("repeat" means consecutive
  // rounds).
  for (std::size_t s = 0; book && s < n; ++s) {
    const std::size_t id = cid(s);
    if (verdict_[s] == 1) {
      Offender& off = offenders_[id];
      ++off.strikes;
      if (cfg_.quarantine_after > 0 && off.strikes >= cfg_.quarantine_after &&
          off.quarantined_until < round) {
        off.quarantined_until = round + cfg_.quarantine_rounds;
        off.strikes = 0;
      }
    } else if (verdict_[s] == 0) {
      const auto it = offenders_.find(id);
      if (it != offenders_.end() && it->second.quarantined_until < round) {
        it->second.strikes = 0;
      }
    }
  }

  const std::size_t bad = stats.rejected + stats.quarantined;
  stats.valid_fraction = static_cast<double>(n - bad) / static_cast<double>(n);

  // Telemetry: the defense's verdicts per booked screen; the probe's what-if
  // screen repeats the round's and is not counted. No-ops while disabled.
  if (book) {
    static const util::Counter c_checked("validate.checked");
    static const util::Counter c_rejected("validate.rejected");
    static const util::Counter c_clipped("validate.clipped");
    static const util::Counter c_quarantined("validate.quarantined");
    c_checked.add(stats.checked);
    if (stats.rejected > 0) c_rejected.add(stats.rejected);
    if (stats.clipped > 0) c_clipped.add(stats.clipped);
    if (stats.quarantined > 0) c_quarantined.add(stats.quarantined);
  }

  if (bad == 0) return weights;  // clipping alone leaves weights untouched

  // Empty the rejected payloads (methods then treat them as clients with
  // nothing to send: no selection candidates, no resets, no mass consumed)
  // but remember what they transmitted — the timing model still charges the
  // airtime a poisoned upload burned.
  pre_uplink_.assign(n, 0.0);
  eff_weights_.assign(weights.begin(), weights.end());
  double total = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    pre_uplink_[s] = 2.0 * static_cast<double>(uploads[s].size());
    if (verdict_[s] != 0) {
      uploads[s].clear();
      eff_weights_[s] = 0.0;
    }
    total += eff_weights_[s];
  }

  if (stats.valid_fraction < cfg_.min_valid_fraction || total <= 0.0) {
    static const util::Counter c_degraded("validate.degraded_screens");
    if (book) c_degraded.add(1);
    stats.degraded = true;
    return {eff_weights_.data(), eff_weights_.size()};
  }
  const double inv = 1.0 / total;
  for (auto& w : eff_weights_) w *= inv;
  return {eff_weights_.data(), eff_weights_.size()};
}

}  // namespace fedsparse::sparsify
