// Server-side upload screening: the defense stage in front of aggregation.
//
// The paper's Algorithm 1 assumes every sampled client delivers an intact
// top-k payload; the fault model (fl/faults.h) makes lost, late, and
// corrupted uploads the common case. This layer screens every upload before
// it can touch the aggregation arena:
//
//   * structural checks — indices in [0, D) with no duplicates (selection
//     emits magnitude-ordered payloads, so order itself carries no canonical
//     form to check), every value finite. A payload failing any of them is
//     REJECTED: emptied in place and its data weight zeroed, with the
//     remaining weights renormalized so aggregates stay convex combinations
//     of client values (mass conservation survives the rejection);
//   * norm-outlier clipping — a structurally valid payload whose L2 norm
//     exceeds `norm_clip_mult` × the round's median payload norm is scaled
//     down to that bound (magnitude-blowup and low-bit corruption produce
//     finite-but-huge values the structural checks cannot catch);
//   * quarantine — a client whose payloads are rejected in
//     `quarantine_after` distinct rounds is dropped outright for the next
//     `quarantine_rounds` rounds, rejected or not;
//   * graceful degradation — when fewer than `min_valid_fraction` of the
//     flush survives screening the round is declared degraded: the method
//     skips aggregation entirely (empty update, no resets, weights held) and
//     the engine damps the sign-OGD step through RoundFeedback::validity.
//
// Determinism contract: screening is a pure function of the uploads and the
// validator's quarantine state — no RNG — so it is bitwise identical across
// thread counts, shard counts, and engines. When screening is disabled, or
// enabled but nothing is rejected, the effective weights are returned as the
// ORIGINAL span (same pointer): the zero-fault configuration stays
// byte-identical to an unscreened run.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sparsify/sparse_vector.h"

namespace fedsparse::sparsify {

/// Tamper hook applied to each upload after selection, before screening —
/// the seam through which fl::FaultModel injects payload corruption without
/// sparsify depending on fl. Implementations must be pure in
/// (round, client, payload): the same triple always produces the same
/// tampered payload, which is what makes faulted runs replayable.
class UploadTamper {
 public:
  virtual ~UploadTamper() = default;
  virtual void apply(std::size_t round, std::size_t client_id, SparseVector& payload) const = 0;
};

struct ValidationConfig {
  bool enabled = false;
  /// Clip uploads whose L2 norm exceeds this multiple of the round's median
  /// payload norm; <= 0 disables clipping.
  double norm_clip_mult = 8.0;
  /// Rejections in this many distinct rounds trigger quarantine; 0 disables.
  std::size_t quarantine_after = 3;
  /// How many rounds a quarantined client is dropped for.
  std::size_t quarantine_rounds = 5;
  /// Below this surviving fraction of the flush, the round degrades.
  double min_valid_fraction = 0.5;
};

/// Per-round screening outcome, carried on RoundOutcome so the engine can
/// surface the counters in RoundRecord / metrics.csv.
struct ValidationStats {
  std::size_t checked = 0;      // uploads screened this round
  std::size_t rejected = 0;     // structurally invalid / non-finite, emptied
  std::size_t clipped = 0;      // norm outliers scaled down
  std::size_t quarantined = 0;  // dropped because the client is quarantined
  double valid_fraction = 1.0;  // surviving slots / checked (1.0 when disabled)
  bool degraded = false;        // too few valid uploads: aggregation skipped
};

class UploadValidator {
 public:
  void configure(const ValidationConfig& cfg) { cfg_ = cfg; }
  const ValidationConfig& config() const noexcept { return cfg_; }
  bool enabled() const noexcept { return cfg_.enabled; }

  /// Screens `uploads` in place (rejected payloads are emptied; outliers
  /// clipped) and returns the effective data weights: `weights` itself when
  /// nothing was rejected — bitwise passthrough — or an internal buffer with
  /// rejected slots zeroed and the rest renormalized to sum to 1. On a
  /// degraded round the returned weights are NOT normalized; callers must
  /// check `stats.degraded` before aggregating. `client_ids` empty means
  /// "slot s is client s". With `book` false the screen reads quarantine
  /// state but books no strikes, clears none and publishes no validate.*
  /// counters — the k′ probe's what-if re-screen of a round the main screen
  /// already booked.
  std::span<const double> screen(std::vector<SparseVector>& uploads,
                                 std::span<const std::size_t> client_ids,
                                 std::span<const double> weights, std::size_t dim,
                                 std::size_t round, ValidationStats& stats, bool book = true);

  /// Pre-screening uplink size (in values) of slot `s` from the last
  /// screen() call — rejected payloads still spent airtime, so the timing
  /// model charges what was transmitted, not what survived. Empty when the
  /// last screen() rejected nothing.
  std::span<const double> pre_screen_uplink() const noexcept { return pre_uplink_; }

  /// True when client `id` is quarantined as of `round`.
  bool quarantined(std::size_t client_id, std::size_t round) const;

  /// Reputation strike from the robust-aggregation stage: client `id`'s
  /// upload passed structural screening but was anti-aligned with the robust
  /// aggregate. Tracked separately from rejection strikes — screening cannot
  /// judge these payloads (they are structurally valid), so its clean-round
  /// strike clearing must not erase them; only note_aligned does. Quarantine
  /// triggers after `quarantine_after` distinct suspect rounds. Called once
  /// per contributing client and round; the k′ probe books nothing.
  void note_suspect(std::size_t client_id, std::size_t round);

  /// Counterpart: client `id` contributed and was NOT anti-aligned this
  /// round. Clears accumulated suspect strikes ("repeat offender" means
  /// consecutive suspect rounds, mirroring the rejection-strike semantics).
  void note_aligned(std::size_t client_id, std::size_t round);

 private:
  bool structurally_valid(const SparseVector& sv, std::size_t dim);

  struct Offender {
    std::size_t strikes = 0;            // distinct rounds with a rejection
    std::size_t suspect_strikes = 0;    // distinct anti-aligned rounds (robust stage)
    std::size_t quarantined_until = 0;  // inclusive round bound; 0 = not quarantined
  };

  ValidationConfig cfg_;
  std::unordered_map<std::size_t, Offender> offenders_;
  std::vector<double> eff_weights_;
  std::vector<double> norms_;
  std::vector<double> pre_uplink_;
  std::vector<std::uint8_t> verdict_;  // 0 ok, 1 rejected, 2 quarantined
  // Duplicate-index detection without sorting: a slot is a duplicate iff its
  // stamp already equals the current token. O(k) per payload, no clearing.
  std::vector<std::uint64_t> seen_stamp_;
  std::uint64_t stamp_token_ = 0;
};

}  // namespace fedsparse::sparsify
