// TopKMethod: the server round shared by the top-k methods.
//
// FAB-, FUB- and unidirectional top-k (Algorithm 1 and its two baselines)
// share one uplink and one round body —
//
//   check input → clamp k → select uploads → screen
//     → choose J, aggregate, resets, emit → payload accounting
//
// — and differ only in how the server picks the downlink set J: FAB's
// κ-search + fill, FUB's top-k over the aggregate, unidirectional's
// keep-everything. That step is the private choose() each subclass
// implements; everything else lives here once, together with the scratch it
// runs on: per-thread-slot selection workspaces with an 8-byte per-client
// hint store, the dense aggregation arena with its stamp discipline, the
// shard arenas, key merger, bucket aggregator and CSR reset builder. The
// body runs at every shard count (S = 1 included). The buffered-async engine
// (fl/simulation.h) drives the same body — a flush is a round over the
// arrival buffer, and the synchronized barrier is the flush that accepts
// every arrival. The k′ probe runs the same body from the screen on, over
// prefixes of the round's selection instead of a second one.
//
// Determinism contract: each stage is bit-identical across shard counts and
// thread counts (see shard_engine.h for the per-stage arguments); the base
// adds no ordering decisions of its own. tests/golden_digest_test.cpp pins
// whole-run outcomes at shards 1/8/auto and threads 1/2/8.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sparsify/method.h"
#include "sparsify/shard_engine.h"
#include "sparsify/topk.h"

namespace fedsparse::util {
class ThreadPool;
}

namespace fedsparse::sparsify {

class TopKMethod : public Method {
 public:
  RoundOutcome round(const RoundInput& in, std::size_t k) final;

  /// The k′ probe of the round just run. Selection emits each client's
  /// entries strongest first under a total order, so a client's top-k′ is
  /// the first k′ entries of its pre-tamper top-k upload: the probe takes
  /// those prefixes instead of selecting again, then tampers, screens,
  /// chooses, reduces and emits exactly like round(in, k′). It books no
  /// quarantine strikes, builds no reset lists (its outcome has none) and
  /// writes no threshold hint, so replaying round() alone from a recorded
  /// log reproduces the run. Throws std::logic_error unless the last round()
  /// ran this round's input (same round number and participant count) at a
  /// depth of at least k′ — and, when the uploads were truncated in place,
  /// no shallower probe has run since.
  RoundOutcome probe_round(const RoundInput& in, std::size_t k) final;

  void set_sharding(std::size_t shards) final { shards_ = std::max<std::size_t>(1, shards); }
  void set_validation(const ValidationConfig& cfg) final { validator_.configure(cfg); }
  void set_robust(const RobustConfig& cfg) final { robust_cfg_ = cfg; }
  /// The persisted hint of `client_id`, or 0 when it is missing or was
  /// produced for a k incompatible with this one (hint_compatible, topk.h).
  float upload_threshold_hint(std::size_t client_id, std::size_t k) const final;

 protected:
  explicit TopKMethod(std::size_t dim);

  /// One round's shared context, handed to choose().
  struct Pass {
    const RoundInput& in;
    std::size_t k;                    // clamped to [1, D]
    ShardPlan plan;                   // contiguous client partition
    util::ThreadPool* pool;
    std::span<const double> weights;  // effective data weights after screening
    bool book;  // false on the k′ probe: no quarantine strikes, no reset lists
  };

  std::size_t dim() const noexcept { return dim_; }
  /// This round's screened uploads, strongest entry first per client.
  const std::vector<SparseVector>& uploads() const noexcept { return uploads_; }

  // --- dense aggregation arena + stamp discipline ---------------------------

  /// Dim-sized dense aggregation buffer; valid only for indices stamped by
  /// the current pass (stamp()[j] == the token that wrote them).
  float* agg() noexcept { return agg_.data(); }
  std::uint32_t* stamp() noexcept { return stamp_.data(); }
  /// A fresh stamp token (monotonic; shared by every stage of a round).
  std::uint32_t next_token() noexcept { return ++stamp_token_; }

  // --- sharded stages (any shard count, 1 included) -------------------------

  /// Per-shard arenas, grown to at least `count` (capacity persists).
  std::vector<ShardArena>& arenas(std::size_t count);

  /// k-bounded fixed-order tree merge of arenas [0, count)'s key runs.
  std::span<const std::uint64_t> merge_arena_keys(std::size_t count, std::size_t bound);

  /// Stage: sharded aggregation of uploads() into agg() under an optional
  /// membership filter, stamping touched indices with a fresh token. Plain
  /// weighted sum, or — when robust aggregation is configured — the robust
  /// reduce followed by the cosine reputation pass (booked into the
  /// validator's quarantine state when p.book), whose stats land in
  /// out.robust. Either way agg()/stamp()/touched buckets end up in the same
  /// shape, so emit/reset stages compose unchanged. The scatter reads the
  /// filter before the reduce writes stamps, so a filter over the previous
  /// token is safe; build_resets must still run first when it needs that
  /// membership afterwards.
  const BucketAggregator& aggregate(const Pass& p, const BucketAggregator::Filter& f,
                                    RoundOutcome& out);

  /// Stage: client-major CSR reset lists + contributed counts from uploads()
  /// under the same optional filter. Must run BEFORE a later stage re-stamps
  /// the filter's membership tokens. A no-op on the probe (!p.book): only
  /// the probe's update is read.
  void build_resets(const Pass& p, const BucketAggregator::Filter& f, RoundOutcome& out);

  /// Stage: emit the aggregated update from the last aggregate() call's
  /// buckets, index-sorted (buckets are ascending disjoint index ranges, so
  /// per-bucket sorts concatenate into the global index order).
  void emit_update_from_buckets(const Pass& p, RoundOutcome& out);

 private:
  /// The method-specific middle of a non-degraded round: pick J from the
  /// screened uploads(), aggregate over it, build the resets and emit
  /// out.update index-sorted. Payload accounting follows in the base.
  virtual void choose(const Pass& p, RoundOutcome& out) = 0;

  /// Everything after the uploads are in place: screen, choose (or the
  /// degraded bail-out) and payload accounting. Shared by round() and the
  /// probe; `book` is false on the probe.
  RoundOutcome finish_round(const RoundInput& in, std::size_t k, bool book);

  /// Stage: every participant's top-k upload through the per-slot workspaces
  /// + compact per-client hint store (top_k_uploads_fleet), then the input's
  /// tamper hook. Byte-identical at every thread count. When a tamper hook or
  /// screening can edit uploads_ in place, the pre-tamper selection is kept
  /// in selection_ for the probe; otherwise uploads_ is that selection.
  void select_uploads(const RoundInput& in, std::size_t k);

  /// Probe stage: each client's k′ upload as the first k′ entries of its
  /// pre-tamper selection from the last round(), then the tamper hook.
  void take_prefixes(const RoundInput& in, std::size_t k);

  /// The input's tamper hook over every upload (no-op without one).
  void tamper_uploads(const RoundInput& in);

  /// Stage: screens uploads() in place and returns the effective data
  /// weights (sparsify/validate.h). Runs after the tamper hook, before
  /// choose(), so poisoned entries never reach a κ search or the arena.
  std::span<const double> screen_uploads(const RoundInput& in, bool book,
                                         ValidationStats& stats);

  /// Stage: uplink accounting from uploads() (pre-screen sizes — rejected
  /// payloads still spent airtime) and the broadcast downlink from the
  /// update payload (2 values per (index, value) pair).
  void finish_payload(RoundOutcome& out) const;

  std::size_t dim_;
  std::size_t shards_ = 1;

  // Dense aggregation arena (sized D) + membership stamps.
  std::vector<float> agg_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t stamp_token_ = 0;

  // Selection state: per-thread-slot workspaces + 8-byte per-client hints.
  std::vector<TopKWorkspace> slot_ws_;
  std::vector<ClientHint> hints_;
  std::vector<SparseVector> uploads_;
  // The last round's pre-tamper selection. Filled only when a tamper hook or
  // screening edits uploads_ in place; otherwise the probe truncates
  // uploads_ itself and this stays empty (no second N·k copy).
  std::vector<SparseVector> selection_;
  // What the probe may take prefixes of: the last round()'s round number
  // and the selection depth still available (one prefix per uploads_ slot).
  struct PrefixSource {
    std::size_t round = 0;
    std::size_t depth = 0;  // 0 = none
    bool kept = false;      // prefixes come from selection_, not uploads_
  };
  PrefixSource prefix_;
  UploadValidator validator_;
  RobustConfig robust_cfg_;

  // Sharded-stage scratch.
  std::vector<ShardArena> arenas_;
  std::vector<std::span<const std::uint64_t>> runs_;
  std::vector<std::uint64_t> merged_keys_;
  std::vector<std::size_t> bucket_offsets_;
  KeyMerger merger_;
  BucketAggregator aggregator_;
  CsrResetBuilder resets_;
};

}  // namespace fedsparse::sparsify
