// Event timeline: the deterministic scheduler under the round engines.
//
// The synchronized loop of Algorithm 1 hides a schedule: clients finish their
// local computation and uploads at NetworkModel-determined instants, churn
// flips availability between rounds, and the server decides when to fold the
// arrivals into a global update. This component makes that schedule explicit
// as an ordered event sequence per round:
//
//   kClientOffline / kClientOnline — availability transitions observed at the
//       round boundary (time 0 of the round);
//   kUploadReady — client i's upload arrives at the server at
//       compute_i + uplink_i(payload), per the realized per-round rates;
//   kBufferFlush — the server folds the buffered arrivals into one
//       aggregation (the synchronized engine flushes after the LAST arrival —
//       the barrier; the buffered-async engine after the M-th).
//
// Determinism contract: events are built serially by the simulation and
// totally ordered by (time, kind, client) — client id breaks every tie — so
// the drained sequence is identical at every thread count. The equivalence
// tests pin exactly this (same events at threads 1/2/8), and the
// synchronized engine's flush set, being sorted by id afterwards, reproduces
// the lockstep loop's participant order bit-for-bit: the barrier case is the
// degenerate schedule where arrival order cannot matter.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fedsparse::fl {

enum class EventKind : std::uint8_t {
  kClientOffline = 0,  // transition observed at the round boundary
  kClientOnline = 1,
  kUploadReady = 2,  // upload arrival at the server
  kBufferFlush = 3,  // server folds the buffer into a global update
  kUploadLost = 4,   // fault model: upload dropped in transit or past deadline
  kClientCrash = 5,  // fault model: client died mid-round (no compute)
};

struct Event {
  double time = 0.0;        // offset from the round start, normalized units
  EventKind kind = EventKind::kUploadReady;
  std::size_t client = 0;   // kBufferFlush: number of arrivals folded

  friend bool operator==(const Event&, const Event&) = default;
};

class EventTimeline {
 public:
  void clear() noexcept { events_.clear(); }

  /// Appends an event (any order); call seal() before reading.
  void push(double time, EventKind kind, std::size_t client) {
    events_.push_back(Event{time, kind, client});
  }

  /// Establishes the total (time, kind, client) order. Stable by
  /// construction: all three keys participate, and (kind, client) is unique
  /// per round, so the order does not depend on insertion order.
  void seal();

  std::span<const Event> events() const noexcept { return {events_.data(), events_.size()}; }
  std::size_t size() const noexcept { return events_.size(); }

 private:
  std::vector<Event> events_;
};

}  // namespace fedsparse::fl
