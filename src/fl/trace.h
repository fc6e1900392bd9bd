// Telemetry exporters: per-round Chrome trace-event JSON and a round-metrics
// JSONL stream.
//
// The collection layer (util/stats.h: MetricRegistry + SpanSink) is
// deliberately below fl/ so sparsify/ and online/ can publish without a
// dependency on the simulation; this header owns everything that needs fl
// types — the event timeline instants and the per-round record fields — and
// the file formats:
//
//  * ChromeTraceWriter emits the trace-event JSON array format
//    ({"traceEvents": [...]}): one "M" thread_name metadata event the first
//    time a track appears, one complete "X" event per drained span (ts/dur in
//    µs on the process steady-clock epoch), and one instant "i" event per
//    EventTimeline entry on a dedicated "timeline" track. Tracks map to tids
//    in first-appearance order, so the eight stage_* tracks, the pipeline_*
//    tracks and the per-shard tracks each get their own row in
//    chrome://tracing / Perfetto. The spans are the only record of where a
//    round's time went; e2e_bench/trace_reduce.py turns them into self and
//    inclusive time per stage (scripts/trace_summary.py prints its table).
//  * MetricsJsonlWriter emits one JSON object per round: the RoundRecord's
//    fields plus realized bytes and the online count, and the registry
//    scrape's counters and gauges.
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "fl/event_timeline.h"
#include "util/stats.h"

namespace fedsparse::fl {

struct RoundRecord;

/// Telemetry knobs on SimulationConfig. Default off: the run is pinned
/// byte-identical to a build without telemetry. When enabled, spans and
/// metrics are collected every round; each non-empty path additionally
/// streams the corresponding file.
struct TelemetryConfig {
  bool enabled = false;
  std::string chrome_trace_path;   // per-round Chrome trace-event JSON
  std::string metrics_jsonl_path;  // per-round metrics JSONL
};

class ChromeTraceWriter {
 public:
  ChromeTraceWriter() = default;
  ~ChromeTraceWriter();
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// Truncates `path` and writes the JSON preamble. Returns false (and logs)
  /// when the file cannot be opened.
  bool open(const std::string& path);
  bool is_open() const noexcept { return f_ != nullptr; }

  /// Appends one round's spans (already drained+sorted) and timeline events.
  /// Timeline instants are placed at the round's first span timestamp plus
  /// the event's simulated offset, and carry {round, client, kind, sim_time}
  /// args.
  void write_round(std::size_t round, std::span<const util::Span> spans,
                   std::span<const Event> timeline);

  /// Writes the closing brackets; the file is valid JSON afterwards.
  void close();

 private:
  std::size_t tid_for(const std::string& track);

  std::FILE* f_ = nullptr;
  bool first_event_ = true;
  std::vector<std::string> tracks_;  // index = tid
};

class MetricsJsonlWriter {
 public:
  MetricsJsonlWriter() = default;
  ~MetricsJsonlWriter();
  MetricsJsonlWriter(const MetricsJsonlWriter&) = delete;
  MetricsJsonlWriter& operator=(const MetricsJsonlWriter&) = delete;

  bool open(const std::string& path);
  bool is_open() const noexcept { return f_ != nullptr; }

  /// One line: the record's scalars (global_loss is null when the round was
  /// not evaluated), uplink/downlink bytes, `online` clients, and the
  /// scrape's counters/gauges (histograms export their total count plus
  /// per-bucket counts under "<name>.le_<bound>" / "<name>.overflow").
  void write_round(const RoundRecord& rec, std::size_t online,
                   const std::vector<util::MetricSample>& scrape);

  void close();

 private:
  std::FILE* f_ = nullptr;
};

}  // namespace fedsparse::fl
