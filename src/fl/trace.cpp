#include "fl/trace.h"

#include <cmath>

#include "fl/simulation.h"
#include "util/logging.h"

namespace fedsparse::fl {

namespace {

// Compact, locale-independent double formatting for JSON; NaN/Inf (not valid
// JSON numbers) become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kClientOffline: return "client_offline";
    case EventKind::kClientOnline: return "client_online";
    case EventKind::kUploadReady: return "upload_ready";
    case EventKind::kBufferFlush: return "buffer_flush";
    case EventKind::kUploadLost: return "upload_lost";
    case EventKind::kClientCrash: return "client_crash";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------- Chrome trace ---

ChromeTraceWriter::~ChromeTraceWriter() { close(); }

bool ChromeTraceWriter::open(const std::string& path) {
  close();
  f_ = std::fopen(path.c_str(), "w");
  if (f_ == nullptr) {
    util::log_warn() << "telemetry: cannot open chrome trace file '" << path << "'";
    return false;
  }
  std::fputs("{\"traceEvents\":[", f_);
  first_event_ = true;
  tracks_.clear();
  return true;
}

std::size_t ChromeTraceWriter::tid_for(const std::string& track) {
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    if (tracks_[t] == track) return t;
  }
  tracks_.push_back(track);
  const std::size_t tid = tracks_.size() - 1;
  // Announce the track the first time it appears, so the viewer labels the
  // row with the stage/shard name instead of a bare tid.
  std::fprintf(f_,
               "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
               "\"args\":{\"name\":\"%s\"}}",
               first_event_ ? "" : ",", tid, json_escape(track).c_str());
  first_event_ = false;
  return tid;
}

void ChromeTraceWriter::write_round(std::size_t round, std::span<const util::Span> spans,
                                    std::span<const Event> timeline) {
  if (f_ == nullptr) return;
  double round_start = 0.0;
  for (const util::Span& s : spans) {
    if (round_start == 0.0 || s.start_us < round_start) round_start = s.start_us;
  }
  for (const util::Span& s : spans) {
    const std::size_t tid = tid_for(s.track);
    std::fprintf(f_,
                 "%s\n{\"name\":\"%s\",\"cat\":\"round\",\"ph\":\"X\",\"ts\":%s,"
                 "\"dur\":%s,\"pid\":1,\"tid\":%zu,\"args\":{\"round\":%zu}}",
                 first_event_ ? "" : ",", json_escape(s.track).c_str(),
                 json_number(s.start_us).c_str(), json_number(s.dur_us).c_str(), tid, round);
    first_event_ = false;
  }
  if (!timeline.empty()) {
    const std::size_t tid = tid_for("timeline");
    for (const Event& e : timeline) {
      // Simulated offsets are not wall time; anchoring them at the round's
      // first span keeps the instants inside the round's lane while args
      // carry the exact simulated value.
      std::fprintf(f_,
                   "%s\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":1,"
                   "\"tid\":%zu,\"args\":{\"round\":%zu,\"client\":%zu,\"sim_time\":%s}}",
                   first_event_ ? "" : ",", event_kind_name(e.kind),
                   json_number(round_start + e.time).c_str(), tid, round, e.client,
                   json_number(e.time).c_str());
      first_event_ = false;
    }
  }
}

void ChromeTraceWriter::close() {
  if (f_ == nullptr) return;
  std::fputs("\n]}\n", f_);
  std::fclose(f_);
  f_ = nullptr;
}

// -------------------------------------------------------- metrics JSONL ---

MetricsJsonlWriter::~MetricsJsonlWriter() { close(); }

bool MetricsJsonlWriter::open(const std::string& path) {
  close();
  f_ = std::fopen(path.c_str(), "w");
  if (f_ == nullptr) {
    util::log_warn() << "telemetry: cannot open metrics jsonl file '" << path << "'";
    return false;
  }
  return true;
}

void MetricsJsonlWriter::write_round(const RoundRecord& rec, std::size_t online,
                                     const std::vector<util::MetricSample>& scrape) {
  if (f_ == nullptr) return;
  std::string line = "{";
  const auto field = [&line](const char* key, const std::string& value) {
    if (line.size() > 1) line += ",";
    line += "\"";
    line += key;
    line += "\":";
    line += value;
  };
  field("round", std::to_string(rec.round));
  field("time", json_number(rec.time));
  field("k_continuous", json_number(rec.k_continuous));
  field("k_used", std::to_string(rec.k_used));
  field("train_loss", json_number(rec.train_loss));
  field("global_loss", json_number(rec.global_loss));
  field("uplink_values", json_number(rec.uplink_values));
  field("uplink_bytes", json_number(values_to_bytes(rec.uplink_values)));
  field("downlink_values", json_number(rec.downlink_values));
  field("downlink_bytes", json_number(values_to_bytes(rec.downlink_values)));
  field("participants", std::to_string(rec.participants));
  field("online", std::to_string(online));
  field("mean_staleness", json_number(rec.mean_staleness));
  field("max_staleness", std::to_string(rec.max_staleness));
  field("dropped", std::to_string(rec.dropped));
  field("corrupted", std::to_string(rec.corrupted));
  field("byzantine", std::to_string(rec.byzantine));
  field("rejected", std::to_string(rec.rejected));
  field("quarantined", std::to_string(rec.quarantined));
  field("degraded", rec.degraded ? "true" : "false");
  field("suspects", std::to_string(rec.suspects));
  field("trust", json_number(rec.trust));

  std::string counters = "{", gauges = "{";
  const auto sub = [](std::string& obj, const std::string& key, const std::string& value) {
    if (obj.size() > 1) obj += ",";
    obj += "\"" + json_escape(key) + "\":" + value;
  };
  for (const util::MetricSample& m : scrape) {
    switch (m.kind) {
      case util::MetricKind::kCounter:
        sub(counters, m.name, json_number(m.value));
        break;
      case util::MetricKind::kGauge:
        sub(gauges, m.name, json_number(m.value));
        break;
      case util::MetricKind::kHistogram:
        sub(counters, m.name, json_number(m.value));
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          const std::string key =
              b < m.bounds.size() ? m.name + ".le_" + json_number(m.bounds[b])
                                  : m.name + ".overflow";
          sub(counters, key, std::to_string(m.buckets[b]));
        }
        break;
    }
  }
  counters += "}";
  gauges += "}";
  field("counters", counters);
  field("gauges", gauges);

  line += "}\n";
  std::fwrite(line.data(), 1, line.size(), f_);
}

void MetricsJsonlWriter::close() {
  if (f_ == nullptr) return;
  std::fclose(f_);
  f_ = nullptr;
}

}  // namespace fedsparse::fl
