// Telemetry walkthrough: run a small FAB-top-k training with the telemetry
// subsystem enabled, dump a Chrome trace + round-metrics JSONL (one line per
// RoundRecord), and print the registry's counters and gauges at the end of
// the run.
//
//   ./examples/telemetry_trace [--rounds=60] [--out=telemetry_out]
//
// Afterwards:
//   python3 scripts/trace_summary.py telemetry_out/metrics.jsonl \
//       --chrome telemetry_out/trace.json
// prints each stage's self and inclusive time per round from the trace, with
// the k' probe's pipeline stages apart from the server round's, and exits
// non-zero when the spans do not add up to a round's wall time. Load
// telemetry_out/trace.json in chrome://tracing or https://ui.perfetto.dev to
// see the per-stage / per-shard span tracks.
#include <cstdio>
#include <filesystem>

#include "core/fedsparse.h"

int main(int argc, char** argv) {
  using namespace fedsparse;
  try {
    util::Flags flags(argc, argv);
    const long rounds = flags.get_int("rounds", 60, "training rounds");
    const std::string out = flags.get_string("out", "telemetry_out", "output directory");
    flags.check_unknown();
    std::filesystem::create_directories(out);

    core::TrainerConfig cfg;
    cfg.dataset.name = "femnist";
    cfg.dataset.scale = 0.08;  // ~12 clients, quick on a laptop
    cfg.model.name = "mlp";
    cfg.model.hidden = 32;
    cfg.method = "fab_topk";
    cfg.controller.name = "extended_sign_ogd";  // Algorithm 3 drives k
    cfg.sim.max_rounds = static_cast<std::size_t>(rounds);
    cfg.sim.comm_time = 10.0;
    cfg.sim.eval_every = 20;
    cfg.sim.seed = 42;

    // The whole telemetry layer hangs off these three fields. Everything is
    // dormant (and the run byte-identical) when enabled stays false.
    cfg.sim.telemetry.enabled = true;
    cfg.sim.telemetry.chrome_trace_path = out + "/trace.json";
    cfg.sim.telemetry.metrics_jsonl_path = out + "/metrics.jsonl";

    core::FederatedTrainer trainer(cfg);
    const auto result = trainer.run();
    std::printf("trained %zu rounds: loss=%.4f accuracy=%.4f\n", result.rounds_run,
                result.final_loss, result.final_accuracy);

    // The registry keeps its cumulative totals after the run — scrape and
    // print them. (The round records' own fields, such as k, traffic, faults
    // and rejections, live only in metrics.jsonl.)
    std::printf("\n%-32s %-10s %s\n", "metric", "kind", "value");
    for (const auto& s : util::MetricRegistry::instance().scrape()) {
      const char* kind = s.kind == util::MetricKind::kCounter  ? "counter"
                         : s.kind == util::MetricKind::kGauge ? "gauge"
                                                              : "histogram";
      if (s.value == 0.0 && s.kind != util::MetricKind::kGauge) continue;
      std::printf("%-32s %-10s %.4g", s.name.c_str(), kind, s.value);
      if (s.kind == util::MetricKind::kHistogram) {
        std::printf("  buckets:");
        for (std::size_t b = 0; b < s.buckets.size(); ++b) {
          if (b < s.bounds.size()) {
            std::printf(" le%.0f=%llu", s.bounds[b],
                        static_cast<unsigned long long>(s.buckets[b]));
          } else {
            std::printf(" inf=%llu", static_cast<unsigned long long>(s.buckets[b]));
          }
        }
      }
      std::printf("\n");
    }

    std::printf("\nwrote %s/trace.json and %s/metrics.jsonl\n", out.c_str(), out.c_str());
    std::printf("summarize: python3 scripts/trace_summary.py %s/metrics.jsonl --chrome "
                "%s/trace.json\n", out.c_str(), out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
