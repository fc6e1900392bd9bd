// End-to-end round benchmark program.
//
// Builds one workload from a seed through the public API (data::make_synthetic,
// fl::Simulation, sparsify::make_method, online::make_controller) and times
// those calls from outside: data generation, the Simulation constructor, and
// Simulation::run (wall and process CPU). Nothing inside the library is
// instrumented by this file; a traced repetition only switches on the
// existing SimulationConfig::telemetry and writes its Chrome trace.
//
//   e2e_round --workload=paper_alg3 --seed=1 --seconds=20 [--trace-dir=DIR]
//
// The pool gets one worker fewer than the CPUs this process may run on, so
// the workers plus the calling thread use every CPU and no more.
//
// A run covers a fixed panel of sub-seeds derived from --seed (the panel size
// is part of the workload). Algorithm 3's k trajectory, and with it the cost
// of a round, differs from one input to the next, so one trajectory per run
// would make the per-round figures swing by a quarter between seeds; a panel
// averages several. The run starts with an untimed warm-up: a few rounds of a
// sub-seed outside the panel (first-touch page faults make the first
// repetition of a process ~30% slower). It then cycles through the panel
// until every sub-seed ran once and --seconds have passed. With --trace-dir
// only the first half of the panel is cycled, and each sub-seed runs untraced
// and then traced, writing DIR/rep<i>.json.
//
// Every repetition prints one JSON object on stdout; the last line is
// {"threads": ..., "peak_rss_kb": ...}. e2e_bench/run.py turns these into
// metrics and checks.
#include <sched.h>
#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "core/fedsparse.h"

namespace {

using namespace fedsparse;
using Clock = std::chrono::steady_clock;

struct Workload {
  std::size_t panel = 1;  // sub-seeds per run
  std::size_t dim = 0;    // model dimension D
  data::SyntheticConfig data;
  fl::SimulationConfig sim;
  online::ControllerConfig controller;
};

std::size_t pool_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return static_cast<std::size_t>(cpus > 1 ? cpus - 1 : 1);
}

constexpr std::size_t kWarmupRounds = 5;

// FEMNIST-like geometry with the paper's MLP (hidden 64): D = 54,270.
constexpr std::size_t kHidden = 64;

nn::ModelFactory model(const data::SyntheticConfig& d) {
  return nn::mlp(d.feature_dim(), {kHidden}, d.num_classes);
}

// The three workloads; the rationale for each lives in BENCHMARK.json.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.data = data::femnist_like(1.0, seed);
  w.sim.threads = pool_threads();
  w.sim.seed = seed;
  w.sim.comm_time = 10.0;
  util::Rng rng(7);
  w.dim = model(w.data)(rng)->dim();
  const auto dim = static_cast<double>(w.dim);
  if (name == "paper_alg3") {
    // Algorithm 3 over [0.002·D, D], synchronized, homogeneous network,
    // 40 rounds: the ROADMAP's headline run.
    w.panel = 6;
    w.sim.max_rounds = 40;
    w.controller.name = "extended_sign_ogd";
    w.controller.kmin = 0.002 * dim;
    w.controller.kmax = dim;
  } else if (name == "fixed_k_half") {
    // Same data and model, fixed k = D/2: no probe, ~4.2M selected entries.
    w.panel = 5;
    w.sim.max_rounds = 40;
    w.controller.name = "fixed";
    w.controller.fixed_k = dim / 2.0;
  } else if (name == "fleet_async_defended") {
    // 2,000 small writers, 25% participation, long-tail mobile links,
    // buffered-async flushes of 300, seeded faults + a sign-flip cohort,
    // screening and trimmed mean on, fixed k = 0.01·D.
    w.data.num_clients = 2000;
    w.data.samples_per_client = 24;
    w.panel = 6;
    w.sim.max_rounds = 30;
    // 16k eval samples, about as many as the 156-writer workloads evaluate.
    w.sim.eval_samples_per_client = 8;
    w.sim.participation = 0.25;
    fl::apply_scenario(fl::make_scenario("longtail_mobile", w.data.num_clients, seed), w.sim);
    w.sim.aggregation = fl::AggregationMode::kBufferedAsync;
    w.sim.async.buffer_size = 300;
    w.sim.faults.drop_prob = 0.05;
    w.sim.faults.corrupt_prob = 0.01;
    w.sim.faults.adversary.attack = fl::AttackKind::kSignFlip;
    w.sim.faults.adversary.byzantine_fraction = 0.10;
    w.sim.validation.enabled = true;
    w.sim.robust.enabled = true;
    w.sim.robust.kind = sparsify::RobustKind::kTrimmedMean;
    w.controller.name = "fixed";
    w.controller.fixed_k = 0.01 * dim;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (paper_alg3 | fixed_k_half | fleet_async_defended)");
  }
  w.controller.seed = seed ^ 0x5157ULL;
  return w;
}

double cpu_seconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

template <typename T, typename F>
void print_list(std::FILE* f, const char* key, const std::vector<T>& xs, F fmt) {
  std::fprintf(f, ",\"%s\":[", key);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    fmt(xs[i]);
  }
  std::fputc(']', f);
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t j) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + j;
  return util::splitmix64(state);
}

// One repetition: build, run, and print the timings plus the outcome fields
// run.py digests and checks. `rounds` > 0 cuts the run short.
void run_rep(const std::string& workload, std::uint64_t seed, std::size_t sub,
             std::size_t rounds, std::size_t rep, const std::string& trace_path) {
  Workload w = make_workload(workload, sub_seed(seed, sub));
  if (rounds > 0) w.sim.max_rounds = rounds;
  if (!trace_path.empty()) {
    w.sim.telemetry.enabled = true;
    w.sim.telemetry.chrome_trace_path = trace_path;
  }

  const auto t_data = Clock::now();
  data::FederatedDataset dataset = data::make_synthetic(w.data);
  const double make_synthetic_s = seconds_since(t_data);

  auto method = sparsify::make_method("fab_topk", w.dim, w.sim.seed ^ 0x3E7ULL);
  auto controller = online::make_controller(w.controller);
  const auto t_ctor = Clock::now();
  fl::Simulation sim(w.sim, std::move(dataset), model(w.data), std::move(method),
                     std::move(controller));
  const double sim_ctor_s = seconds_since(t_ctor);

  const double cpu0 = cpu_seconds();
  const auto t_run = Clock::now();
  const fl::SimulationResult res = sim.run();
  const double run_s = seconds_since(t_run);
  const double cpu_s = cpu_seconds() - cpu0;

  double uplink = 0.0;
  double downlink = 0.0;
  for (const double v : res.client_uplink_values) uplink += v;
  for (const double v : res.client_downlink_values) downlink += v;

  std::vector<std::size_t> k_used, participants, dropped, rejected, suspects;
  std::vector<double> train_loss, global_loss, staleness;
  for (const fl::RoundRecord& r : res.records) {
    k_used.push_back(r.k_used);
    participants.push_back(r.participants);
    dropped.push_back(r.dropped);
    rejected.push_back(r.rejected);
    suspects.push_back(r.suspects);
    train_loss.push_back(r.train_loss);
    global_loss.push_back(r.global_loss);
    staleness.push_back(r.mean_staleness);
  }

  std::FILE* f = stdout;
  const auto u64 = [f](std::uint64_t v) {
    std::fprintf(f, "%llu", static_cast<unsigned long long>(v));
  };
  const auto as_bits = [&u64](double v) { u64(bits(v)); };
  const auto real = [f](double v) { std::fprintf(f, "%.17g", v); };
  std::fprintf(f,
               "{\"rep\":%zu,\"sub\":%zu,\"traced\":%d,\"make_synthetic_s\":%.9f,\"sim_ctor_s\":%.9f,"
               "\"run_s\":%.9f,\"cpu_s\":%.6f,\"rounds\":%zu,\"dim\":%zu,\"clients\":%zu,"
               "\"eval_every\":%zu,\"uplink_values\":%.17g,\"downlink_values\":%.17g,"
               "\"final_loss_bits\":%llu,\"invalid_probe_rounds\":%zu",
               rep, sub, trace_path.empty() ? 0 : 1, make_synthetic_s, sim_ctor_s, run_s, cpu_s,
               res.rounds_run, w.dim, res.client_uplink_values.size(), w.sim.eval_every, uplink,
               downlink, static_cast<unsigned long long>(bits(res.final_loss)),
               res.invalid_probe_rounds);
  print_list(f, "k_used", k_used, u64);
  print_list(f, "participants", participants, u64);
  print_list(f, "dropped", dropped, u64);
  print_list(f, "rejected", rejected, u64);
  print_list(f, "suspects", suspects, u64);
  print_list(f, "mean_staleness", staleness, real);
  print_list(f, "train_loss_bits", train_loss, as_bits);
  print_list(f, "global_loss_bits", global_loss, as_bits);
  print_list(f, "client_uplink_bits", res.client_uplink_values, as_bits);
  std::fputs("}\n", f);
  std::fflush(f);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);
    const std::string workload = flags.get_string("workload", "paper_alg3", "workload name");
    const long seed = flags.get_int("seed", 1, "workload seed");
    const double seconds = flags.get_double("seconds", 20.0, "minimum measurement time");
    const std::string trace_dir = flags.get_string("trace-dir", "", "write traced reps here");
    flags.check_unknown();
    if (seed < 0) throw std::invalid_argument("need seed >= 0");
    const auto useed = static_cast<std::uint64_t>(seed);
    const bool tracing = !trace_dir.empty();
    // Also rejects an unknown workload name before anything is timed.
    const std::size_t panel = make_workload(workload, useed).panel;
    const std::size_t cycle = tracing ? (panel + 1) / 2 : panel;

    std::size_t rep = 0;
    const auto run = [&](std::size_t sub, bool traced, std::size_t rounds = 0) {
      const std::string path = traced ? trace_dir + "/rep" + std::to_string(rep) + ".json" : "";
      try {
        run_rep(workload, useed, sub, rounds, rep, path);
      } catch (const std::exception& e) {
        // A failed repetition is reported and counted, not fatal: run.py
        // charges it to `failed`.
        std::printf("{\"rep\":%zu,\"sub\":%zu,\"traced\":%d,\"error\":\"exception\"}\n", rep,
                    sub, traced ? 1 : 0);
        std::fflush(stdout);
        std::fprintf(stderr, "rep %zu: %s\n", rep, e.what());
      }
      ++rep;
    };

    run(panel, false, kWarmupRounds);  // warm-up: run.py leaves rep 0 out of the timing metrics
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < cycle || seconds_since(t0) < seconds; ++i) {
      run(i % cycle, false);
      if (tracing) run(i % cycle, true);
    }

    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"threads\":%zu,\"peak_rss_kb\":%ld}\n", pool_threads(), ru.ru_maxrss);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_round: %s\n", e.what());
    return 2;
  }
}
