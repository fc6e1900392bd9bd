// Golden outcome digests for the round engine.
//
// Each cell of the matrix
//
//   {fab, fub, unidirectional} × {synchronized, buffered-async}
//     × {clean, faults + screening, 10% sign-flip + trimmed mean}
//     × {fixed k, Algorithm 3 with the k' probe}
//
// plus the churn / partial-participation run, and the clean synchronized
// runs of the non-top-k baselines (periodic-k, send-all, FedAvg, with churn
// runs for periodic-k and FedAvg), runs a small simulation and folds into
// one FNV-1a digest: every flush's fl::outcome_digest (update, resets,
// contributions), the k_used sequence, the per-round loss bits (at float
// precision, see run_cell) and the per-client uplink totals. The expected
// values below are frozen: every cell must reproduce them at threads 1/2/8 ×
// shards auto/1/8, so shard count and thread count stay pure scheduling
// decisions, and a refactor of the selection, round or apply bodies that
// moves a single bit fails here. Each cell's recorded log must also replay
// (fl/replay.h) with zero mismatches.
//
// The baseline cells pin the weight-apply paths: periodic-k's sparse and
// send-all's dense update on the shared store, and FedAvg's local SGD on
// per-client weights. fedavg_sync_clean_fixedk never reaches its
// aggregation period (⌊D/2k⌋ = 50 rounds) in 12 rounds, so it pins local
// steps and the averaged evaluation model; fedavg_churn_partial_fixedk
// (period 8) pins the weight-average copy, which reaches online clients
// only.
//
// The model is wide enough (D = 6010) that client selection runs the
// threshold-hint scan and the sampled prefilter (both engage from
// D = 4096), and Algorithm 3 starts at k = D/2, so the large-k regime is in
// the matrix too.
//
// Never edit an expected digest to make a change pass. A digest moves only
// when the engine's semantics are meant to change, and that change must say
// so and why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "fl/faults.h"
#include "fl/replay.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/controller.h"
#include "online/extended_sign_ogd.h"
#include "sparsify/method.h"
#include "sparsify/robust.h"

namespace fedsparse::fl {
namespace {

enum class Mode { kSync, kAsync };
enum class Defense { kClean, kFaults, kSignFlip };
enum class Control { kFixedK, kAlg3 };

struct Cell {
  const char* name;
  const char* method;
  Mode mode;
  Defense defense;
  Control control;
  bool churn;  // the churn/partial-participation run (tiny model, 50 rounds)
  std::uint64_t expected;
};

std::ostream& operator<<(std::ostream& os, const Cell& c) { return os << c.name; }

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fold(std::uint64_t& h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void fold_pod(std::uint64_t& h, T v) {
  fold(h, &v, sizeof v);
}

data::SyntheticConfig golden_dataset() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 10;
  cfg.channels = 1;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_clients = 10;
  cfg.samples_per_client = 16;
  cfg.samples_spread = 0.3;
  cfg.test_samples = 64;
  cfg.class_sep = 2.5;
  cfg.noise_std = 0.6;
  cfg.partition = data::PartitionKind::kByWriter;
  cfg.classes_per_writer = 3;
  cfg.seed = 3;
  return cfg;
}

// ShardedEngine.ChurnAndPartialParticipationAreByteIdentical's data and model.
data::SyntheticConfig churn_dataset() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.height = 4;
  cfg.width = 4;
  cfg.num_clients = 10;
  cfg.samples_per_client = 24;
  cfg.samples_spread = 0.3;
  cfg.test_samples = 64;
  cfg.class_sep = 2.5;
  cfg.noise_std = 0.6;
  cfg.partition = data::PartitionKind::kByWriter;
  cfg.classes_per_writer = 2;
  cfg.seed = 1;
  return cfg;
}

SimulationConfig cell_config(const Cell& c, std::size_t threads, std::size_t shards) {
  SimulationConfig cfg;
  cfg.lr = 0.05f;
  cfg.batch = 8;
  cfg.comm_time = 5.0;
  cfg.eval_samples_per_client = 0;
  cfg.eval_test_samples = 0;
  cfg.threads = threads;
  cfg.shards = shards;
  cfg.seed = 7;
  if (c.churn) {
    cfg.max_rounds = 50;
    cfg.eval_every = 10;
    cfg.network.p_drop = 0.35;
    cfg.network.p_recover = 0.3;
    cfg.network.rate_jitter_sigma = 0.2;
    cfg.participation = 0.7;
    return cfg;
  }
  cfg.max_rounds = 12;
  cfg.eval_every = 4;
  if (c.mode == Mode::kAsync) {
    // Partial participation with event triggering: unsampled clients whose
    // accumulator clears the method's threshold hint volunteer uploads, and
    // the buffer defers the late arrivals into the next flush.
    cfg.aggregation = AggregationMode::kBufferedAsync;
    cfg.participation = 0.7;
    cfg.async.buffer_size = 4;
    cfg.async.staleness_lambda = 0.25;
    cfg.async.trigger_scale = 1.0;
  }
  switch (c.defense) {
    case Defense::kClean:
      break;
    case Defense::kFaults:
      cfg.faults.drop_prob = 0.1;
      cfg.faults.corrupt_prob = 0.1;
      cfg.faults.crash_prob = 0.05;
      cfg.faults.seed = 23;
      cfg.validation.enabled = true;
      break;
    case Defense::kSignFlip:
      cfg.faults.adversary.attack = AttackKind::kSignFlip;
      cfg.faults.adversary.byzantine_fraction = 0.1;
      cfg.faults.adversary.cohort_seed = 41;
      cfg.faults.seed = 99;
      cfg.validation.enabled = true;
      cfg.robust.enabled = true;
      cfg.robust.kind = sparsify::RobustKind::kTrimmedMean;
      break;
  }
  return cfg;
}

struct CellRun {
  std::uint64_t digest;
  ReplayLog log;
};

CellRun run_cell(const Cell& c, std::size_t threads, std::size_t shards) {
  const SimulationConfig cfg = cell_config(c, threads, shards);
  auto dataset = data::make_synthetic(c.churn ? churn_dataset() : golden_dataset());
  nn::ModelFactory factory = c.churn ? nn::mlp(16, {12}, 4) : nn::mlp(64, {80}, 10);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  std::unique_ptr<online::KController> controller;
  if (c.churn) {
    controller = std::make_unique<online::FixedK>(15.0);
  } else if (c.control == Control::kFixedK) {
    controller = std::make_unique<online::FixedK>(60.0);
  } else {
    controller = std::make_unique<online::ExtendedSignOgd>(
        online::ExtendedSignOgd::Config{2.0, static_cast<double>(dim), 0.0, 1.5, 4});
  }
  RoundRecorder recorder(dim, c.method, 5, cfg.faults, cfg.validation, cfg.robust);
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method(c.method, dim, 5),
                 std::move(controller));
  sim.set_recorder(&recorder);
  const SimulationResult res = sim.run();

  std::uint64_t h = kFnvOffset;
  fold_pod(h, static_cast<std::uint64_t>(recorder.log().rounds.size()));
  for (const ReplayRound& r : recorder.log().rounds) {
    fold_pod(h, r.round);
    fold_pod(h, r.digest);
  }
  fold_pod(h, static_cast<std::uint64_t>(res.records.size()));
  // Losses are folded at float precision: they are double-precision weighted
  // sums over clients, whose multiply-adds the compiler contracts into FMAs
  // differently once sanitizer instrumentation sits between the loads. That
  // moves the last double ulp, never a float bit.
  for (const RoundRecord& rec : res.records) {
    fold_pod(h, static_cast<std::uint64_t>(rec.k_used));
    fold_pod(h, static_cast<float>(rec.train_loss));
    fold_pod(h, static_cast<float>(rec.global_loss));
  }
  for (const double v : res.client_uplink_values) fold_pod(h, v);
  return {h, recorder.take()};
}

// Expected digests, recorded once and frozen (see the header comment).
const Cell kCells[] = {
    // clang-format off
    {"fab_sync_clean_fixedk",      "fab_topk", Mode::kSync,  Defense::kClean,    Control::kFixedK, false, 0xf6e9cc9797fc31b6ull},
    {"fab_sync_clean_alg3",        "fab_topk", Mode::kSync,  Defense::kClean,    Control::kAlg3,   false, 0xd26f24be7f287264ull},
    {"fab_sync_faults_fixedk",     "fab_topk", Mode::kSync,  Defense::kFaults,   Control::kFixedK, false, 0x27cefaec909c0c79ull},
    {"fab_sync_faults_alg3",       "fab_topk", Mode::kSync,  Defense::kFaults,   Control::kAlg3,   false, 0xadd8d82588ec8e08ull},
    {"fab_sync_signflip_fixedk",   "fab_topk", Mode::kSync,  Defense::kSignFlip, Control::kFixedK, false, 0x96381445f4e25504ull},
    {"fab_sync_signflip_alg3",     "fab_topk", Mode::kSync,  Defense::kSignFlip, Control::kAlg3,   false, 0x36b82ab0e54ec6bbull},
    {"fab_async_clean_fixedk",     "fab_topk", Mode::kAsync, Defense::kClean,    Control::kFixedK, false, 0xc25922134f0d8b20ull},
    {"fab_async_clean_alg3",       "fab_topk", Mode::kAsync, Defense::kClean,    Control::kAlg3,   false, 0x9c7414362f1f30cbull},
    {"fab_async_faults_fixedk",    "fab_topk", Mode::kAsync, Defense::kFaults,   Control::kFixedK, false, 0x25052508bb46c266ull},
    {"fab_async_faults_alg3",      "fab_topk", Mode::kAsync, Defense::kFaults,   Control::kAlg3,   false, 0x4d84a2452327cb86ull},
    {"fab_async_signflip_fixedk",  "fab_topk", Mode::kAsync, Defense::kSignFlip, Control::kFixedK, false, 0x75b24eac4508af4full},
    {"fab_async_signflip_alg3",    "fab_topk", Mode::kAsync, Defense::kSignFlip, Control::kAlg3,   false, 0xc79910bbd52323efull},
    {"fub_sync_clean_fixedk",      "fub_topk", Mode::kSync,  Defense::kClean,    Control::kFixedK, false, 0x4bb12f3ad5b0aa35ull},
    {"fub_sync_clean_alg3",        "fub_topk", Mode::kSync,  Defense::kClean,    Control::kAlg3,   false, 0xf30db78baca6a7efull},
    {"fub_sync_faults_fixedk",     "fub_topk", Mode::kSync,  Defense::kFaults,   Control::kFixedK, false, 0xfdb40f2cdbefd159ull},
    {"fub_sync_faults_alg3",       "fub_topk", Mode::kSync,  Defense::kFaults,   Control::kAlg3,   false, 0x1deeae7b2dac4d30ull},
    {"fub_sync_signflip_fixedk",   "fub_topk", Mode::kSync,  Defense::kSignFlip, Control::kFixedK, false, 0xe1f18f1beac600bdull},
    {"fub_sync_signflip_alg3",     "fub_topk", Mode::kSync,  Defense::kSignFlip, Control::kAlg3,   false, 0xfb436ea8f880737full},
    {"fub_async_clean_fixedk",     "fub_topk", Mode::kAsync, Defense::kClean,    Control::kFixedK, false, 0x8c685b59fbae4847ull},
    {"fub_async_clean_alg3",       "fub_topk", Mode::kAsync, Defense::kClean,    Control::kAlg3,   false, 0x39bea1f7d92d6adaull},
    {"fub_async_faults_fixedk",    "fub_topk", Mode::kAsync, Defense::kFaults,   Control::kFixedK, false, 0xa4b1a2827968644cull},
    {"fub_async_faults_alg3",      "fub_topk", Mode::kAsync, Defense::kFaults,   Control::kAlg3,   false, 0x060478c136385c60ull},
    {"fub_async_signflip_fixedk",  "fub_topk", Mode::kAsync, Defense::kSignFlip, Control::kFixedK, false, 0xc7495d2ea5587d1full},
    {"fub_async_signflip_alg3",    "fub_topk", Mode::kAsync, Defense::kSignFlip, Control::kAlg3,   false, 0x097037061dae1d00ull},
    {"uni_sync_clean_fixedk",      "unidirectional_topk", Mode::kSync,  Defense::kClean,    Control::kFixedK, false, 0xc332c882c9ed0ee1ull},
    {"uni_sync_clean_alg3",        "unidirectional_topk", Mode::kSync,  Defense::kClean,    Control::kAlg3,   false, 0x1fe42ec702babf73ull},
    {"uni_sync_faults_fixedk",     "unidirectional_topk", Mode::kSync,  Defense::kFaults,   Control::kFixedK, false, 0x6e210ad45bd5666bull},
    {"uni_sync_faults_alg3",       "unidirectional_topk", Mode::kSync,  Defense::kFaults,   Control::kAlg3,   false, 0xf5f0a360cc43c7d4ull},
    {"uni_sync_signflip_fixedk",   "unidirectional_topk", Mode::kSync,  Defense::kSignFlip, Control::kFixedK, false, 0xa77df5d7aad51611ull},
    {"uni_sync_signflip_alg3",     "unidirectional_topk", Mode::kSync,  Defense::kSignFlip, Control::kAlg3,   false, 0xbbebc8a1db0112deull},
    {"uni_async_clean_fixedk",     "unidirectional_topk", Mode::kAsync, Defense::kClean,    Control::kFixedK, false, 0x29b6bccaf05f0b3aull},
    {"uni_async_clean_alg3",       "unidirectional_topk", Mode::kAsync, Defense::kClean,    Control::kAlg3,   false, 0x819ccd4d233eb24eull},
    {"uni_async_faults_fixedk",    "unidirectional_topk", Mode::kAsync, Defense::kFaults,   Control::kFixedK, false, 0x3d680c7572e91418ull},
    {"uni_async_faults_alg3",      "unidirectional_topk", Mode::kAsync, Defense::kFaults,   Control::kAlg3,   false, 0xa6b48b1a44c75f8eull},
    {"uni_async_signflip_fixedk",  "unidirectional_topk", Mode::kAsync, Defense::kSignFlip, Control::kFixedK, false, 0xe44b93b8eb189dc7ull},
    {"uni_async_signflip_alg3",    "unidirectional_topk", Mode::kAsync, Defense::kSignFlip, Control::kAlg3,   false, 0xf6dbf53d46629adeull},
    {"fab_churn_partial_fixedk",   "fab_topk", Mode::kSync,  Defense::kClean,    Control::kFixedK, true,  0xe64c8c8d4f6fd3f9ull},
    {"periodic_sync_clean_fixedk",    "periodic", Mode::kSync,  Defense::kClean,    Control::kFixedK, false, 0x721b88396163fcc8ull},
    {"periodic_sync_clean_alg3",      "periodic", Mode::kSync,  Defense::kClean,    Control::kAlg3,   false, 0x331e32e6ca4a18b5ull},
    {"sendall_sync_clean_fixedk",     "send_all", Mode::kSync,  Defense::kClean,    Control::kFixedK, false, 0xdac9ebceb0d7eaa0ull},
    {"fedavg_sync_clean_fixedk",      "fedavg",   Mode::kSync,  Defense::kClean,    Control::kFixedK, false, 0x5d5fe76759113060ull},
    {"fedavg_churn_partial_fixedk",   "fedavg",   Mode::kSync,  Defense::kClean,    Control::kFixedK, true,  0x1fd7e73d15254f9dull},
    {"periodic_churn_partial_fixedk", "periodic", Mode::kSync,  Defense::kClean,    Control::kFixedK, true,  0x878b990955c30c3cull},
    // clang-format on
};

class EngineGoldenDigest : public ::testing::TestWithParam<Cell> {};

TEST_P(EngineGoldenDigest, MatchesFrozenDigestAtEveryThreadAndShardCount) {
  const Cell& c = GetParam();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t shards : {0u, 1u, 8u}) {  // 0 = auto
      const std::uint64_t got = run_cell(c, threads, shards).digest;
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llxull", static_cast<unsigned long long>(got));
      EXPECT_EQ(got, c.expected) << c.name << " threads=" << threads << " shards=" << shards
                                 << " digest=" << hex;
    }
  }
}

// Replay drives only Method::round, so the recorded log reproduces every
// flush only if nothing outside round() — the k' probe included — moved
// method state the next round reads (quarantine strikes, a selection
// cursor). One run per cell: threads 1, shards auto.
TEST_P(EngineGoldenDigest, RecordedLogReplaysWithoutMismatch) {
  const Cell& c = GetParam();
  const CellRun run = run_cell(c, /*threads=*/1, /*shards=*/0);
  ASSERT_FALSE(run.log.rounds.empty()) << c.name;
  const ReplayResult res = replay(run.log, /*shards=*/1);
  EXPECT_EQ(res.rounds, run.log.rounds.size()) << c.name;
  EXPECT_EQ(res.mismatches, 0u) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineGoldenDigest, ::testing::ValuesIn(kCells),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace fedsparse::fl
