// Round engine tests: the shared global weight store + per-thread workspace
// pool must be deterministic across thread and shard counts and actually free
// of per-client model replicas; FedAvg's per-client weights must follow the
// synchronization contract. Byte-identity against frozen whole-run values
// lives in tests/golden_digest_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "data/synthetic.h"
#include "fl/replay.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/extended_sign_ogd.h"
#include "online/factory.h"
#include "sparsify/method.h"

namespace fedsparse::fl {
namespace {

data::SyntheticConfig tiny_dataset(std::uint64_t seed = 1) {
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
  cfg.seed = seed;
  return cfg;
}

nn::ModelFactory tiny_model() { return nn::mlp(16, {12}, 4); }

SimulationConfig engine_sim(std::size_t threads = 2) {
  SimulationConfig cfg;
  cfg.lr = 0.05f;
  cfg.batch = 8;
  cfg.max_rounds = 40;
  cfg.comm_time = 5.0;
  cfg.eval_every = 10;
  cfg.eval_samples_per_client = 0;
  cfg.eval_test_samples = 0;
  cfg.threads = threads;
  cfg.seed = 7;
  return cfg;
}

SimulationResult run_fixed_k(const std::string& method, double k, SimulationConfig cfg,
                             std::uint64_t data_seed = 1) {
  auto dataset = data::make_synthetic(tiny_dataset(data_seed));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method(method, dim, 5),
                 std::make_unique<online::FixedK>(k));
  return sim.run();
}

SimulationResult run_adaptive(const std::string& method, SimulationConfig cfg,
                              std::uint64_t data_seed = 2) {
  auto dataset = data::make_synthetic(tiny_dataset(data_seed));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  auto controller = std::make_unique<online::ExtendedSignOgd>(
      online::ExtendedSignOgd::Config{2.0, static_cast<double>(dim), 0.0, 1.5, 10});
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method(method, dim, 5),
                 std::move(controller));
  return sim.run();
}

// Bitwise comparison of everything a run records: round traces, loss curves,
// k sequences, fairness totals. EXPECT_EQ on doubles is deliberate — the two
// runs must produce the *same bits*, not merely close values.
void expect_identical(const SimulationResult& a, const SimulationResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const RoundRecord& ra = a.records[i];
    const RoundRecord& rb = b.records[i];
    EXPECT_EQ(ra.time, rb.time) << label << " round " << ra.round;
    EXPECT_EQ(ra.k_continuous, rb.k_continuous) << label << " round " << ra.round;
    EXPECT_EQ(ra.k_used, rb.k_used) << label << " round " << ra.round;
    EXPECT_EQ(ra.train_loss, rb.train_loss) << label << " round " << ra.round;
    EXPECT_EQ(ra.uplink_values, rb.uplink_values) << label << " round " << ra.round;
    EXPECT_EQ(ra.downlink_values, rb.downlink_values) << label << " round " << ra.round;
    if (std::isnan(ra.global_loss)) {
      EXPECT_TRUE(std::isnan(rb.global_loss)) << label << " round " << ra.round;
    } else {
      EXPECT_EQ(ra.global_loss, rb.global_loss) << label << " round " << ra.round;
      EXPECT_EQ(ra.accuracy, rb.accuracy) << label << " round " << ra.round;
    }
  }
  EXPECT_EQ(a.k_sequence, b.k_sequence) << label;
  EXPECT_EQ(a.contributed_totals, b.contributed_totals) << label;
  EXPECT_EQ(a.rounds_run, b.rounds_run) << label;
  EXPECT_EQ(a.total_time, b.total_time) << label;
  EXPECT_EQ(a.final_loss, b.final_loss) << label;
  EXPECT_EQ(a.final_accuracy, b.final_accuracy) << label;
  EXPECT_EQ(a.invalid_probe_rounds, b.invalid_probe_rounds) << label;
}

// ---------------- workspace-reuse determinism across thread counts ----------

TEST(SharedReplicaEngine, DeterministicAcrossThreadCounts) {
  // 1 / 2 / 8 threads mean 2 / 3 / 9 workspaces and entirely different
  // task-to-workspace assignments; every trace must still be byte-identical.
  const auto t1 = run_fixed_k("fab_topk", 20.0, engine_sim(1));
  const auto t2 = run_fixed_k("fab_topk", 20.0, engine_sim(2));
  const auto t8 = run_fixed_k("fab_topk", 20.0, engine_sim(8));
  expect_identical(t1, t2, "threads 1 vs 2");
  expect_identical(t1, t8, "threads 1 vs 8");
}

TEST(SharedReplicaEngine, AdaptiveDeterministicAcrossThreadCounts) {
  SimulationConfig c1 = engine_sim(1);
  SimulationConfig c8 = engine_sim(8);
  c1.max_rounds = c8.max_rounds = 50;
  const auto t1 = run_adaptive("fab_topk", c1);
  const auto t8 = run_adaptive("fab_topk", c8);
  expect_identical(t1, t8, "adaptive threads 1 vs 8");
}

// ---------------- sharded round engine ---------------------------------------

// The shard count (per-shard arenas, keyed tree merge) is a pure scheduling
// value: every top-k method runs one round body at every shard count, and
// traces must be byte-identical between S = 1 and S = 2/8 — under churn,
// partial participation, and the adaptive probe. The frozen whole-run
// digests of tests/golden_digest_test.cpp pin the same matrix against fixed
// values.

SimulationConfig sharded_sim(std::size_t shards, std::size_t threads = 2) {
  SimulationConfig cfg = engine_sim(threads);
  cfg.shards = shards;
  return cfg;
}

class ShardedVsSingleShard : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardedVsSingleShard, FixedKTraceIsByteIdentical) {
  const std::string method = GetParam();
  const auto ref = run_fixed_k(method, 20.0, sharded_sim(1));
  for (const std::size_t shards : {2u, 8u}) {
    const auto sharded = run_fixed_k(method, 20.0, sharded_sim(shards));
    expect_identical(ref, sharded, method + "/shards=" + std::to_string(shards));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTopKMethods, ShardedVsSingleShard,
                         ::testing::Values("fab_topk", "fub_topk", "unidirectional_topk"));

TEST(ShardedEngine, AdaptiveProbePathIsByteIdentical) {
  // Probe rounds rerun the selection with k' ≠ k right after the real round;
  // the per-client hint evolution must not depend on the shard count.
  for (const char* method : {"fab_topk", "fub_topk", "unidirectional_topk"}) {
    SimulationConfig cfg = sharded_sim(1);
    cfg.max_rounds = 50;
    const auto ref = run_adaptive(method, cfg);
    cfg.shards = 8;
    const auto sharded = run_adaptive(method, cfg);
    expect_identical(ref, sharded, std::string(method) + " adaptive shards 1 vs 8");
  }
}

TEST(ShardedEngine, ChurnAndPartialParticipationAreByteIdentical) {
  // Fluctuating participant counts cross shard-plan boundaries every round
  // (some rounds have fewer participants than shards).
  for (const std::size_t shards : {2u, 8u}) {
    SimulationConfig cfg = sharded_sim(1);
    cfg.max_rounds = 50;
    cfg.network.p_drop = 0.35;
    cfg.network.p_recover = 0.3;
    cfg.network.rate_jitter_sigma = 0.2;
    cfg.participation = 0.7;
    const auto ref = run_fixed_k("fab_topk", 15.0, cfg);
    cfg.shards = shards;
    const auto sharded = run_fixed_k("fab_topk", 15.0, cfg);
    expect_identical(ref, sharded, "churn/shards=" + std::to_string(shards));
  }
}

TEST(ShardedEngine, AutoShardSelectionIsDeterministicAcrossThreadCounts) {
  // shards = 0 (auto) tracks the pool size: 1 / 2 / 8 threads resolve to
  // 1 / 3 / 9 shards. Identical traces required regardless.
  const auto t1 = run_fixed_k("fab_topk", 20.0, engine_sim(1));
  const auto t2 = run_fixed_k("fab_topk", 20.0, engine_sim(2));
  const auto t8 = run_fixed_k("fab_topk", 20.0, engine_sim(8));
  expect_identical(t1, t2, "auto shards, threads 1 vs 2");
  expect_identical(t1, t8, "auto shards, threads 1 vs 8");
}

// ---------------- weight-layout invariants ----------------------------------

TEST(SharedReplicaEngine, SynchronizedClientsResolveToTheSharedStore) {
  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(engine_sim(), std::move(dataset), factory,
                 sparsify::make_method("fab_topk", dim, 5),
                 std::make_unique<online::FixedK>(10.0));
  (void)sim.run();
  // No per-client replicas: every client's weights alias the same storage.
  const auto w0 = sim.client_weights(0);
  for (std::size_t i = 1; i < sim.num_clients(); ++i) {
    EXPECT_EQ(sim.client_weights(i).data(), w0.data()) << "client " << i;
  }
}

TEST(FedAvgEngine, SyncRoundReachesEveryOnlineClientAndNoOfflineOne) {
  // FedAvg synchronizes every ⌊D/2k⌋ = ⌊256/30⌋ = 8 rounds, so this run ends
  // on a synchronization. Under churn, every client online at that round —
  // sampled or not — must hold exactly the data-weighted average; an offline
  // client misses it and keeps its own diverged weights.
  SimulationConfig cfg = engine_sim();
  cfg.max_rounds = 8;
  cfg.network.p_drop = 0.35;
  cfg.network.p_recover = 0.3;
  cfg.participation = 0.7;
  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  ASSERT_EQ(dim, 256u);
  RoundRecorder recorder(dim, "fedavg", 5, cfg.faults, cfg.validation);
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fedavg", dim, 5),
                 std::make_unique<online::FixedK>(15.0));
  sim.set_recorder(&recorder);
  const SimulationResult res = sim.run();
  ASSERT_EQ(res.rounds_run, 8u);
  ASSERT_FALSE(recorder.log().rounds.empty());
  const ReplayRound& sync = recorder.log().rounds.back();
  ASSERT_EQ(sync.round, 8u);

  // The synchronization the server broadcast: the logged local weights of
  // the flushed clients, re-averaged by a fresh FedAvg instance.
  std::vector<std::vector<float>> local(sync.client_ids.size(), std::vector<float>(dim, 0.0f));
  for (std::size_t s = 0; s < local.size(); ++s) {
    for (std::size_t e = sync.vec_offsets[s]; e < sync.vec_offsets[s + 1]; ++e) {
      local[s][static_cast<std::size_t>(sync.vec_indices[e])] = sync.vec_values[e];
    }
  }
  sparsify::RoundInput in;
  in.dim = dim;
  in.round = sync.round;
  for (const auto& v : local) in.client_vectors.emplace_back(v);
  in.data_weights = sync.data_weights;
  const sparsify::RoundOutcome out = sparsify::make_method("fedavg", dim, 5)->round(in, sync.k);
  ASSERT_EQ(out.kind, sparsify::RoundOutcome::Kind::kWeightAverage);
  const std::vector<float>& average = out.dense;

  std::size_t online = 0, offline = 0;
  for (std::size_t i = 0; i < sim.num_clients(); ++i) {
    const auto wi = sim.client_weights(i);
    ASSERT_EQ(wi.size(), dim);
    const std::vector<float> own(wi.begin(), wi.end());
    if (sim.network().available(i)) {
      ++online;
      EXPECT_EQ(own, average) << "online client " << i;
    } else {
      ++offline;
      EXPECT_NE(own, average) << "offline client " << i;
    }
  }
  // The scenario must exercise both sides of the rule.
  EXPECT_GT(online, 0u);
  EXPECT_GT(offline, 0u);
}

// A local-update method that breaks its contract by emitting a gradient
// update: there is no shared weight store for it to land on.
class GradientEmittingLocalMethod final : public sparsify::Method {
 public:
  GradientEmittingLocalMethod(sparsify::RoundOutcome::Kind kind, std::size_t dim)
      : kind_(kind), dim_(dim) {}
  std::string name() const override { return "gradient_emitting_local"; }
  bool local_update_style() const override { return true; }
  sparsify::RoundOutcome round(const sparsify::RoundInput& in, std::size_t k) override {
    (void)k;
    sparsify::RoundOutcome out;
    out.kind = kind_;
    if (kind_ == sparsify::RoundOutcome::Kind::kDenseUpdate) {
      out.dense.assign(dim_, 1.0f);
    } else {
      out.update = {{0, 1.0f}};
    }
    out.contributed.assign(in.client_vectors.size(), 0);
    return out;
  }

 private:
  sparsify::RoundOutcome::Kind kind_;
  std::size_t dim_;
};

TEST(FedAvgEngine, LocalUpdateMethodEmittingAGradientUpdateThrows) {
  for (const auto kind :
       {sparsify::RoundOutcome::Kind::kSparseUpdate, sparsify::RoundOutcome::Kind::kDenseUpdate}) {
    auto dataset = data::make_synthetic(tiny_dataset());
    auto factory = tiny_model();
    util::Rng probe(1);
    const std::size_t dim = factory(probe)->dim();
    SimulationConfig cfg = engine_sim();
    cfg.max_rounds = 3;
    Simulation sim(cfg, std::move(dataset), factory,
                   std::make_unique<GradientEmittingLocalMethod>(kind, dim),
                   std::make_unique<online::FixedK>(10.0));
    EXPECT_THROW((void)sim.run(), std::logic_error);
  }
}

}  // namespace
}  // namespace fedsparse::fl
