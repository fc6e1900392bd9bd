// Shared-replica round engine tests: the shared global weight store +
// per-thread workspace pool must be byte-identical to the per-replica
// reference engine (same RNG splits, same RoundOutcomes, same loss curves),
// deterministic across thread counts, and actually free of per-client model
// replicas.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/synthetic.h"
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

SimulationConfig engine_sim(ReplicaMode mode, std::size_t threads = 2) {
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
  cfg.replica_mode = mode;
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
// engines must produce the *same bits*, not merely close values.
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

// ---------------- shared vs per-replica bitwise equivalence -----------------

class SharedVsPerReplica : public ::testing::TestWithParam<const char*> {};

TEST_P(SharedVsPerReplica, FixedKTraceIsByteIdentical) {
  const std::string method = GetParam();
  const auto shared = run_fixed_k(method, 20.0, engine_sim(ReplicaMode::kShared));
  const auto replica = run_fixed_k(method, 20.0, engine_sim(ReplicaMode::kPerReplica));
  expect_identical(shared, replica, method);
}

INSTANTIATE_TEST_SUITE_P(AllSynchronizedMethods, SharedVsPerReplica,
                         ::testing::Values("fab_topk", "fub_topk", "unidirectional_topk",
                                           "periodic", "send_all"));

TEST(SharedReplicaEngine, AdaptiveProbePathIsByteIdentical) {
  // The adaptive controller exercises the k'-probe: per-replica shifts every
  // client's own weights, the shared engine shifts its store once centrally.
  // Identical bits required either way.
  for (const char* method : {"fab_topk", "fub_topk", "unidirectional_topk"}) {
    SimulationConfig cfg = engine_sim(ReplicaMode::kShared);
    cfg.max_rounds = 60;
    const auto shared = run_adaptive(method, cfg);
    cfg.replica_mode = ReplicaMode::kPerReplica;
    const auto replica = run_adaptive(method, cfg);
    expect_identical(shared, replica, method);
  }
}

TEST(SharedReplicaEngine, PartialParticipationIsByteIdentical) {
  // Reset lists arrive slot-indexed over the participant subset; both engines
  // must map them onto the same clients.
  SimulationConfig cfg = engine_sim(ReplicaMode::kShared);
  cfg.participation = 0.4;
  const auto shared = run_fixed_k("fab_topk", 12.0, cfg);
  cfg.replica_mode = ReplicaMode::kPerReplica;
  const auto replica = run_fixed_k("fab_topk", 12.0, cfg);
  expect_identical(shared, replica, "fab_topk/participation=0.4");
}

TEST(SharedReplicaEngine, FedAvgPathIsByteIdenticalAcrossModes) {
  // FedAvg clients own diverging weights in both modes (the workspace API is
  // the same either way); the replica_mode knob must not change a bit.
  const auto shared = run_fixed_k("fedavg", 20.0, engine_sim(ReplicaMode::kShared));
  const auto replica = run_fixed_k("fedavg", 20.0, engine_sim(ReplicaMode::kPerReplica));
  expect_identical(shared, replica, "fedavg");
}

// ---------------- workspace-reuse determinism across thread counts ----------

TEST(SharedReplicaEngine, DeterministicAcrossThreadCounts) {
  // 1 / 2 / 8 threads mean 2 / 3 / 9 workspaces and entirely different
  // task-to-workspace assignments; every trace must still be byte-identical.
  const auto t1 = run_fixed_k("fab_topk", 20.0, engine_sim(ReplicaMode::kShared, 1));
  const auto t2 = run_fixed_k("fab_topk", 20.0, engine_sim(ReplicaMode::kShared, 2));
  const auto t8 = run_fixed_k("fab_topk", 20.0, engine_sim(ReplicaMode::kShared, 8));
  expect_identical(t1, t2, "threads 1 vs 2");
  expect_identical(t1, t8, "threads 1 vs 8");
}

TEST(SharedReplicaEngine, AdaptiveDeterministicAcrossThreadCounts) {
  SimulationConfig c1 = engine_sim(ReplicaMode::kShared, 1);
  SimulationConfig c8 = engine_sim(ReplicaMode::kShared, 8);
  c1.max_rounds = c8.max_rounds = 50;
  const auto t1 = run_adaptive("fab_topk", c1);
  const auto t8 = run_adaptive("fab_topk", c8);
  expect_identical(t1, t8, "adaptive threads 1 vs 8");
}

// ---------------- tiered vs dense accumulator traversal ---------------------

// The chunk-tiered round view (accumulator chunk summaries handed to the
// methods, selection scans pruned) is a pure traversal-order optimization:
// every trace it produces must be byte-identical to the dense path of the
// same build, per method, across thread counts, and under churn.

class TieredVsDense : public ::testing::TestWithParam<const char*> {};

TEST_P(TieredVsDense, FixedKTraceIsByteIdentical) {
  const std::string method = GetParam();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SimulationConfig cfg = engine_sim(ReplicaMode::kShared, threads);
    const auto tiered = run_fixed_k(method, 20.0, cfg);
    cfg.tiered_accumulators = false;
    const auto dense = run_fixed_k(method, 20.0, cfg);
    expect_identical(tiered, dense, method + "/threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTopKMethods, TieredVsDense,
                         ::testing::Values("fab_topk", "fub_topk", "unidirectional_topk",
                                           "periodic", "send_all"));

TEST(TieredVsDense, AdaptiveProbePathIsByteIdentical) {
  // The k'-probe reruns selection through the same workspaces right after
  // the real round — the hint interplay must not depend on the traversal.
  SimulationConfig cfg = engine_sim(ReplicaMode::kShared);
  cfg.max_rounds = 60;
  const auto tiered = run_adaptive("fab_topk", cfg);
  cfg.tiered_accumulators = false;
  const auto dense = run_adaptive("fab_topk", cfg);
  expect_identical(tiered, dense, "adaptive fab_topk tiered vs dense");
}

TEST(TieredVsDense, ChurnedRoundsAreByteIdentical) {
  // Availability churn is where the tiered store earns its keep: offline
  // clients keep accumulating without flushing, then rejoin with stale-high
  // chunk bounds. Traces must still match the dense traversal bit for bit
  // at every thread count.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SimulationConfig cfg = engine_sim(ReplicaMode::kShared, threads);
    cfg.max_rounds = 50;
    cfg.network.p_drop = 0.35;
    cfg.network.p_recover = 0.3;
    cfg.network.rate_jitter_sigma = 0.2;
    cfg.participation = 0.7;
    const auto tiered = run_fixed_k("fab_topk", 15.0, cfg);
    cfg.tiered_accumulators = false;
    const auto dense = run_fixed_k("fab_topk", 15.0, cfg);
    expect_identical(tiered, dense, "churn/threads=" + std::to_string(threads));
  }
}

// ---------------- sharded round engine ---------------------------------------

// The shard count (per-shard arenas, keyed tree merge) is a pure scheduling
// value: every top-k method runs one round body at every shard count, and
// traces must be byte-identical between S = 1 and S = 2/8 — under churn,
// partial participation, and the adaptive probe. The frozen whole-run
// digests of tests/golden_digest_test.cpp pin the same matrix against fixed
// values.

SimulationConfig sharded_sim(std::size_t shards, std::size_t threads = 2) {
  SimulationConfig cfg = engine_sim(ReplicaMode::kShared, threads);
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
  const auto t1 = run_fixed_k("fab_topk", 20.0, engine_sim(ReplicaMode::kShared, 1));
  const auto t2 = run_fixed_k("fab_topk", 20.0, engine_sim(ReplicaMode::kShared, 2));
  const auto t8 = run_fixed_k("fab_topk", 20.0, engine_sim(ReplicaMode::kShared, 8));
  expect_identical(t1, t2, "auto shards, threads 1 vs 2");
  expect_identical(t1, t8, "auto shards, threads 1 vs 8");
}

// ---------------- weight-layout invariants ----------------------------------

TEST(SharedReplicaEngine, SynchronizedClientsResolveToTheSharedStore) {
  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(engine_sim(ReplicaMode::kShared), std::move(dataset), factory,
                 sparsify::make_method("fab_topk", dim, 5),
                 std::make_unique<online::FixedK>(10.0));
  (void)sim.run();
  // No per-client replicas: every client's weights alias the same storage.
  const auto w0 = sim.client_weights(0);
  for (std::size_t i = 1; i < sim.num_clients(); ++i) {
    EXPECT_EQ(sim.client_weights(i).data(), w0.data()) << "client " << i;
  }
}

TEST(PerReplicaEngine, ClientsOwnDistinctButIdenticalWeights) {
  // The reference engine keeps the paper's synchronization invariant the
  // hard way: n separate vectors that must stay bitwise in lockstep.
  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(engine_sim(ReplicaMode::kPerReplica), std::move(dataset), factory,
                 sparsify::make_method("fab_topk", dim, 5),
                 std::make_unique<online::FixedK>(10.0));
  (void)sim.run();
  const auto w0 = sim.client_weights(0);
  for (std::size_t i = 1; i < sim.num_clients(); ++i) {
    const auto wi = sim.client_weights(i);
    EXPECT_NE(wi.data(), w0.data()) << "client " << i;  // distinct storage
    for (std::size_t j = 0; j < dim; ++j) {
      ASSERT_EQ(w0[j], wi[j]) << "client " << i << " coord " << j;
    }
  }
}

}  // namespace
}  // namespace fedsparse::fl
