// The k' probe of the top-k round engine (TopKMethod::probe_round): it takes
// the first k' entries of each client's pre-tamper top-k selection from the
// round just run instead of selecting again. Selection emits the strongest
// entry first under a total order, so the probe must reproduce a fresh
// method's round(in, k') — update, uplink accounting, screening and robust
// stats — for every top-k method and defense configuration, and it must leave
// every client's threshold hint (read by the async event trigger) untouched.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sparsify/method.h"
#include "tensor/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedsparse::sparsify {
namespace {

constexpr std::size_t kDim = 8192;
constexpr std::size_t kClients = 10;

// Pure in (round, client, payload): clients 0 and 5 send a NaN (screening
// rejects them), client 2 inflates its payload (screening clips it).
class CorruptingTamper final : public UploadTamper {
 public:
  void apply(std::size_t, std::size_t client_id, SparseVector& payload) const override {
    if (payload.empty()) return;
    const std::size_t slot = client_id % kClients;
    if (slot == 0 || slot == 5) payload.back().value = std::numeric_limits<float>::quiet_NaN();
    if (slot == 2) {
      for (auto& e : payload) e.value *= 1.0e4f;
    }
  }
};

// Pure in (round, client, payload): a fixed cohort sends its update negated.
class SignFlipTamper final : public UploadTamper {
 public:
  void apply(std::size_t, std::size_t client_id, SparseVector& payload) const override {
    if (client_id % 4 != 1) return;
    for (auto& e : payload) e.value = -e.value;
  }
};

enum class Defense { kPlain, kTamperScreen, kSignFlipTrimmedMean };

struct Scenario {
  const char* method;
  Defense defense;
};

std::string scenario_label(const Scenario& s) {
  static const char* const kDefense[] = {"plain", "tamper_screen", "signflip_trimmed"};
  return std::string(s.method) + "_" + kDefense[static_cast<std::size_t>(s.defense)];
}

void PrintTo(const Scenario& s, std::ostream* os) { *os << scenario_label(s); }

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  return scenario_label(info.param);
}

class ProbeEngine : public ::testing::TestWithParam<Scenario> {
 protected:
  ProbeEngine() {
    // A shared signal plus per-client noise, so uploads overlap (FAB's κ
    // search and the robust reduce's support both have something to do).
    util::Rng rng(31);
    std::vector<float> signal(kDim);
    for (auto& x : signal) x = static_cast<float>(rng.normal());
    vecs_.assign(kClients, std::vector<float>(kDim));
    for (auto& v : vecs_) {
      for (std::size_t j = 0; j < kDim; ++j) {
        v[j] = signal[j] + static_cast<float>(rng.normal(0.0, 0.7));
      }
    }
    for (std::size_t s = 0; s < kClients; ++s) {
      ids_.push_back(3 * s + 1);  // stable ids that are not slot numbers
      weights_.push_back(static_cast<double>(s + 1));
    }
    double total = 0.0;
    for (const double w : weights_) total += w;
    for (double& w : weights_) w /= total;
    switch (GetParam().defense) {
      case Defense::kPlain:
        break;
      case Defense::kTamperScreen:
        tamper_ = &corrupt_;
        validation_.enabled = true;
        break;
      case Defense::kSignFlipTrimmedMean:
        tamper_ = &sign_flip_;
        robust_.enabled = true;
        robust_.kind = RobustKind::kTrimmedMean;
        break;
    }
  }

  RoundInput input(std::size_t round) const {
    RoundInput in;
    in.dim = kDim;
    in.round = round;
    in.data_weights = {weights_.data(), weights_.size()};
    in.client_ids = {ids_.data(), ids_.size()};
    in.tamper = tamper_;
    for (const auto& v : vecs_) in.client_vectors.push_back({v.data(), v.size()});
    return in;
  }

  std::unique_ptr<Method> make() const {
    auto m = make_method(GetParam().method, kDim, 5);
    m->set_sharding(3);
    m->set_validation(validation_);
    m->set_robust(robust_);
    return m;
  }

  std::vector<std::vector<float>> vecs_;
  std::vector<std::size_t> ids_;
  std::vector<double> weights_;
  CorruptingTamper corrupt_;
  SignFlipTamper sign_flip_;
  const UploadTamper* tamper_ = nullptr;
  ValidationConfig validation_;
  RobustConfig robust_;
};

void expect_same_probe(const RoundOutcome& probe, const RoundOutcome& fresh,
                       const std::string& label) {
  EXPECT_EQ(probe.update, fresh.update) << label;
  EXPECT_EQ(probe.uplink_values, fresh.uplink_values) << label;
  EXPECT_EQ(probe.client_uplink_values, fresh.client_uplink_values) << label;
  EXPECT_EQ(probe.downlink_values, fresh.downlink_values) << label;
  EXPECT_EQ(probe.validation.checked, fresh.validation.checked) << label;
  EXPECT_EQ(probe.validation.rejected, fresh.validation.rejected) << label;
  EXPECT_EQ(probe.validation.clipped, fresh.validation.clipped) << label;
  EXPECT_EQ(probe.validation.quarantined, fresh.validation.quarantined) << label;
  EXPECT_EQ(probe.validation.valid_fraction, fresh.validation.valid_fraction) << label;
  EXPECT_EQ(probe.validation.degraded, fresh.validation.degraded) << label;
  EXPECT_EQ(probe.robust.coords_robust, fresh.robust.coords_robust) << label;
  EXPECT_EQ(probe.robust.coords_thin, fresh.robust.coords_thin) << label;
  EXPECT_EQ(probe.robust.values_trimmed, fresh.robust.values_trimmed) << label;
  EXPECT_EQ(probe.robust.suspects, fresh.robust.suspects) << label;
  EXPECT_EQ(probe.robust.mean_trust, fresh.robust.mean_trust) << label;
}

TEST_P(ProbeEngine, PrefixProbeMatchesAFreshRoundAndKeepsHints) {
  util::ThreadPool pool(2);
  tensor::set_parallel_pool(&pool);
  const std::size_t k = 1200;
  // k' = 100 puts k past the hinted scan's survivor cap (8k' + 64), the case
  // where a re-selecting probe would overwrite the client's hint.
  for (const std::size_t k_probe : {std::size_t{1}, std::size_t{100}, std::size_t{700}, k - 1}) {
    const std::string label = "k'=" + std::to_string(k_probe);
    auto method = make();
    // Round 1 seeds the hints; round 2 selects through them.
    (void)method->round(input(1), k);
    const RoundOutcome full = method->round(input(2), k);
    std::vector<float> hints;
    for (const std::size_t id : ids_) hints.push_back(method->upload_threshold_hint(id, k));

    const RoundOutcome probe = method->probe_round(input(2), k_probe);
    const RoundOutcome fresh = make()->round(input(2), k_probe);
    expect_same_probe(probe, fresh, label);
    EXPECT_FALSE(probe.update.empty()) << label;
    EXPECT_NE(probe.update, full.update) << label;
    // The defense under test is live, not a bystander.
    if (GetParam().defense == Defense::kTamperScreen) {
      EXPECT_EQ(fresh.validation.rejected, 2u) << label;
      EXPECT_EQ(fresh.validation.clipped, 1u) << label;
    } else if (GetParam().defense == Defense::kSignFlipTrimmedMean && k_probe > 1) {
      EXPECT_GT(fresh.robust.coords_robust, 0u) << label;
    }
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      EXPECT_EQ(method->upload_threshold_hint(ids_[s], k), hints[s]) << label << " client " << s;
    }
  }
  tensor::set_parallel_pool(nullptr);
}

TEST_P(ProbeEngine, ProbeNeedsTheRoundItTakesPrefixesOf) {
  auto method = make();
  EXPECT_THROW((void)method->probe_round(input(1), 10), std::logic_error);
  (void)method->round(input(1), 50);
  EXPECT_THROW((void)method->probe_round(input(2), 10), std::logic_error);  // other round
  EXPECT_THROW((void)method->probe_round(input(1), 51), std::logic_error);  // deeper than k
  EXPECT_NO_THROW((void)method->probe_round(input(1), 10));
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ProbeEngine,
    ::testing::Values(Scenario{"fab_topk", Defense::kPlain},
                      Scenario{"fab_topk", Defense::kTamperScreen},
                      Scenario{"fab_topk", Defense::kSignFlipTrimmedMean},
                      Scenario{"fub_topk", Defense::kPlain},
                      Scenario{"fub_topk", Defense::kTamperScreen},
                      Scenario{"fub_topk", Defense::kSignFlipTrimmedMean},
                      Scenario{"unidirectional_topk", Defense::kPlain},
                      Scenario{"unidirectional_topk", Defense::kTamperScreen},
                      Scenario{"unidirectional_topk", Defense::kSignFlipTrimmedMean}),
    scenario_name);

}  // namespace
}  // namespace fedsparse::sparsify
