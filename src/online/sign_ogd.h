// Algorithm 2: online learning for k from the (estimated) derivative sign.
//
//   k_{m+1} = P_K(k_m − δ_m · ŝ_m),   δ_m = B / √(2m),   K = [kmin, kmax].
//
// Regret: R(M) ≤ GB√(2M) with exact signs (Theorem 1) and
// E[R(M)] ≤ GHB√(2M) with estimated signs (Theorem 2). The round counter m
// advances every round; when the sign estimate is invalid the value of k is
// left unchanged for that round (Section IV-E).
#pragma once

#include "online/controller.h"
#include "online/estimator.h"

namespace fedsparse::online {

class SignOgd : public KController {
 public:
  struct Config {
    double kmin = 1.0;
    double kmax = 1.0;
    double initial_k = 0.0;  // <=0 => midpoint of [kmin, kmax]
  };

  explicit SignOgd(const Config& cfg);

  std::string name() const override { return "sign_ogd"; }
  double current_k() const override { return k_; }
  /// k'_m = k_m − δ_m/2, kept inside [kmin, kmax] and distinct from k_m.
  double probe_k() const override;
  void observe(const RoundFeedback& fb) override;

  /// Direct sign feeding (exact-sign experiments / regret tests). Advances m.
  void observe_sign(int sign);

  double delta() const;  // δ_m for the upcoming update
  std::size_t round_index() const noexcept { return m_; }

 protected:
  double project(double k) const;

  double kmin_;
  double kmax_;
  double k_;
  std::size_t m_ = 1;  // index of the upcoming update
};

}  // namespace fedsparse::online
