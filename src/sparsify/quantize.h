// Gradient quantization — the compression axis the paper calls orthogonal to
// GS ("there exist other model compression techniques such as quantization
// [30], which ... can be applied together with GS").
//
// Implements the standard stochastic uniform quantizer (QSGD-style): values
// are scaled into `levels` buckets per sign and rounded stochastically so the
// quantizer is unbiased: E[dequantize(quantize(v))] = v. The combination with
// any k-element GS method is provided by QuantizedMethod, which wraps a
// Method and rescales the timing model's "values" by the compressed bit
// width (a float counts as 32 bits; indices stay full width).
#pragma once

#include <cstdint>
#include <memory>

#include "sparsify/method.h"
#include "util/rng.h"

namespace fedsparse::sparsify {

struct QuantizerConfig {
  /// Quantization levels per sign; 2^b − 1 levels ≈ b bits per value.
  std::uint32_t levels = 15;  // ≈ 4-bit
  std::uint64_t seed = 1;
};

/// Stochastic uniform quantizer over a sparse vector's values. The scale is
/// the max |value| of the vector (transmitted alongside, one float).
class StochasticQuantizer {
 public:
  explicit StochasticQuantizer(const QuantizerConfig& cfg);

  /// Quantizes in place; returns the scale used (0 for an empty/zero input).
  float quantize(SparseVector& sv);

  /// Bits per transmitted value at this level count (excluding the index).
  double bits_per_value() const noexcept;

  std::uint32_t levels() const noexcept { return levels_; }

 private:
  std::uint32_t levels_;
  util::Rng rng_;
};

/// Wraps a GS method so its downlink payload is quantized and the
/// communication accounting reflects the reduced bit width. Uplink values are
/// also charged at the quantized width (clients quantize symmetrically in a
/// real deployment; here the aggregation itself stays exact on the uplink —
/// only the *accounting* changes — while the downlink values are truly
/// quantized, which is where the model update error enters). The engine's
/// configuration (sharding, screening, robust aggregation) and the upload
/// threshold hints pass through to the wrapped method.
class QuantizedMethod final : public Method {
 public:
  QuantizedMethod(std::unique_ptr<Method> inner, const QuantizerConfig& cfg);

  std::string name() const override { return inner_->name() + "+q" + std::to_string(levels_); }
  bool local_update_style() const override { return inner_->local_update_style(); }
  RoundOutcome round(const RoundInput& in, std::size_t k) override;
  RoundOutcome probe_round(const RoundInput& in, std::size_t k) override;

  void set_sharding(std::size_t shards) override { inner_->set_sharding(shards); }
  void set_validation(const ValidationConfig& cfg) override { inner_->set_validation(cfg); }
  void set_robust(const RobustConfig& cfg) override { inner_->set_robust(cfg); }
  float upload_threshold_hint(std::size_t client_id, std::size_t k) const override {
    return inner_->upload_threshold_hint(client_id, k);
  }

 private:
  /// Quantizes a sparse update with `quantizer` and rescales its accounting.
  RoundOutcome compress(RoundOutcome out, StochasticQuantizer& quantizer) const;
  double rescale(double values) const noexcept;

  std::unique_ptr<Method> inner_;
  StochasticQuantizer quantizer_;
  std::uint32_t levels_;
};

}  // namespace fedsparse::sparsify
