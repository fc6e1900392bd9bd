#include "sparsify/quantize.h"

#include <cmath>
#include <stdexcept>

namespace fedsparse::sparsify {

StochasticQuantizer::StochasticQuantizer(const QuantizerConfig& cfg)
    : levels_(cfg.levels), rng_(cfg.seed) {
  if (levels_ == 0) throw std::invalid_argument("StochasticQuantizer: levels must be positive");
}

float StochasticQuantizer::quantize(SparseVector& sv) {
  // Non-finite entries poison the shared scale (a NaN never raises the max,
  // so it survives rescaling untouched; an Inf drives the scale to Inf,
  // collapsing every finite entry to 0 and turning Inf/Inf into NaN). Zero
  // them out instead: they carry no usable magnitude, and the payload stays
  // finite no matter what upstream fed us.
  float scale = 0.0f;
  for (auto& e : sv) {
    if (!std::isfinite(e.value)) {
      e.value = 0.0f;
      continue;
    }
    scale = std::max(scale, std::fabs(e.value));
  }
  if (scale == 0.0f) return 0.0f;
  const auto levels = static_cast<float>(levels_);
  for (auto& e : sv) {
    const float normalized = std::fabs(e.value) / scale * levels;  // in [0, levels]
    const float floor_val = std::floor(normalized);
    const float frac = normalized - floor_val;
    // Stochastic rounding keeps the quantizer unbiased.
    const float bucket = floor_val + (rng_.uniform() < frac ? 1.0f : 0.0f);
    const float magnitude = bucket / levels * scale;
    e.value = e.value < 0.0f ? -magnitude : magnitude;
  }
  return scale;
}

double StochasticQuantizer::bits_per_value() const noexcept {
  return std::log2(static_cast<double>(levels_) + 1.0) + 1.0;  // + sign bit
}

QuantizedMethod::QuantizedMethod(std::unique_ptr<Method> inner, const QuantizerConfig& cfg)
    : inner_(std::move(inner)), quantizer_(cfg), levels_(cfg.levels) {
  if (!inner_) throw std::invalid_argument("QuantizedMethod: null inner method");
}

double QuantizedMethod::rescale(double values) const noexcept {
  // One "value" in the timing model is a 32-bit float. An index/value pair is
  // 2 values; quantization shrinks the value half only:
  //   2k values -> k·(1 + bits/32) values.
  const double bits = quantizer_.bits_per_value();
  return values * 0.5 * (1.0 + bits / 32.0);
}

RoundOutcome QuantizedMethod::round(const RoundInput& in, std::size_t k) {
  return compress(inner_->round(in, k), quantizer_);
}

RoundOutcome QuantizedMethod::probe_round(const RoundInput& in, std::size_t k) {
  // A copy of the quantizer: the probe draws what the next round would, but
  // leaves the stream the next round() draws from untouched.
  StochasticQuantizer probe_quantizer = quantizer_;
  return compress(inner_->probe_round(in, k), probe_quantizer);
}

RoundOutcome QuantizedMethod::compress(RoundOutcome out, StochasticQuantizer& quantizer) const {
  if (out.kind == RoundOutcome::Kind::kSparseUpdate) {
    quantizer.quantize(out.update);
    out.uplink_values = rescale(out.uplink_values);
    out.downlink_values = rescale(out.downlink_values);
    for (auto& v : out.client_uplink_values) v = rescale(v);
  }
  return out;
}

}  // namespace fedsparse::sparsify
