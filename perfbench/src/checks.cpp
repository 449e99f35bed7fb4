#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "ckpt/checkpoint.h"
#include "data/registry.h"
#include "net/wire.h"
#include "nn/model_zoo.h"

namespace perfbench {

using seafl::obs::TraceEventKind;

void JournalAudit::record(const seafl::obs::TraceEvent& e) {
  ++events_;
  switch (e.kind) {
    case TraceEventKind::kAssigned:
      crashed_.erase(e.client);  // a fresh session
      break;
    case TraceEventKind::kCrash:
      ++crashes_;
      crashed_.insert(e.client);
      break;
    case TraceEventKind::kUpload:
      ++uploads_;
      if (crashed_.count(e.client) != 0) ++crashed_uploads_;
      pending_base_rounds_.push_back(e.base_round);
      break;
    case TraceEventKind::kAggregate: {
      // e.round is the round after advancing; the updates were aggregated
      // at e.round - 1.
      if (e.updates != pending_base_rounds_.size() || e.round == 0) {
        ++buffer_mismatches_;
      }
      const std::uint64_t round = e.round == 0 ? 0 : e.round - 1;
      for (const std::uint64_t base : pending_base_rounds_) {
        const std::uint64_t s = base <= round ? round - base : ~0ull;
        max_staleness_ = std::max(max_staleness_, s);
        staleness_sum_ += static_cast<double>(s);
      }
      aggregated_ += pending_base_rounds_.size();
      pending_base_rounds_.clear();
      break;
    }
    default:
      break;
  }
}

std::uint64_t event_fingerprint(const seafl::obs::TraceEvent& e) {
  std::uint64_t h = kFingerprintSeed;
  h = fold(h, static_cast<std::uint64_t>(e.kind));
  h = fold(h, std::bit_cast<std::uint64_t>(e.time));
  h = fold(h, e.client);
  h = fold(h, e.round);
  h = fold(h, e.base_round);
  h = fold(h, e.epochs);
  h = fold(h, e.updates);
  h = fold(h, std::bit_cast<std::uint64_t>(e.value));
  return h;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double test_accuracy(const seafl::FlTask& task,
                     const seafl::ModelVector& weights) {
  const auto model =
      seafl::make_model(task.default_model, task.input, task.num_classes)();
  model->set_parameters(weights);
  constexpr std::size_t kBatch = 100;
  const std::size_t n = task.test.size();
  std::vector<std::size_t> indices;
  seafl::Tensor features;
  std::vector<std::int32_t> labels;
  std::size_t correct = 0;
  for (std::size_t start = 0; start < n; start += kBatch) {
    const std::size_t take = std::min(kBatch, n - start);
    indices.resize(take);
    for (std::size_t i = 0; i < take; ++i) indices[i] = start + i;
    task.test.gather(indices, features, labels, /*as_images=*/false);
    const seafl::Tensor& logits = model->forward(features, /*train=*/false);
    const std::size_t classes = logits.dim(1);
    for (std::size_t i = 0; i < take; ++i) {
      const float* row = logits.data() + i * classes;
      const auto best = static_cast<std::int32_t>(
          std::max_element(row, row + classes) - row);
      if (best == labels[i]) ++correct;
    }
  }
  return n ? static_cast<double>(correct) / static_cast<double>(n) : 0.0;
}

bool frame_roundtrips(const std::string& sent, const std::string& received) {
  const seafl::net::DecodeResult d =
      seafl::net::decode_frame(received.data(), received.size());
  return d.status == seafl::net::DecodeStatus::kOk &&
         d.consumed == received.size() &&
         seafl::net::encode_frame(d.message) == sent;
}

bool within_one_step(std::span<const float> decoded,
                     std::span<const float> source, double step) {
  if (decoded.size() != source.size() || !(step > 0.0)) return false;
  // Stochastic rounding moves a value by less than one grid step; the slack
  // covers float rounding of base + q * step.
  const double bound = step * (1.0 + 1e-5);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (!(std::abs(static_cast<double>(decoded[i]) - source[i]) <= bound)) {
      return false;
    }
  }
  return true;
}

std::vector<double> reference_round(std::span<const float> global,
                                    std::span<const RefUpdate> updates,
                                    std::uint64_t round) {
  constexpr double kAlpha = 3.0, kMu = 1.0, kBeta = 10.0, kVartheta = 0.8;
  const std::size_t dim = global.size();
  double global_norm = 0.0;
  for (const float g : global) global_norm += static_cast<double>(g) * g;
  global_norm = std::sqrt(global_norm);

  std::size_t total_samples = 0;
  for (const RefUpdate& u : updates) total_samples += u.num_samples;

  std::vector<double> raw(updates.size());
  double raw_sum = 0.0;
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const RefUpdate& u = updates[k];
    const double staleness = static_cast<double>(round - u.base_round);
    const double gamma = kAlpha * kBeta / (staleness + kBeta);      // Eq. 4
    double dot = 0.0, delta_norm = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = static_cast<double>(u.weights[i]) - global[i];
      dot += d * global[i];
      delta_norm += d * d;
    }
    delta_norm = std::sqrt(delta_norm);
    const double theta = (delta_norm > 0.0 && global_norm > 0.0)
                             ? dot / (delta_norm * global_norm)
                             : 0.0;
    const double importance = kMu * (theta + 1.0) / 2.0;            // Eq. 5
    const double data = static_cast<double>(u.num_samples) /
                        static_cast<double>(total_samples);
    raw[k] = data * (gamma + importance);                           // Eq. 6
    raw_sum += raw[k];
  }
  std::vector<double> out(dim, 0.0);
  for (std::size_t k = 0; k < updates.size(); ++k) {                // Eq. 7
    const double w = raw[k] / raw_sum;
    for (std::size_t i = 0; i < dim; ++i) out[i] += w * updates[k].weights[i];
  }
  for (std::size_t i = 0; i < dim; ++i) {                           // Eq. 8
    out[i] = (1.0 - kVartheta) * global[i] + kVartheta * out[i];
  }
  return out;
}

double max_rel_error(std::span<const float> got,
                     std::span<const double> want) {
  if (got.size() != want.size()) return INFINITY;
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double err = std::abs(static_cast<double>(got[i]) - want[i]) /
                       std::max(1.0, std::abs(want[i]));
    if (!(err <= worst)) worst = std::isnan(err) ? INFINITY : err;
  }
  return worst;
}

void Hull::add(std::span<const float> v) {
  if (lo.empty()) {
    lo.assign(v.begin(), v.end());
    hi.assign(v.begin(), v.end());
    return;
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    lo[i] = std::min(lo[i], v[i]);
    hi[i] = std::max(hi[i], v[i]);
  }
}

bool Hull::contains(std::span<const float> v) const {
  if (v.size() != lo.size()) return false;
  for (std::size_t i = 0; i < v.size(); ++i) {
    // A convex combination evaluated in float can overshoot its bounds by a
    // few ulps (the weights sum to 1 only up to rounding).
    const float slack = 1e-6f * std::max(1.0f, std::abs(v[i]));
    if (!(v[i] >= lo[i] - slack && v[i] <= hi[i] + slack)) return false;
  }
  return true;
}

bool flipped_byte_rejected(const std::string& bytes, std::size_t at) {
  std::string corrupt = bytes;
  corrupt[at % corrupt.size()] ^= 0x5a;
  seafl::ckpt::RunCheckpoint out;
  return seafl::ckpt::decode_checkpoint(corrupt.data(), corrupt.size(), out) !=
         seafl::ckpt::DecodeStatus::kOk;
}

}  // namespace perfbench
