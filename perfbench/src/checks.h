// Output checks of the three workloads. Each compares what the program
// produced against a property of the method or an independent total, never
// against a stored copy of an earlier output. selftest.cpp feeds every check
// a deliberately corrupted output and requires it to fail.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/registry.h"
#include "fl/types.h"
#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

/// Rebuilds protocol facts from a simulation's trace journal, online, so a
/// million-client run never stores its journal.
class JournalAudit {
 public:
  void record(const seafl::obs::TraceEvent& e);

  std::uint64_t events() const { return events_; }
  /// kUpload events: uploads delivered to the server.
  std::uint64_t uploads() const { return uploads_; }
  /// Updates consumed by kAggregate events.
  std::uint64_t aggregated() const { return aggregated_; }
  /// Staleness of every aggregated update, rebuilt as (round before the
  /// aggregation) - (base round of its upload).
  std::uint64_t max_staleness() const { return max_staleness_; }
  double mean_staleness() const {
    return aggregated_ ? staleness_sum_ / static_cast<double>(aggregated_)
                       : 0.0;
  }
  /// kAggregate events whose update count differs from the uploads buffered
  /// since the previous aggregation.
  std::uint64_t buffer_mismatches() const { return buffer_mismatches_; }
  std::uint64_t crashes() const { return crashes_; }
  /// Uploads delivered by a session after that session's kCrash.
  std::uint64_t crashed_uploads() const { return crashed_uploads_; }

 private:
  std::uint64_t events_ = 0;
  std::uint64_t uploads_ = 0;
  std::uint64_t aggregated_ = 0;
  std::uint64_t max_staleness_ = 0;
  double staleness_sum_ = 0.0;
  std::uint64_t buffer_mismatches_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t crashed_uploads_ = 0;
  std::vector<std::uint64_t> pending_base_rounds_;
  std::unordered_set<std::size_t> crashed_;
};

/// Fingerprint of every field of a trace event.
std::uint64_t event_fingerprint(const seafl::obs::TraceEvent& e);

/// Bitwise equality of two models.
bool same_bits(std::span<const float> a, std::span<const float> b);

/// Top-1 accuracy of `weights` on the whole test set, from a plain forward
/// loop over the task's model.
double test_accuracy(const seafl::FlTask& task,
                     const seafl::ModelVector& weights);

/// The receiver decodes `received`; re-encoding what it decoded must give
/// back exactly the bytes the sender framed (`sent`).
bool frame_roundtrips(const std::string& sent, const std::string& received);

/// Every decoded coordinate lies within one quantization step of the value
/// the client encoded.
bool within_one_step(std::span<const float> decoded,
                     std::span<const float> source, double step);

/// An update as the reference aggregation sees it.
struct RefUpdate {
  std::span<const float> weights;
  std::uint64_t base_round = 0;
  std::size_t num_samples = 0;
};

/// Eqs. 4-8 in double precision with the paper's defaults (alpha = 3,
/// mu = 1, beta = 10, vartheta = 0.8): staleness factor, delta-cosine
/// importance, data-weighted normalisation, weighted average and server
/// mixing.
std::vector<double> reference_round(std::span<const float> global,
                                    std::span<const RefUpdate> updates,
                                    std::uint64_t round);

/// Largest |got - want| / max(1, |want|).
double max_rel_error(std::span<const float> got, std::span<const double> want);

/// Running per-coordinate bounds of a set of vectors.
struct Hull {
  std::vector<float> lo, hi;
  void add(std::span<const float> v);
  /// Every coordinate of `v` within the bounds (up to float rounding).
  bool contains(std::span<const float> v) const;
};

/// Flipping one byte of an encoded checkpoint makes decoding fail.
bool flipped_byte_rejected(const std::string& bytes, std::size_t at);

}  // namespace perfbench
