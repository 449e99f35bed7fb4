// Measurement plumbing shared by the three workloads: the segment-minimum
// time estimator, the allocation counter, peak RSS, and the result line.
//
// Why segments: on a shared host, floating-point throughput swings by ~2x
// in episodes of about a second, so one whole-run time is mostly noise
// (README.md, "Estimator"). A run instead repeats its workload R times in
// one process and cuts every repeat into the same deterministic sequence of
// segments: the gaps between consecutive trace events of a simulation, or
// the benchmark's own calls into a layer. The run's time is the sum over
// segments of each segment's minimum across the R repeats; a slow episode
// has to hit the same segment in every repeat (taken at different times
// and, in the simulations, on different CPUs) to count.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Steady-clock time at static initialisation of the binary, the start of
/// the cold set-up that setup_s measures.
Clock::time_point process_start();

/// Heap allocations (every operator new) since the process started, in the
/// whole process and on the calling thread.
std::uint64_t heap_allocs();
std::uint64_t thread_heap_allocs();

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mib();

/// CPUs this process may run on.
std::size_t usable_cpus();

/// What a segment is attributed to. Each maps to one per-layer metric.
enum class Layer : std::uint8_t {
  kDispatch,     ///< fl.dispatch_s: selection + session set-up
  kTrain,        ///< fl.client_train_s: local training at upload
  kDecode,       ///< compress.decode_s: codec encode/decode of an upload
  kAggregate,    ///< core.aggregate_s: screening + SEAFL weights + mix
  kEvaluate,     ///< fl.evaluate_s: global-model evaluation
  kHazard,       ///< sim.hazard_s: crash, deadline, loss and retry events
  kFrame,        ///< net.decode_frame_s: wire frame decode
  kCkptEncode,   ///< ckpt.encode_s
  kCkptWrite,    ///< ckpt.write_s
  kCkptLoad,     ///< ckpt.load_s
  kOther,        ///< unattributed_s
  kCount,
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// Folds one value into a running FNV-1a style fingerprint.
inline std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}
inline constexpr std::uint64_t kFingerprintSeed = 0xcbf29ce484222325ull;

/// One repeat's segments, timed on the calling thread: begin(), then mark()
/// at the end of every segment, pause() before untimed work (checks,
/// client-side preparation) and resume() after it, then end().
class SegmentClock {
 public:
  /// Whose allocations the per-layer counts take: the calling thread's
  /// (a repeat running beside others) or the whole process' (a repeat
  /// running alone, with kernels on the pool).
  enum class Allocs { kThread, kProcess };
  explicit SegmentClock(Allocs scope = Allocs::kThread) : scope_(scope) {}

  void begin();
  /// Closes the segment that started at the previous mark (or resume).
  void mark(Layer layer, std::uint64_t fingerprint);
  /// Time from here to resume() belongs to no segment; allocations made in
  /// between are dropped from the per-layer counts.
  void pause();
  void resume();
  /// Closes the tail segment (attributed to kOther).
  void end();
  /// Sum of this repeat's segments.
  double total_seconds() const;

  std::vector<double> gaps;
  std::vector<Layer> layers;
  std::uint64_t fingerprint = kFingerprintSeed;
  /// This thread's heap allocations inside each layer's segments.
  std::array<std::uint64_t, kLayers> allocs{};

 private:
  std::uint64_t allocs_now() const;

  Allocs scope_;
  Clock::time_point last_{};
  Clock::time_point paused_at_{};
  std::uint64_t last_allocs_ = 0;
};

/// Folds repeats into per-segment minima (see file comment). Every repeat
/// must produce the same segments with the same fingerprints; consistent()
/// reports whether they did.
class SegmentEstimator {
 public:
  void add(const SegmentClock& repeat);

  /// Estimated seconds of one repeat: sum of per-segment minima.
  double total_seconds() const;
  /// The part of total_seconds() attributed to `layer`.
  double layer_seconds(Layer layer) const;
  /// Heap allocations inside `layer`'s segments in the last repeat added
  /// (the first repeat also pays one-off arena growth).
  std::uint64_t layer_allocs(Layer layer) const {
    return allocs_[static_cast<std::size_t>(layer)];
  }
  std::size_t segments() const { return min_.size(); }
  bool consistent() const { return consistent_; }

 private:
  std::vector<double> min_;
  std::vector<Layer> layer_;
  std::uint64_t fingerprint_ = 0;
  std::size_t repeats_ = 0;
  bool consistent_ = true;
  std::array<std::uint64_t, kLayers> allocs_{};
};

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string scratch = ".";
};

/// Repeats a run makes. A run is at least two waves: repeat 0 alone, then
/// waves of `parallel` repeats side by side, as many as fit in --seconds at
/// a fixed nominal cost per wave, so R never depends on the host's speed.
std::size_t repeats_for(const Options& options, double nominal_wave_s,
                        std::size_t parallel);

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  std::vector<std::string> failures;  ///< one line per failed check
  std::uint64_t attempted = 0;        ///< client updates ingested, all repeats
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  /// Records a check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);
};

/// Per-layer metrics of a traced estimator plus the SEAFL_PROF_SCOPE call
/// counts gathered while it ran. Every workload reports the full set; a
/// layer a workload does not exercise reads 0.
struct LayerReport {
  const SegmentEstimator* traced = nullptr;
  double untraced_seconds = 0.0;
  std::map<std::string, std::uint64_t> prof_calls;  ///< per repeat
  double updates_per_repeat = 0.0;
  std::uint64_t events_per_repeat = 0;
  std::uint64_t redispatches = 0;
  std::uint64_t run_allocs = 0;         ///< last traced repeat, whole run
  double aggregate_bytes = 0.0;         ///< per repeat, core.aggregate_gbs
  double frame_bytes = 0.0;             ///< per frame
  double checkpoint_bytes = 0.0;        ///< per checkpoint
};
void add_layer_metrics(const LayerReport& report, Outcome& out);

/// Current call count of every SEAFL_PROF_SCOPE site whose per-repeat
/// count the traced run reports, keyed by site name.
std::map<std::string, std::uint64_t> prof_counts();

}  // namespace perfbench
