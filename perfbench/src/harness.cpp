#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>

#include "obs/metrics.h"

// --- allocation counter -------------------------------------------------------
// Replacement operator new/delete: every heap allocation in the process
// ticks one relaxed counter. Defined once, in this translation unit.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
thread_local std::uint64_t t_allocs = 0;
const perfbench::Clock::time_point g_process_start = perfbench::Clock::now();
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace perfbench {

Clock::time_point process_start() { return g_process_start; }

std::uint64_t heap_allocs() {
  return g_allocs.load(std::memory_order_relaxed);
}

std::uint64_t thread_heap_allocs() { return t_allocs; }

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0.0;
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

// --- SegmentClock / SegmentEstimator ----------------------------------------

std::uint64_t SegmentClock::allocs_now() const {
  return scope_ == Allocs::kThread ? thread_heap_allocs() : heap_allocs();
}

void SegmentClock::begin() {
  gaps.clear();
  layers.clear();
  fingerprint = kFingerprintSeed;
  allocs.fill(0);
  last_allocs_ = allocs_now();
  last_ = Clock::now();
}

void SegmentClock::mark(Layer layer, std::uint64_t fp) {
  const Clock::time_point now = Clock::now();
  gaps.push_back(seconds_between(last_, now));
  layers.push_back(layer);
  last_ = now;
  const std::uint64_t a = allocs_now();
  allocs[static_cast<std::size_t>(layer)] += a - last_allocs_;
  last_allocs_ = a;
  fingerprint = fold(fold(fingerprint, static_cast<std::uint64_t>(layer)), fp);
}

void SegmentClock::pause() { paused_at_ = Clock::now(); }

void SegmentClock::resume() {
  last_ += Clock::now() - paused_at_;
  last_allocs_ = allocs_now();
}

void SegmentClock::end() { mark(Layer::kOther, 0); }

double SegmentClock::total_seconds() const {
  double total = 0.0;
  for (const double g : gaps) total += g;
  return total;
}

void SegmentEstimator::add(const SegmentClock& repeat) {
  if (repeats_ == 0) {
    min_ = repeat.gaps;
    layer_ = repeat.layers;
    fingerprint_ = repeat.fingerprint;
  } else if (repeat.layers == layer_ && repeat.fingerprint == fingerprint_) {
    for (std::size_t i = 0; i < min_.size(); ++i) {
      min_[i] = std::min(min_[i], repeat.gaps[i]);
    }
  } else {
    consistent_ = false;
  }
  allocs_ = repeat.allocs;
  ++repeats_;
}

double SegmentEstimator::total_seconds() const {
  double total = 0.0;
  for (const double m : min_) total += m;
  return total;
}

double SegmentEstimator::layer_seconds(Layer layer) const {
  double total = 0.0;
  for (std::size_t i = 0; i < min_.size(); ++i) {
    if (layer_[i] == layer) total += min_[i];
  }
  return total;
}

// --- options and results ------------------------------------------------------

std::size_t repeats_for(const Options& options, double nominal_wave_s,
                        std::size_t parallel) {
  const double waves = std::max(
      2.0, std::ceil(static_cast<double>(options.seconds) / nominal_wave_s));
  return 1 + (static_cast<std::size_t>(waves) - 1) * std::max<std::size_t>(
                                                         1, parallel);
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

namespace {
const std::vector<std::string>& prof_sites() {
  static const std::vector<std::string> sites{
      "fl.client_train", "fl.evaluate", "tensor.gemm",
      "tensor.im2col",   "nn.conv_fwd", "nn.conv_bwd"};
  return sites;
}
}  // namespace

std::map<std::string, std::uint64_t> prof_counts() {
  const seafl::obs::Snapshot snap = seafl::obs::Registry::global().snapshot();
  std::map<std::string, std::uint64_t> out;
  for (const std::string& site : prof_sites()) {
    const auto it = snap.counters.find(site + ".calls");
    out[site] = it == snap.counters.end() ? 0 : it->second;
  }
  return out;
}

void add_layer_metrics(const LayerReport& r, Outcome& out) {
  const SegmentEstimator& t = *r.traced;
  auto put = [&](const std::string& name, double value, const char* unit) {
    out.metrics[name] = Metric{value, unit};
  };
  auto calls = [&](const std::string& site) {
    const auto it = r.prof_calls.find(site);
    return it == r.prof_calls.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double aggregate_s = t.layer_seconds(Layer::kAggregate);

  put("fl.client_train_s", t.layer_seconds(Layer::kTrain), "s");
  put("fl.client_train_calls", calls("fl.client_train"), "count");
  put("tensor.gemm_calls", calls("tensor.gemm"), "count");
  put("tensor.im2col_calls", calls("tensor.im2col"), "count");
  put("nn.conv_fwd_calls", calls("nn.conv_fwd"), "count");
  put("nn.conv_bwd_calls", calls("nn.conv_bwd"), "count");
  put("fl.evaluate_s", t.layer_seconds(Layer::kEvaluate), "s");
  put("fl.evaluate_calls", calls("fl.evaluate"), "count");
  put("fl.dispatch_s", t.layer_seconds(Layer::kDispatch), "s");
  put("sim.hazard_s", t.layer_seconds(Layer::kHazard), "s");
  put("sim.events", static_cast<double>(r.events_per_repeat), "count");
  put("fl.redispatches", static_cast<double>(r.redispatches), "count");
  put("fl.allocs_per_update",
      r.updates_per_repeat > 0.0
          ? static_cast<double>(r.run_allocs) / r.updates_per_repeat
          : 0.0,
      "count");
  put("compress.decode_s", t.layer_seconds(Layer::kDecode), "s");
  put("compress.decode_allocs",
      static_cast<double>(t.layer_allocs(Layer::kDecode)), "count");
  put("core.aggregate_s", aggregate_s, "s");
  put("core.aggregate_allocs",
      static_cast<double>(t.layer_allocs(Layer::kAggregate)), "count");
  put("core.aggregate_gbs",
      aggregate_s > 0.0 ? r.aggregate_bytes / aggregate_s / 1e9 : 0.0, "GB/s");
  put("net.decode_frame_s", t.layer_seconds(Layer::kFrame), "s");
  put("net.decode_frame_allocs",
      static_cast<double>(t.layer_allocs(Layer::kFrame)), "count");
  put("net.frame_bytes", r.frame_bytes, "bytes");
  put("ckpt.encode_s", t.layer_seconds(Layer::kCkptEncode), "s");
  put("ckpt.write_s", t.layer_seconds(Layer::kCkptWrite), "s");
  put("ckpt.load_s", t.layer_seconds(Layer::kCkptLoad), "s");
  put("ckpt.bytes", r.checkpoint_bytes, "bytes");
  put("unattributed_s", t.layer_seconds(Layer::kOther), "s");
  put("trace_overhead_s", t.total_seconds() - r.untraced_seconds, "s");
}

}  // namespace perfbench
