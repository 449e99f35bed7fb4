// Self-tests of the output checks: each check must hold on a clean output
// and fail on one deliberately corrupted in a single place — one flipped
// frame byte, one perturbed aggregated coordinate, one perturbed final
// weight, one changed trace event. A check that cannot fail proves nothing.
#include <cmath>

#include "checks.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "core/seafl.h"
#include "core/seafl_strategy.h"
#include "fl/server_core.h"
#include "net/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kDim = 4096;

std::vector<float> random_vector(seafl::Rng& rng, double scale) {
  std::vector<float> v(kDim);
  for (float& x : v) x = static_cast<float>(scale * rng.normal());
  return v;
}

/// One flipped byte of an int8 upload frame.
void frame_byte(std::vector<std::string>& failures) {
  seafl::Rng rng(7);
  const std::vector<float> base = random_vector(rng, 0.05);
  std::vector<float> trained = base;
  for (float& w : trained) w += static_cast<float>(0.01 * rng.normal());
  seafl::compress::CompressionConfig config;
  seafl::compress::apply_codec_name(config, "int8");
  const auto codec = seafl::compress::make_codec(config);

  seafl::net::CompressedUploadMsg msg;
  msg.client = 3;
  msg.num_samples = 40;
  msg.epochs_completed = 5;
  msg.update = codec->encode(trained, base, nullptr, 3, 0, 1);
  const std::string sent =
      seafl::net::encode_frame(seafl::net::Message{msg});
  if (!frame_roundtrips(sent, sent)) failures.push_back("frame: clean frame rejected");
  if (!within_one_step(codec->decode(msg.update, base), trained,
                       msg.update.scale)) {
    failures.push_back("frame: clean decode off by more than one step");
  }
  std::string received = sent;
  received[received.size() - 100] ^= 0x01;  // a payload byte
  if (frame_roundtrips(sent, received)) {
    failures.push_back("frame: a flipped byte went unnoticed");
  }
}

/// One perturbed coordinate of an aggregated global model.
void aggregated_coordinate(std::vector<std::string>& failures) {
  constexpr std::size_t kUpdates = 8;
  seafl::RunConfig config;
  config.buffer_size = kUpdates;
  config.concurrency = kUpdates;
  config.staleness_limit = 10;
  seafl::SeaflStrategy strategy(seafl::SeaflConfig{});
  seafl::ServerCore core(&strategy, config);
  seafl::Rng rng(11);
  const std::vector<float> initial = random_vector(rng, 0.05);
  core.begin(initial, kUpdates);

  Hull hull;
  hull.add(initial);
  std::vector<std::vector<float>> weights;
  std::vector<RefUpdate> refs;
  for (std::size_t k = 0; k < kUpdates; ++k) {
    std::vector<float> w = initial;
    for (float& x : w) x += static_cast<float>(0.01 * rng.normal());
    weights.push_back(std::move(w));
  }
  for (std::size_t k = 0; k < kUpdates; ++k) {
    hull.add(weights[k]);
    refs.push_back({weights[k], 0, 30 + 5 * k});
    seafl::LocalUpdate u;
    u.client = k;
    u.num_samples = 30 + 5 * k;
    u.epochs_completed = config.local_epochs;
    u.weights = weights[k];
    core.add_update(std::move(u));
  }
  const std::vector<double> reference =
      reference_round(initial, refs, 0);
  static const std::vector<std::uint64_t> kNoInFlight;
  core.try_aggregate(1.0, kNoInFlight, nullptr);
  std::vector<float> global = core.global();
  if (!hull.contains(global) || max_rel_error(global, reference) > 1e-5) {
    failures.push_back("aggregate: clean round rejected");
  }
  global[kDim / 2] = hull.hi[kDim / 2] + 0.01f;
  if (hull.contains(global)) {
    failures.push_back("aggregate: hull missed a perturbed coordinate");
  }
  if (max_rel_error(global, reference) <= 1e-5) {
    failures.push_back("aggregate: reference missed a perturbed coordinate");
  }
}

/// One perturbed final weight between two repeats.
void final_weight(std::vector<std::string>& failures) {
  seafl::Rng rng(13);
  const std::vector<float> a = random_vector(rng, 0.05);
  std::vector<float> b = a;
  if (!same_bits(a, b)) failures.push_back("final: equal models differ");
  b[17] = std::nextafter(b[17], 1.0f);
  if (same_bits(a, b)) failures.push_back("final: a one-ulp change went unnoticed");
}

/// One changed event of a real simulation's trace journal.
void trace_event(std::vector<std::string>& failures) {
  seafl::TaskSpec spec;
  spec.num_clients = 20;
  spec.samples_per_client = 20;
  spec.test_samples = 50;
  const seafl::FlTask task = seafl::make_task(spec);
  seafl::FleetConfig fc;
  fc.num_devices = spec.num_clients;
  const seafl::Fleet fleet(fc);
  seafl::ExperimentParams params;
  params.concurrency = 10;
  params.buffer_size = 5;
  params.local_epochs = 1;
  params.max_rounds = 4;
  params.stop_at_target = false;
  seafl::obs::TraceJournal journal;
  const seafl::RunResult result =
      seafl::run_arm("seafl", params, task, fleet, &journal);

  std::vector<seafl::obs::TraceEvent> changed = journal.events();
  for (auto& e : changed) {
    if (e.kind == seafl::obs::TraceEventKind::kUpload) {
      e.kind = seafl::obs::TraceEventKind::kUploadLost;
      break;
    }
  }
  auto audit = [&](const std::vector<seafl::obs::TraceEvent>& events) {
    JournalAudit a;
    for (const auto& e : events) a.record(e);
    return a.buffer_mismatches() == 0 &&
           a.aggregated() == result.total_updates &&
           a.max_staleness() <= params.staleness_limit &&
           a.mean_staleness() == result.mean_staleness;
  };
  auto replay = [](SegmentEstimator& est,
                   const std::vector<seafl::obs::TraceEvent>& events) {
    SegmentClock clock;
    clock.begin();
    for (const auto& e : events) clock.mark(Layer::kOther, event_fingerprint(e));
    clock.end();
    est.add(clock);
  };
  if (!audit(journal.events())) failures.push_back("trace: clean journal rejected");
  if (audit(changed)) failures.push_back("trace: audit missed a changed event");
  SegmentEstimator same, differ;
  replay(same, journal.events());
  replay(same, journal.events());
  replay(differ, journal.events());
  replay(differ, changed);
  if (!same.consistent()) failures.push_back("trace: equal repeats differ");
  if (differ.consistent()) {
    failures.push_back("trace: repeat comparison missed a changed event");
  }
}

}  // namespace

std::vector<std::string> run_selftests() {
  std::vector<std::string> failures;
  frame_byte(failures);
  aggregated_coordinate(failures);
  final_weight(failures);
  trace_event(failures);
  return failures;
}

}  // namespace perfbench
