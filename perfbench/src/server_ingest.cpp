// server_ingest: the deploy server's ingest path for a 2^20-parameter model
// with K = 16 int8 uploads per round, on the thread pool. Each upload goes
// through net::decode_frame, then ServerCore::add_encoded_update, then
// try_aggregate (screening, SEAFL weights, mixing); every kCheckpointEvery
// rounds the server state is encoded, written and loaded back. Same
// compress/core layers as population_1m, but bandwidth-bound at a large
// dimension instead of per-call-bound at a small one; the only workload for
// net and ckpt. No training.
//
// Timed segments are the benchmark's own calls into those layers. The
// client side (training stand-in, int8 encode, framing) and every check run
// between SegmentClock::pause() and resume(), outside the estimate.
#include <cstdio>
#include <filesystem>

#include "checks.h"
#include "ckpt/checkpoint.h"
#include "ckpt/store.h"
#include "common/thread_pool.h"
#include "common/rng.h"
#include "core/screening.h"
#include "core/seafl_strategy.h"
#include "fl/server_core.h"
#include "net/wire.h"
#include "obs/profile.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kDim = std::size_t{1} << 20;
constexpr std::size_t kK = 16;
constexpr std::uint64_t kRounds = 24;
constexpr std::uint64_t kCheckpointEvery = 8;
constexpr std::size_t kCheckpointKeep = 2;
/// Client k trains from the global model of round r - (k % kStaleSpan), so
/// each buffer mixes staleness 0..3.
constexpr std::uint64_t kStaleSpan = 4;
constexpr std::uint64_t kBeta = 10;
/// The round compared with the double-precision reference. Later rounds
/// mix in stale updates whose deltas screening clips, which Eqs. 4-8 do
/// not model.
constexpr std::uint64_t kReferenceRound = 0;
constexpr double kReferenceTolerance = 1e-5;

/// The clients' inputs: the initial model and one update direction per
/// client (a shared trend plus client noise), generated from the seed.
struct ClientInputs {
  std::vector<float> initial;
  std::vector<std::vector<float>> direction;
};

ClientInputs make_inputs(std::uint64_t seed) {
  seafl::Rng rng(seed, seafl::RngPurpose::kDataGen, 0x1a9e57);
  ClientInputs in;
  in.initial.resize(kDim);
  for (float& w : in.initial) w = static_cast<float>(0.05 * rng.normal());
  std::vector<float> trend(kDim);
  for (float& t : trend) t = static_cast<float>(rng.normal());
  in.direction.assign(kK, std::vector<float>(kDim));
  for (auto& dir : in.direction) {
    for (std::size_t j = 0; j < kDim; ++j) {
      dir[j] = 0.01f * (trend[j] + static_cast<float>(rng.normal()));
    }
  }
  return in;
}

/// What client `k` uploads after training from `base` in round `round`.
void trained_model(const ClientInputs& in, std::size_t k, std::uint64_t round,
                   const std::vector<float>& base, std::vector<float>& out) {
  const float step = 1.0f / (1.0f + 0.1f * static_cast<float>(round));
  out.resize(kDim);
  for (std::size_t j = 0; j < kDim; ++j) {
    out[j] = base[j] + step * in.direction[k][j];
  }
}

std::uint64_t base_round_of(std::size_t k, std::uint64_t round) {
  const std::uint64_t lag = k % kStaleSpan;
  return round >= lag ? round - lag : 0;
}

std::size_t samples_of(std::size_t k) { return 40 + 8 * k; }

/// The server objects one repeat rebuilds. Not movable: the core keeps
/// pointers to the strategy and config.
struct Server {
  explicit Server(std::uint64_t seed)
      : config(make_config(seed)),
        strategy(std::make_unique<seafl::SeaflStrategy>(make_seafl()),
                 make_screening()),
        core(&strategy, config),
        encoder(seafl::compress::make_codec(config.compression)) {}
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  static seafl::RunConfig make_config(std::uint64_t seed) {
    seafl::RunConfig c;
    c.buffer_size = kK;
    c.concurrency = kK;
    c.staleness_limit = kBeta;
    c.local_epochs = 5;
    c.stop_at_target = false;
    seafl::compress::apply_codec_name(c.compression, "int8");
    c.seed = seed;
    return c;
  }
  static seafl::SeaflConfig make_seafl() {
    seafl::SeaflConfig s;
    s.weights.staleness_limit = kBeta;
    return s;
  }
  static seafl::ScreeningConfig make_screening() {
    seafl::ScreeningConfig s;
    s.clip_multiple = 3.0;
    s.min_cosine = -0.5;
    return s;
  }

  seafl::RunConfig config;
  seafl::ScreenedStrategy strategy;
  seafl::ServerCore core;
  std::unique_ptr<seafl::compress::Codec> encoder;
};

struct Pass {
  SegmentEstimator est;
  std::vector<float> first_final;
  bool identical = true;
  Clock::time_point first_built{};
  std::size_t frame_bytes = 0;
  std::size_t checkpoint_bytes = 0;
  std::uint64_t last_repeat_allocs = 0;
};

/// Runs kRounds ingest rounds `repeats` times. Repeat 0 of a verified pass
/// also runs every output check into `out`.
Pass run_pass(const Options& options, const ClientInputs& in,
              std::size_t repeats, bool verify, Outcome& out) {
  Pass pass;
  const std::string ckpt_dir = options.scratch + "/server_ingest_ckpt";
  static const std::vector<std::uint64_t> kNoInFlight;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const bool checking = verify && rep == 0;
    std::filesystem::remove_all(ckpt_dir);
    Server server(options.seed);
    seafl::ServerCore& core = server.core;
    core.begin(in.initial, kK);
    core.result().round_log.reserve(kRounds);
    std::vector<std::vector<float>> history(kStaleSpan, in.initial);
    std::vector<std::string> frames(kK);
    std::vector<float> trained;
    if (rep == 0) pass.first_built = Clock::now();

    // Repeats run one at a time with kernels on the pool, so the per-layer
    // allocation counts take the whole process.
    SegmentClock clock(SegmentClock::Allocs::kProcess);
    clock.begin();
    clock.pause();
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      // Client side, untimed: train, encode against the dispatched base,
      // frame. Clients are independent, so they share the pool.
      seafl::parallel_for(
          0, kK,
          [&](std::size_t k) {
            const std::uint64_t b = base_round_of(k, round);
            const std::vector<float>& base = history[b % kStaleSpan];
            std::vector<float> weights;
            trained_model(in, k, round, base, weights);
            seafl::net::CompressedUploadMsg msg;
            msg.session = round * kK + k + 1;
            msg.client = k;
            msg.base_round = b;
            msg.num_samples = samples_of(k);
            msg.epochs_completed = 5;
            msg.update = server.encoder->encode(weights, base, nullptr, k, b,
                                                options.seed);
            frames[k] = seafl::net::encode_frame(
                seafl::net::Message{std::move(msg)});
          },
          /*grain=*/1);
      clock.resume();

      for (std::size_t k = 0; k < kK; ++k) {
        seafl::net::DecodeResult d =
            seafl::net::decode_frame(frames[k].data(), frames[k].size());
        clock.mark(Layer::kFrame,
                   fold(static_cast<std::uint64_t>(d.status), d.consumed));
        if (d.status != seafl::net::DecodeStatus::kOk) {
          out.check(false, "a valid frame failed to decode");
          return pass;
        }
        const auto& up = d.message.as<seafl::net::CompressedUploadMsg>();
        seafl::LocalUpdate u;
        u.client = up.client;
        u.base_round = up.base_round;
        u.num_samples = up.num_samples;
        u.epochs_completed = up.epochs_completed;
        u.arrival_time = static_cast<double>(round + 1);
        core.add_encoded_update(std::move(u), up.update,
                                history[up.base_round % kStaleSpan], nullptr);
        clock.mark(Layer::kDecode, fold(up.client, up.base_round));
        if (checking) {
          clock.pause();
          out.check(frame_roundtrips(frames[k], frames[k]),
                    "a frame did not round-trip byte-exactly");
          trained_model(in, k, round, history[up.base_round % kStaleSpan],
                        trained);
          out.check(within_one_step(core.buffer().back().weights, trained,
                                    up.update.scale),
                    "a decoded coordinate is more than one quantization "
                    "step from its source");
          clock.resume();
        }
      }

      Hull hull;
      std::vector<double> reference;
      seafl::RunResult before;
      const bool is_reference = checking && round == kReferenceRound;
      if (checking) {
        clock.pause();
        before = core.result();
        hull.add(core.global());
        std::vector<RefUpdate> refs;
        for (const seafl::LocalUpdate& u : core.buffer()) {
          hull.add(u.weights);
          refs.push_back({u.weights, u.base_round, u.num_samples});
        }
        if (is_reference) {
          reference = reference_round(core.global(), refs, core.round());
        }
        clock.resume();
      }
      const seafl::AggregateOutcome outcome =
          core.try_aggregate(static_cast<double>(round + 1), kNoInFlight,
                             nullptr);
      clock.mark(Layer::kAggregate, fold(outcome.aggregated, core.round()));
      clock.pause();
      if (checking) {
        out.check(outcome.aggregated, "a full buffer did not aggregate");
        out.check(hull.contains(core.global()),
                  "a new global coordinate left the hull of the old global "
                  "and the updates");
        if (is_reference) {
          const seafl::RunResult& now = core.result();
          out.check(now.clipped_updates == before.clipped_updates &&
                        now.screened_updates == before.screened_updates,
                    "screening altered a reference round");
          out.check(max_rel_error(core.global(), reference) <=
                        kReferenceTolerance,
                    "aggregation differs from the double-precision Eqs. 4-8");
        }
      }
      history[core.round() % kStaleSpan] = core.global();

      if (core.round() % kCheckpointEvery == 0) {
        seafl::ckpt::RunCheckpoint c;
        c.seed = options.seed;
        c.model_dim = kDim;
        c.num_clients = kK;
        c.origin = 1;
        c.round = core.round();
        c.staleness_sum = core.staleness_sum();
        c.global = core.global();
        c.result = core.result();
        server.strategy.save_state(c.strategy_state);
        clock.resume();
        const std::string bytes = seafl::ckpt::encode_checkpoint(c);
        clock.mark(Layer::kCkptEncode, bytes.size());
        seafl::ckpt::write_checkpoint_file(ckpt_dir, c.round, bytes,
                                           kCheckpointKeep);
        clock.mark(Layer::kCkptWrite, c.round);
        seafl::ckpt::RunCheckpoint loaded;
        const seafl::ckpt::DecodeStatus status =
            seafl::ckpt::load_checkpoint_file(
                seafl::ckpt::checkpoint_path(ckpt_dir, c.round), loaded);
        clock.mark(Layer::kCkptLoad, static_cast<std::uint64_t>(status));
        clock.pause();
        pass.checkpoint_bytes = bytes.size();
        if (checking) {
          out.check(status == seafl::ckpt::DecodeStatus::kOk &&
                        seafl::ckpt::encode_checkpoint(loaded) == bytes,
                    "the checkpoint did not round-trip bitwise");
          out.check(flipped_byte_rejected(bytes, bytes.size() / 2),
                    "a checkpoint with a flipped byte was accepted");
        }
      }
    }
    clock.resume();
    clock.end();
    pass.est.add(clock);
    std::fprintf(stderr, "%s%.3f", rep == 0 ? "repeat seconds: " : " ",
                 clock.total_seconds());
    pass.last_repeat_allocs = 0;
    for (const std::uint64_t a : clock.allocs) pass.last_repeat_allocs += a;
    pass.frame_bytes = frames[0].size();
    if (rep == 0) {
      pass.first_final = core.global();
      for (const std::string& f : frames) {
        out.check(f.size() == pass.frame_bytes, "frame sizes differ");
      }
    } else {
      pass.identical = pass.identical && same_bits(pass.first_final,
                                                   core.global());
    }
  }
  std::fprintf(stderr, "; estimate %.3f\n", pass.est.total_seconds());
  std::filesystem::remove_all(ckpt_dir);
  return pass;
}

}  // namespace

Outcome run_server_ingest(const Options& options) {
  // Repeats run one after another: each uses the whole pool.
  const std::size_t repeats = repeats_for(options, 2.6, 1);
  Outcome out;
  const ClientInputs inputs = make_inputs(options.seed);
  Pass plain = run_pass(options, inputs, repeats, /*verify=*/true, out);
  out.check(plain.est.consistent(), "repeats made different calls");
  out.check(plain.identical, "repeats produced different global models");
  const double updates = static_cast<double>(kK * kRounds);
  out.attempted = kK * kRounds * repeats;

  if (!options.trace) {
    out.metrics["setup_s"] = {
        seconds_between(process_start(), plain.first_built), "s"};
    out.metrics["updates_per_s"] = {updates / plain.est.total_seconds(),
                                    "updates/s"};
    out.metrics["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
    out.metrics["wire_bytes_per_update"] = {
        static_cast<double>(plain.frame_bytes), "bytes"};
    return out;
  }

  const auto calls_before = prof_counts();
  Outcome scratch;
  Pass traced;
  {
    seafl::obs::ProfilingScope profiling(true);
    traced = run_pass(options, inputs, repeats, /*verify=*/false, scratch);
  }
  const auto calls_after = prof_counts();
  out.attempted += kK * kRounds * repeats;
  out.check(traced.est.consistent() && traced.identical &&
                same_bits(plain.first_final, traced.first_final),
            "the traced pass changed the run");

  LayerReport report;
  report.traced = &traced.est;
  report.untraced_seconds = plain.est.total_seconds();
  for (const auto& [site, n] : calls_after) {
    report.prof_calls[site] = (n - calls_before.at(site)) / repeats;
  }
  report.updates_per_repeat = updates;
  report.run_allocs = traced.last_repeat_allocs;
  // Eq. 7-8 touch every buffered update once plus the global model twice.
  report.aggregate_bytes = static_cast<double>(kRounds * (kK + 2) * kDim) *
                           sizeof(float);
  report.frame_bytes = static_cast<double>(traced.frame_bytes);
  report.checkpoint_bytes = static_cast<double>(traced.checkpoint_bytes);
  add_layer_metrics(report, out);
  return out;
}

}  // namespace perfbench
