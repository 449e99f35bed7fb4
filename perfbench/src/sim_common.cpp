#include "sim_common.h"

#include <cstdio>
#include <future>

#include "obs/profile.h"

namespace perfbench {

namespace {

using seafl::obs::TraceEventKind;

/// Which layer did the work that ends at an event of this kind.
Layer layer_of(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAssigned:
    case TraceEventKind::kRedispatch:
    case TraceEventKind::kNotified:
      return Layer::kDispatch;
    case TraceEventKind::kEpochDone:
    case TraceEventKind::kUpload:
    case TraceEventKind::kSpeculate:
    case TraceEventKind::kHarvest:
    case TraceEventKind::kSpeculationAbandoned:
      return Layer::kTrain;
    case TraceEventKind::kCompressed:
      return Layer::kDecode;
    case TraceEventKind::kAggregate:
    case TraceEventKind::kDegradedAggregate:
    case TraceEventKind::kScreened:
      return Layer::kAggregate;
    case TraceEventKind::kEval:
      return Layer::kEvaluate;
    case TraceEventKind::kCrash:
    case TraceEventKind::kRecover:
    case TraceEventKind::kDeadlineExpired:
    case TraceEventKind::kUploadLost:
    case TraceEventKind::kRetry:
      return Layer::kHazard;
  }
  return Layer::kOther;
}

/// Closes one estimator segment per trace event; in the audited repeat it
/// also feeds the journal audit, outside the timed segments.
class EstimatorSink final : public seafl::obs::TraceSink {
 public:
  EstimatorSink(SegmentClock& clock, JournalAudit* audit)
      : clock_(clock), audit_(audit) {}

  void record(const seafl::obs::TraceEvent& e) override {
    clock_.mark(layer_of(e.kind), event_fingerprint(e));
    if (audit_ != nullptr) {
      clock_.pause();
      audit_->record(e);
      clock_.resume();
    }
  }

 private:
  SegmentClock& clock_;
  JournalAudit* audit_;
};

bool same_result(const seafl::RunResult& a, const seafl::RunResult& b) {
  return same_bits(a.final_weights, b.final_weights) && a.rounds == b.rounds &&
         a.total_updates == b.total_updates &&
         a.model_uploads == b.model_uploads &&
         a.upload_wire_bytes == b.upload_wire_bytes &&
         a.final_time == b.final_time && a.client_crashes == b.client_crashes;
}

/// One repeat: a fresh world, run once with the estimator sink attached.
struct Repeat {
  SegmentClock clock;
  seafl::RunResult result;
  std::uint64_t allocs = 0;  ///< this thread's allocations during run()
  Clock::time_point built{};  ///< the world is ready to run
};

Repeat run_repeat(const SimSpec& spec, JournalAudit* audit,
                  const std::function<void(const SimWorld&, const Repeat&)>&
                      inspect) {
  Repeat rep;
  const std::unique_ptr<SimWorld> world = spec.build();
  rep.built = Clock::now();
  EstimatorSink sink(rep.clock, audit);
  world->sim->set_trace_sink(&sink);
  const std::uint64_t allocs_before = thread_heap_allocs();
  rep.clock.begin();
  rep.result = world->sim->run();
  rep.clock.end();
  rep.allocs = thread_heap_allocs() - allocs_before;
  if (inspect) inspect(*world, rep);
  return rep;
}

struct Pass {
  SegmentEstimator est;
  seafl::RunResult first;
  bool identical = true;
  std::uint64_t last_repeat_allocs = 0;
  Clock::time_point first_built{};
  double first_peak_rss_mib = 0.0;  ///< VmHWM before any repeat ran beside it
};

/// R repeats, each from a fresh world. Repeat 0 runs alone (it is audited,
/// checked by `on_first`, and the one whose set-up and peak RSS count);
/// the others run side by side, one per pool worker, so each segment is
/// sampled on several CPUs at once as well as at several times.
Pass run_pass(const SimSpec& spec, std::size_t repeats,
              const std::function<void(const SimWorld&,
                                       const seafl::RunResult&,
                                       const JournalAudit&)>& on_first) {
  Pass pass;
  JournalAudit audit;
  Repeat first = run_repeat(
      spec, on_first ? &audit : nullptr,
      [&](const SimWorld& world, const Repeat& rep) {
        if (on_first) on_first(world, rep.result, audit);
      });
  pass.est.add(first.clock);
  std::fprintf(stderr, "repeat seconds: %.3f", first.clock.total_seconds());
  pass.first = std::move(first.result);
  pass.first_built = first.built;
  pass.last_repeat_allocs = first.allocs;
  pass.first_peak_rss_mib = peak_rss_mib();

  std::vector<std::future<Repeat>> others;
  for (std::size_t r = 1; r < repeats; ++r) {
    others.push_back(seafl::global_pool().submit(
        [&spec] { return run_repeat(spec, nullptr, nullptr); }));
  }
  // Let every repeat finish before any get() can rethrow: the tasks refer
  // to `spec`.
  for (std::future<Repeat>& f : others) f.wait();
  for (std::future<Repeat>& f : others) {
    const Repeat rep = f.get();
    pass.est.add(rep.clock);
    std::fprintf(stderr, " %.3f", rep.clock.total_seconds());
    pass.identical = pass.identical && same_result(pass.first, rep.result);
    pass.last_repeat_allocs = rep.allocs;
  }
  std::fprintf(stderr, "; estimate %.3f\n", pass.est.total_seconds());
  return pass;
}

}  // namespace

void attach_simulation(SimWorld& world, seafl::Arm arm) {
  using seafl::estimate_flops_per_sample;
  world.factory = seafl::make_model(world.task.default_model, world.task.input,
                                    world.task.num_classes);
  const double mlp_work = estimate_flops_per_sample(
      seafl::ModelKind::kMlp, seafl::InputSpec{1, 1, 32},
      world.task.num_classes);
  const double work =
      estimate_flops_per_sample(world.task.default_model, world.task.input,
                                world.task.num_classes) /
      mlp_work;
  world.sim = std::make_unique<seafl::Simulation>(
      world.task, world.factory, *world.fleet, std::move(arm.strategy),
      arm.config, work);
}

Outcome run_simulation_workload(const Options& options, const SimSpec& spec) {
  const std::size_t repeats = repeats_for(options, spec.nominal_wave_s,
                                          seafl::global_pool().size());
  Outcome out;

  // Untraced pass: every end-to-end metric, and the checks.
  Pass plain = run_pass(
      spec, repeats,
      [&](const SimWorld& world, const seafl::RunResult& result,
          const JournalAudit& audit) {
        out.check(audit.buffer_mismatches() == 0,
                  "journal: an aggregation consumed a different number of "
                  "updates than were uploaded since the last one");
        out.check(audit.aggregated() == result.total_updates,
                  "journal: aggregated updates != RunResult::total_updates");
        out.check(audit.uploads() == result.model_uploads,
                  "journal: delivered uploads != RunResult::model_uploads");
        spec.check(world, result, audit, out);
      });
  out.check(plain.est.consistent(),
            "repeats produced different trace event sequences");
  out.check(plain.identical, "repeats produced different final models");
  const seafl::RunResult& r = plain.first;
  out.attempted = r.total_updates * repeats;

  if (!options.trace) {
    // Cold set-up: process start to the first world ready to run.
    out.metrics["setup_s"] = {
        seconds_between(process_start(), plain.first_built), "s"};
    out.metrics["updates_per_s"] = {
        static_cast<double>(r.total_updates) / plain.est.total_seconds(),
        "updates/s"};
    out.metrics["peak_rss_mib"] = {plain.first_peak_rss_mib, "MiB"};
    out.metrics["wire_bytes_per_update"] = {
        static_cast<double>(r.upload_wire_bytes) /
            static_cast<double>(r.model_uploads),
        "bytes"};
    return out;
  }

  // Traced pass: same repeats with the program's profiling counters on.
  const auto calls_before = prof_counts();
  Pass traced;
  {
    seafl::obs::ProfilingScope profiling(true);
    traced = run_pass(spec, repeats, nullptr);
  }
  const auto calls_after = prof_counts();
  out.attempted += r.total_updates * repeats;
  out.check(traced.est.consistent() && traced.identical &&
                same_result(plain.first, traced.first),
            "the traced pass changed the run");

  LayerReport report;
  report.traced = &traced.est;
  report.untraced_seconds = plain.est.total_seconds();
  for (const auto& [site, n] : calls_after) {
    report.prof_calls[site] = (n - calls_before.at(site)) / repeats;
  }
  report.updates_per_repeat = static_cast<double>(r.total_updates);
  report.events_per_repeat = traced.est.segments() - 1;
  report.redispatches = r.redispatches;
  report.run_allocs = traced.last_repeat_allocs;
  // Eq. 7-8 touch every buffered update once plus the global model twice.
  report.aggregate_bytes =
      static_cast<double>(r.total_updates + 2 * r.aggregations) *
      static_cast<double>(r.final_weights.size()) * sizeof(float);
  add_layer_metrics(report, out);
  return out;
}

}  // namespace perfbench
