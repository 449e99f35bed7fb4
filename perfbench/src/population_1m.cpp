// population_1m: the seafl-ft arm over a million clients. A pooled lazy
// partition, device churn, assignment deadlines with re-dispatch, and int8
// uploads on slow uplinks; 10-sample single-epoch sessions keep training
// cheap, so sim event handling, fl dispatch/re-dispatch, data partition
// regeneration and small-vector compress/core calls carry the load.
// Kernels run serially.
#include "workloads.h"

#include "compress/codec.h"
#include "sim_common.h"

namespace perfbench {

namespace {
constexpr std::size_t kClients = 1000000;
constexpr std::uint64_t kRounds = 1500;
/// Peak RSS bound, independent of the population: per-client state must
/// scale with active sessions, not with kClients (DESIGN.md §16).
constexpr double kRssCeilingMib = 128.0;
}  // namespace

Outcome run_population_1m(const Options& options) {
  seafl::SerialKernelScope serial;
  SimSpec spec;
  spec.nominal_wave_s = 4.5;
  spec.build = [&options] {
    auto world = std::make_unique<SimWorld>();
    seafl::TaskSpec task;
    task.name = "synth-mnist";
    task.num_clients = kClients;
    task.samples_per_client = 10;
    task.pool_samples = 4096;
    task.test_samples = 200;
    task.seed = options.seed;
    world->task = seafl::make_task(task);

    seafl::FleetConfig fleet;
    fleet.num_devices = kClients;
    fleet.mean_uplink_bytes_per_sec = 20000.0;
    fleet.seed = options.seed;
    world->fleet = std::make_unique<seafl::Fleet>(fleet);

    seafl::ExperimentParams params;
    params.concurrency = 256;  // M
    params.buffer_size = 32;   // K
    params.local_epochs = 1;
    params.batch_size = 10;
    params.max_rounds = kRounds;
    params.stop_at_target = false;
    params.eval_every = kRounds;  // one evaluation, at the end
    params.eval_subset = 100;
    params.codec = "int8";
    params.seed = options.seed;
    seafl::Arm arm = seafl::make_arm("seafl-ft", params);
    arm.config.faults.mean_uptime = 600.0;
    arm.config.faults.deadline_factor = 3.0;
    attach_simulation(*world, std::move(arm));
    return world;
  };
  spec.check = [](const SimWorld&, const seafl::RunResult& result,
                  const JournalAudit& audit, Outcome& out) {
    const std::size_t dim = result.final_weights.size();
    out.check(result.upload_wire_bytes ==
                  audit.uploads() *
                      (seafl::compress::kContainerHeaderBytes + dim),
              "upload_wire_bytes != delivered uploads x (32 + dim)");
    out.check(audit.crashes() > 0 && audit.crashes() == result.client_crashes,
              "journal crash count != RunResult::client_crashes");
    out.check(audit.crashed_uploads() == 0,
              "a crashed session produced an upload");
    out.check(peak_rss_mib() < kRssCeilingMib,
              "peak RSS above the population-independent ceiling");
  };
  return run_simulation_workload(options, spec);
}

}  // namespace perfbench
