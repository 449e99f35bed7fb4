// paper_emnist: the Fig. 5 SEAFL (beta = 10) arm on synth-emnist in the
// world of bench/fig5_baselines, run to the task's 0.88 target. LeNet-lite
// training (tensor GEMM/im2col, nn conv) and fl evaluation do nearly all the
// work; compress, net and ckpt are idle. Kernels run serially, as
// exp::Runner runs each arm of a sweep.
//
// The world and run seed are fig5_baselines' own (42) whatever --seed says:
// this workload is the paper's one run. Over other seeds SEAFL needs 23 to
// 84 rounds to reach 0.88 on this world, so a seeded world would miss the
// 60-round cap on some seeds (README.md, "Seeds").
#include "workloads.h"

#include <cstdio>

#include "sim_common.h"

namespace perfbench {

namespace {
constexpr std::uint64_t kPaperSeed = 42;
constexpr std::uint64_t kRoundCap = 60;
constexpr std::uint64_t kBeta = 10;
/// Full-test-set accuracy the final model must reach (README.md). The run
/// stops at 0.88 on a 300-sample evaluation subset; the whole 600-sample
/// test set is scored independently here, with room for subset sampling
/// error.
constexpr double kAccuracyFloor = 0.85;
}  // namespace

Outcome run_paper_emnist(const Options& options) {
  seafl::SerialKernelScope serial;
  SimSpec spec;
  spec.nominal_wave_s = 6.5;
  spec.build = [] {
    auto world = std::make_unique<SimWorld>();
    seafl::TaskSpec task;
    task.name = "synth-emnist";
    task.num_clients = 100;
    task.samples_per_client = 40;
    task.test_samples = 600;
    task.dirichlet_alpha = 0.1;
    task.seed = kPaperSeed;
    world->task = seafl::make_task(task);

    seafl::FleetConfig fleet;
    fleet.num_devices = task.num_clients;
    fleet.pareto_shape = 1.05;
    fleet.seed = kPaperSeed;
    world->fleet = std::make_unique<seafl::Fleet>(fleet);

    seafl::ExperimentParams params;
    params.concurrency = 40;  // M
    params.buffer_size = 10;  // K
    params.staleness_limit = kBeta;
    params.local_epochs = 5;  // E
    params.max_rounds = kRoundCap;
    params.target_accuracy = world->task.target_accuracy;
    params.eval_subset = 300;
    params.seed = kPaperSeed;
    attach_simulation(*world, seafl::make_arm("seafl", params));
    return world;
  };
  spec.check = [](const SimWorld& world, const seafl::RunResult& result,
                  const JournalAudit& audit, Outcome& out) {
    out.check(result.time_to_target >= 0.0 && result.rounds <= kRoundCap,
              "target accuracy not reached within the round cap");
    out.check(audit.max_staleness() <= kBeta,
              "an aggregated update was staler than beta");
    out.check(audit.mean_staleness() == result.mean_staleness,
              "journal mean staleness != RunResult::mean_staleness");
    const double accuracy = test_accuracy(world.task, result.final_weights);
    std::fprintf(stderr,
                 "paper_emnist: %llu rounds, %zu updates, subset accuracy "
                 "%.4f, full-test-set accuracy %.4f\n",
                 static_cast<unsigned long long>(result.rounds),
                 result.total_updates, result.final_accuracy, accuracy);
    out.check(accuracy >= kAccuracyFloor,
              "final model below the full-test-set accuracy floor");
  };
  return run_simulation_workload(options, spec);
}

}  // namespace perfbench
