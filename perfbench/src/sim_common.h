// The simulation workloads (paper_emnist, population_1m) share one runner:
// build a world from scratch, run the Simulation with an estimator sink on
// its trace, repeat, and derive the metrics.
#pragma once

#include <functional>
#include <memory>

#include "checks.h"
#include "common/thread_pool.h"
#include "core/seafl.h"
#include "harness.h"

namespace perfbench {

/// Everything one repeat rebuilds: dataset + partition, fleet, model
/// factory, strategy and simulation. Not movable: the simulation refers to
/// the task, fleet and factory.
struct SimWorld {
  SimWorld() = default;
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  seafl::FlTask task;
  std::unique_ptr<seafl::Fleet> fleet;
  seafl::ModelFactory factory;
  std::unique_ptr<seafl::Simulation> sim;
};

/// Builds the simulation of `arm` over `world`'s task and fleet with the
/// per-sample work exp::Runner uses (model flops relative to the MLP).
void attach_simulation(SimWorld& world, seafl::Arm arm);

struct SimSpec {
  double nominal_wave_s = 1.0;
  std::function<std::unique_ptr<SimWorld>()> build;
  /// Runs once, after the first repeat, while its world is alive.
  std::function<void(const SimWorld&, const seafl::RunResult&,
                     const JournalAudit&, Outcome&)>
      check;
};

/// Runs the workload R times untraced (and, with --trace 1, R times more
/// with profiling counters on) and fills the outcome's metrics and checks.
Outcome run_simulation_workload(const Options& options, const SimSpec& spec);

}  // namespace perfbench
