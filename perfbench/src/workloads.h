// The benchmark's workloads. Each builds its inputs from Options::seed,
// measures, checks its outputs and returns every metric by name.
#pragma once

#include "harness.h"

namespace perfbench {

Outcome run_paper_emnist(const Options& options);
Outcome run_population_1m(const Options& options);
Outcome run_server_ingest(const Options& options);

/// Feeds every correctness check a corrupted output; each must fail (and
/// pass on the uncorrupted one). Returns the failures, empty when all held.
std::vector<std::string> run_selftests();

}  // namespace perfbench
