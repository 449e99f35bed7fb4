// perfbench: runs one benchmark workload and prints its result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//   perfbench --selftest
//   perfbench --host-reference
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
// --trace 1 runs the same repeats twice, the second time with the
// program's profiling counters on, and reports the per-layer metrics.
// Failed checks are listed on stderr and make the exit code 1.
// --host-reference prints this host's stream-copy bandwidth, the ceiling
// core.aggregate_gbs is read against (README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_emnist|population_1m|"
               "server_ingest --seed N --seconds S --trace 0|1 "
               "[--scratch DIR]\n       perfbench --selftest\n"
               "       perfbench --host-reference\n");
  return 2;
}

/// Best-of-10 copy bandwidth over 64 MiB buffers, counting bytes read plus
/// bytes written, on the caller alone and on the capped pool.
void host_reference() {
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  std::vector<char> src(kBytes, 1), dst(kBytes, 0);
  auto best_gbs = [&](bool pooled) {
    double best = 0.0;
    for (int rep = 0; rep < 10; ++rep) {
      const auto t0 = perfbench::Clock::now();
      if (pooled) {
        seafl::parallel_for_chunked(
            0, kBytes,
            [&](std::size_t b, std::size_t e) {
              std::memcpy(dst.data() + b, src.data() + b, e - b);
            },
            /*grain=*/std::size_t{1} << 20);
      } else {
        std::memcpy(dst.data(), src.data(), kBytes);
      }
      const double s =
          perfbench::seconds_between(t0, perfbench::Clock::now());
      best = std::max(best, 2.0 * kBytes / s / 1e9);
    }
    return best;
  };
  const double serial = best_gbs(false);
  const double pooled = best_gbs(true);
  std::printf("stream copy: %.2f GB/s on 1 thread, %.2f GB/s on %zu threads\n",
              serial, pooled, seafl::global_pool().size() + 1);
}

void print_result(const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool selftest = false;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--selftest") {
      selftest = true;
    } else if (flag == "--host-reference") {
      reference = true;
    } else if (flag == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      options.seconds = std::atoi(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (flag == "--scratch" && has_value) {
      options.scratch = argv[++i];
    } else {
      return usage();
    }
  }

  // Workers plus the calling thread stay within the CPUs we may use: the
  // pool's default of one worker per CPU oversubscribes by one, because
  // parallel_for also runs a chunk on the caller.
  const std::size_t cpus = perfbench::usable_cpus();
  seafl::set_global_pool_threads(cpus > 1 ? cpus - 1 : 1);

  try {
    if (selftest) {
      const auto failures = perfbench::run_selftests();
      for (const auto& f : failures) std::fprintf(stderr, "FAIL %s\n", f.c_str());
      std::printf("selftest: %s\n", failures.empty() ? "ok" : "FAILED");
      return failures.empty() ? 0 : 1;
    }
    if (reference) {
      host_reference();
      return 0;
    }
    Outcome out;
    if (options.workload == "paper_emnist") {
      out = perfbench::run_paper_emnist(options);
    } else if (options.workload == "population_1m") {
      out = perfbench::run_population_1m(options);
    } else if (options.workload == "server_ingest") {
      out = perfbench::run_server_ingest(options);
    } else {
      return usage();
    }
    // The checks are only evidence if they can fail: prove it on this build.
    for (const std::string& f : perfbench::run_selftests()) {
      out.check(false, "selftest: " + f);
    }
    for (auto& [name, metric] : out.metrics) {
      if (std::isfinite(metric.value)) continue;
      out.check(false, "non-finite metric " + name);
      metric.value = 0.0;  // keep the result line valid JSON
    }
    for (const std::string& f : out.failures) {
      std::fprintf(stderr, "check failed: %s\n", f.c_str());
    }
    print_result(out);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
