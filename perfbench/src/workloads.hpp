// The benchmark's workloads: open-loop, paced traffic into one
// serve::Monitor (in process, or behind a net::IngestServer over a
// Unix-domain socket), with the end-to-end metrics, the per-layer ledger,
// and the correctness checks of one run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One benchmark invocation.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the paced arrival schedule (the timed window).
  double seconds = 10.0;
  /// Traced run: an untraced pass, then a traced pass whose spans give
  /// the per-layer metrics. Untraced runs report the end-to-end metrics.
  bool trace = false;
  /// Directory holding the workload configs (perfbench/configs).
  std::string config_dir;
  /// Scratch directory for the socket and the span files.
  std::string work_dir;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation measured and whether its outputs were correct.
struct RunResult {
  /// Every correctness check held.
  bool correct = false;
  /// Offered examples.
  std::uint64_t attempted = 0;
  /// Offered examples that were not scored (shed, dropped, errored or
  /// lost on the wire); every workload must score them all.
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One line per failed correctness check.
  std::vector<std::string> problems;
  /// Host/build/run fingerprint and run details, one JSON object.
  std::string info_json;
};

/// Names of the defined workloads.
std::vector<std::string> WorkloadNames();

/// Runs `options.workload`. Throws std::runtime_error for an unknown
/// workload or a configuration the host cannot run (more busy threads
/// than processors).
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench
