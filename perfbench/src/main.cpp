// omg_perfbench — the open-loop serving benchmark.
//
//   omg_perfbench --workload <inproc_mixed|uds_av>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 --config-dir <dir> --work-dir <dir>
//
// Prints the host/build/run fingerprint as one JSON line, then, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when a correctness check fails and 2 on a usage or configuration error.
// perfbench/run.py builds this binary and supplies the two directories.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "common/flags.hpp"
#include "runtime/event_sink.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  try {
    const omg::common::Flags flags = omg::common::Flags::Parse(argc, argv);
    flags.CheckAllowed(
        {"workload", "seed", "seconds", "trace", "config-dir", "work-dir"});
    options.workload = flags.GetString("workload", "");
    options.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
    options.seconds = flags.GetDouble("seconds", 10.0);
    options.trace = flags.GetInt("trace", 0) != 0;
    options.config_dir = flags.GetString("config-dir", "perfbench/configs");
    options.work_dir = flags.GetString("work-dir", ".");
    if (options.seconds <= 0.0 || options.seconds > 60.0) {
      std::cerr << "--seconds must be in (0, 60]\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "usage error: " << error.what() << "\n";
    return 2;
  }

  perfbench::RunResult result;
  try {
    result = perfbench::RunWorkload(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }

  for (const std::string& problem : result.problems) {
    std::cerr << "correctness: " << problem << "\n";
  }
  std::cout << result.info_json << "\n";
  std::string line = "{\"correct\":";
  line += result.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(result.attempted);
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (i > 0) line += ",";
    line += "\"" + omg::runtime::JsonEscape(metric.name) + "\":{\"value\":" +
            value + ",\"unit\":\"" + omg::runtime::JsonEscape(metric.unit) +
            "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return result.correct ? 0 : 1;
}
