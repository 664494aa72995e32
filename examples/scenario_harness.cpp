// One binary, N workloads: runs declarative scenario files
// (configs/*.conf, docs/CONFIGURATION.md) through one serve::Monitor each.
// The modes are library calls (src/app/scenario_runner.hpp); this file
// parses flags, dispatches and prints.
//
//   ./scenario_harness [CONF... | --configs DIR]   # plain or loop runs
//       [--trace DIR] [--export-metrics DIR]       # Chrome trace, metrics
//   ./scenario_harness --describe                  # registered assertions
//   ./scenario_harness --serve CONF                # IngestServer until a
//                                                  # client came and went
//   ./scenario_harness CONF --record TRACE         # docs/REPLAY.md
//   ./scenario_harness CONF --replay TRACE [--speed N]
//       [--replay-transport inproc|uds] [--flags-out FILE]
//       [--soak-seconds S]                         # digest must hold
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "app/scenario_runner.hpp"
#include "common/example_gen.hpp"
#include "common/flags.hpp"
#include "replay/replay.hpp"
#include "serve/domains.hpp"

namespace {

using namespace omg;

/// Appends every *.conf in `dir`; false when `dir` cannot be listed.
bool AddConfigsIn(const std::string& dir, std::vector<std::string>& paths) {
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    if (entry.path().extension() == ".conf") {
      paths.push_back(entry.path().string());
    }
  }
  return !error;
}

/// --record / --replay on one scenario config.
int RecordOrReplay(const std::string& config_path,
                   const serve::DomainRegistry& domains,
                   const common::Flags& flags) {
  const config::ScenarioSpec scenario =
      config::ConfigLoader::LoadFile(config_path);
  const bool record = !flags.GetString("record", "").empty();
  const std::string mode = record ? "record" : "replay";
  // A bare flag (value "true") falls back to the [replay] trace_path.
  std::string trace_path = flags.GetString(mode, "");
  if (trace_path == "true") trace_path = scenario.replay.trace_path;
  if (trace_path.empty()) {
    std::cerr << "--" << mode << " needs a path (or a [replay] trace_path in "
              << config_path << ")\n";
    return 1;
  }
  if (record) {
    const serve::Result<replay::RecordReport> report =
        replay::RecordScenarioTrace(scenario, domains,
                                    common::GenerateScenarioTraffic(scenario),
                                    trace_path, scenario.replay.record_eps);
    if (!report.ok()) {
      std::cerr << "record failed: " << report.error().message << "\n";
      return 1;
    }
    std::cout << "recorded '" << scenario.name << "' to " << trace_path
              << ": " << report.value().records << " records, "
              << report.value().examples << " examples, scenario hash "
              << replay::DigestHex(report.value().scenario_hash) << "\n";
    return 0;
  }

  serve::Result<replay::TraceReader> reader =
      replay::TraceReader::Open(trace_path);
  if (!reader.ok()) {
    std::cerr << "replay failed: " << reader.error().message << "\n";
    return 1;
  }
  const std::string transport = flags.GetString("replay-transport", "inproc");
  if (transport != "inproc" && transport != "uds") {
    std::cerr << "--replay-transport must be inproc or uds\n";
    return 1;
  }
  replay::ReplayOptions options;
  options.speed = flags.GetDouble("speed", scenario.replay.speed);
  options.over_wire = transport == "uds";
  app::PrintReplayHeader(reader.value().info(), trace_path, options,
                         std::cout);
  const serve::Result<app::RepeatedReplay> repeated = app::ReplayRepeatedly(
      scenario, domains, reader.value(), options, 1,
      flags.GetDouble("soak-seconds", 0.0));
  if (!repeated.ok()) {
    std::cerr << "replay failed: " << repeated.error().message << "\n";
    return 1;
  }
  app::PrintReplay(repeated.value(), std::cout);
  if (const std::string out_path = flags.GetString("flags-out", "");
      !out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    for (const std::string& line : repeated.value().last.flags.lines) {
      out << line;
    }
    if (!out.good()) {
      std::cerr << "cannot write flags output " << out_path << "\n";
      return 1;
    }
    std::cout << "flags written: " << out_path << "\n";
  }
  return 0;
}

/// Everything after flag validation; config errors propagate as SpecError.
int Run(const common::Flags& flags) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  if (flags.GetBool("describe", false)) {
    app::PrintDomains(domains, std::cout);
    return 0;
  }

  // Record/replay modes take exactly one scenario config positionally.
  const bool record = !flags.GetString("record", "").empty();
  const bool replay = !flags.GetString("replay", "").empty();
  std::vector<std::string> paths = flags.Positional();
  if (record || replay) {
    if (record && replay) {
      std::cerr << "--record and --replay are mutually exclusive\n";
      return 1;
    }
    if (paths.size() != 1) {
      std::cerr << "--record/--replay take exactly one scenario config\n";
      return 1;
    }
    return RecordOrReplay(paths.front(), domains, flags);
  }

  // `--serve CONF` (valued) and `CONF --serve` (bare boolean + positional)
  // both work; the flag parser decides which form it saw.
  const std::string serve_value = flags.GetString("serve", "");
  const bool serve = !serve_value.empty();
  if (serve && serve_value != "true") paths.push_back(serve_value);
  if (const std::string dir = flags.GetString("configs", "");
      !dir.empty() && !AddConfigsIn(dir, paths)) {
    std::cerr << "--configs " << dir << ": cannot list directory\n";
    return 1;
  }
  // Default: the repo's shipped scenarios, from the repo root or build/.
  for (const char* dir : {"configs", "../configs"}) {
    if (!paths.empty() || !std::filesystem::is_directory(dir)) continue;
    AddConfigsIn(dir, paths);
    break;
  }
  if (paths.empty()) {
    std::cerr << "no scenario files: pass paths, --configs DIR, or run "
                 "next to the repo's configs/ directory\n";
    return 1;
  }
  std::sort(paths.begin(), paths.end());
  if (serve && paths.size() != 1) {
    std::cerr << "--serve hosts exactly one scenario; pass one file\n";
    return 1;
  }
  const std::string trace_dir = flags.GetString("trace", "");
  const std::string export_dir = flags.GetString("export-metrics", "");
  for (const std::string& dir : {trace_dir, export_dir}) {
    std::error_code error;
    if (!dir.empty() && !std::filesystem::create_directories(dir, error) &&
        error) {
      std::cerr << "cannot create " << dir << ": " << error.message() << "\n";
      return 1;
    }
  }

  std::vector<app::ScenarioReport> reports;
  for (const std::string& path : paths) {
    config::ScenarioSpec scenario = config::ConfigLoader::LoadFile(path);
    app::ApplyObservabilityOverrides(scenario, trace_dir, export_dir);
    app::PrintScenarioHeader(scenario, path, std::cout);
    app::RunOptions options;
    options.serve = serve;
    options.on_listening = [&scenario](const net::ServerEndpoints& at) {
      app::PrintListening(scenario, at, std::cout);
    };
    serve::Result<app::ScenarioReport> report =
        app::RunScenario(scenario, domains, options);
    if (!report.ok()) {
      std::cerr << "scenario failed: " << report.error().message << "\n";
      return 1;
    }
    app::PrintScenarioReport(report.value(), std::cout);
    reports.push_back(std::move(report.value()));
  }
  app::PrintSummary(reports, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = common::Flags::Parse(argc, argv);
  flags.CheckAllowed({"configs", "describe", "trace", "export-metrics",
                      "serve", "record", "replay", "speed", "flags-out",
                      "replay-transport", "soak-seconds"});
  try {
    return Run(flags);
  } catch (const config::SpecError& error) {
    std::cerr << "config error: " << error.what() << "\n";
    return 1;
  }
}
