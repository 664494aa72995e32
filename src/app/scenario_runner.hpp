// Scenario runs as library calls: the modes of the scenario harness.
//
// RunScenario runs a declarative scenario (configs/*.conf) through one
// serve::Monitor in one of three modes: plain (every stream's
// pregenerated traffic, batches interleaved round-robin across streams),
// loop (`[loop] enabled` with video streams: traffic in `loop.rounds`
// waves, each followed by a select -> label -> retrain round and a
// hot-swap pickup) or serve (behind a net::IngestServer until a client
// connection has come and gone). ReplayRepeatedly replays a recorded trace
// N times or for a soak period. Each returns a structured report; a broken
// accounting identity, a failed observe or an unwritable output is a
// typed serve::Result error, never an abort. The Print* helpers render
// reports the way examples/scenario_harness prints them (CI and
// tools/check_replay_golden.py parse its accounting and digest lines).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "config/scenario.hpp"
#include "loop/round_scheduler.hpp"
#include "net/server.hpp"
#include "replay/replay.hpp"
#include "replay/trace_file.hpp"
#include "runtime/metrics.hpp"
#include "serve/domain_registry.hpp"
#include "serve/monitor.hpp"
#include "serve/result.hpp"

namespace omg::app {

/// One improvement-loop wave: flags per scored example during its
/// traffic, then its round (nullopt when there were too few candidates).
struct LoopWave {
  double flagged_rate = 0.0;
  std::optional<loop::RoundStats> round;
};

/// What loop mode did beyond monitoring.
struct LoopReport {
  std::string strategy;
  std::string oracle;  ///< the label oracle's Name()
  std::size_t budget = 0;
  /// Model version the detector served during the last wave.
  std::uint64_t served_version = 0;
  std::vector<LoopWave> waves;  ///< one per `loop.rounds`
};

/// What one scenario run did.
struct ScenarioReport {
  std::string scenario;
  /// Domains joined with '+', suffixed "+loop" / "+net" by mode.
  std::string domains;
  /// Examples offered to the monitor (serve mode: `wire->totals.offered`).
  std::uint64_t offered = 0;
  runtime::MetricsSnapshot metrics;
  std::vector<std::string> errors;  ///< Monitor::Errors()
  std::optional<LoopReport> loop;              ///< loop mode only
  std::optional<net::IngestServerStats> wire;  ///< serve mode only
  /// `[loop] enabled` but no video stream to loop: plain monitoring ran.
  bool loop_skipped = false;
  /// Traffic time (obs::Clock), excluding monitor construction.
  double wall_seconds = 0.0;
  std::vector<std::string> metrics_exported;  ///< exporter files written
  std::string trace_written;  ///< Chrome trace written, or empty
};

/// How RunScenario runs a scenario.
struct RunOptions {
  /// Serve mode: host the scenario behind an IngestServer. Needs an
  /// enabled [server] section (kInvalidConfig otherwise).
  bool serve = false;
  /// Called once the scenario's Monitor is built, before any traffic: the
  /// seam for extra sinks (they run on the shard workers, so a test can
  /// slow a shard). Keep the Subscription alive for the whole run.
  std::function<void(serve::Monitor&)> on_monitor;
  /// Serve mode: called once the server listens, before waiting for
  /// clients. It may drive clients itself (the run ends after the first
  /// connection has come and gone, so a synchronous client works).
  std::function<void(const net::ServerEndpoints&)> on_listening;
};

/// `--trace DIR` / `--export-metrics DIR`: force tracing on and derive the
/// missing output paths from the scenario name under the given
/// directories (empty = no override). An [observability] section still
/// controls ring sizing, sampling and exporter cadence.
void ApplyObservabilityOverrides(config::ScenarioSpec& scenario,
                                 const std::string& trace_dir,
                                 const std::string& export_dir);

/// Runs `scenario` (as ConfigLoader validated it) in the mode
/// `options.serve` and its [loop] section select (see the file comment),
/// with the [observability] exporter and trace outputs it declares.
/// Errors: kInvalidConfig (serve without [server]), the monitor's and
/// server's own errors, kInvariantViolated (an accounting identity does
/// not reconcile), kIoError (trace output unwritable). Throws
/// config::SpecError for the loader errors BuildScenarioMonitor and
/// common::GenerateScenarioTraffic report.
serve::Result<ScenarioReport> RunScenario(
    const config::ScenarioSpec& scenario,
    const serve::DomainRegistry& domains, const RunOptions& options = {});

/// What ReplayRepeatedly did; every iteration had `last`'s digest.
struct RepeatedReplay {
  std::size_t iterations = 0;
  replay::ReplayReport last;
};

/// Replays `trace` into a fresh monitor at least `min_iterations` times and
/// until `soak_seconds` have elapsed. Every iteration must reconcile its
/// accounting and reproduce the first iteration's flag digest
/// (kInvariantViolated otherwise); replay errors pass through.
serve::Result<RepeatedReplay> ReplayRepeatedly(
    const config::ScenarioSpec& scenario,
    const serve::DomainRegistry& domains, replay::TraceReader& trace,
    const replay::ReplayOptions& options, std::size_t min_iterations = 1,
    double soak_seconds = 0.0);

// Printing, in the harness's layout: the scenario banner; serve mode's
// "serving:" line; the replay banner, then its accounting and
// "flag digest:" lines; everything after a scenario run (the loop's wave
// table or the server's tenant table, the accounting line, per-assertion
// and per-shard tables, ingest errors, outputs written); the end-of-run
// summary table; and the registered domains (`--describe`).
void PrintScenarioHeader(const config::ScenarioSpec& scenario,
                         const std::string& path, std::ostream& out);
void PrintListening(const config::ScenarioSpec& scenario,
                    const net::ServerEndpoints& endpoints, std::ostream& out);
void PrintReplayHeader(const replay::TraceInfo& info,
                       const std::string& trace_path,
                       const replay::ReplayOptions& options,
                       std::ostream& out);
void PrintReplay(const RepeatedReplay& repeated, std::ostream& out);
void PrintScenarioReport(const ScenarioReport& report, std::ostream& out);
void PrintSummary(const std::vector<ScenarioReport>& reports,
                  std::ostream& out);
void PrintDomains(const serve::DomainRegistry& domains, std::ostream& out);

}  // namespace omg::app
