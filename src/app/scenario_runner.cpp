#include "app/scenario_runner.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <utility>

#include "common/example_gen.hpp"
#include "common/table.hpp"
#include "config/monitor_loader.hpp"
#include "loop/improvement_loop.hpp"
#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "video/detector.hpp"
#include "video/factory.hpp"
#include "video/pipeline.hpp"
#include "video/world.hpp"

namespace omg::app {

namespace {

/// A mode's outcome: nullopt on success, else the error RunScenario returns.
using Status = std::optional<serve::Error>;

serve::Error Err(serve::ErrorCode code, std::string message) {
  return serve::Error{code, std::move(message)};
}

std::string JoinedDomains(const config::ScenarioSpec& scenario) {
  std::string joined;
  for (const std::string& domain : scenario.Domains()) {
    if (!joined.empty()) joined += "+";
    joined += domain;
  }
  return joined;
}

double SecondsSince(std::uint64_t start_ns) {
  return obs::Clock::ToSeconds(
      obs::Clock::ElapsedNs(start_ns, obs::Clock::NowNs()));
}

/// Offers examples[begin, begin + count) on `stream` in batches of its
/// declared size, moving them out; a shed batch still counts as offered.
Status OfferRange(serve::Monitor& monitor, const config::BoundStream& stream,
                  std::vector<serve::AnyExample>& examples, std::size_t begin,
                  std::size_t count, std::uint64_t& offered) {
  for (const std::size_t end = begin + count; begin < end;) {
    const std::size_t size = std::min(stream.spec.batch, end - begin);
    const auto first = std::make_move_iterator(
        examples.begin() + static_cast<std::ptrdiff_t>(begin));
    const serve::Result<serve::ObserveOutcome> outcome = monitor.ObserveBatch(
        stream.handle, std::vector<serve::AnyExample>(
                           first, first + static_cast<std::ptrdiff_t>(size)));
    if (!outcome.ok()) return outcome.error();
    offered += size;
    begin += size;
  }
  return std::nullopt;
}

/// The accounting line PrintScenarioReport prints, and whether it holds:
/// the shared admission identity, or in serve mode the wire identity,
/// which adds the server's wire-side rejections.
std::pair<std::string, bool> Accounting(const ScenarioReport& report) {
  const runtime::MetricsSnapshot& m = report.metrics;
  std::uint64_t outcomes = m.examples_seen + m.TotalShedExamples() +
                           m.TotalDroppedExamples() + m.TotalErroredExamples();
  const std::uint64_t offered =
      report.wire ? report.wire->totals.offered : report.offered;
  std::string line = std::string(report.wire ? "wire" : "admission") +
                     " accounting: offered " + std::to_string(offered) +
                     " == scored " + std::to_string(m.examples_seen) +
                     " + shed " + std::to_string(m.TotalShedExamples()) +
                     " + dropped " + std::to_string(m.TotalDroppedExamples()) +
                     " + errored " + std::to_string(m.TotalErroredExamples());
  if (report.wire) {
    const net::TenantStats& totals = report.wire->totals;
    line += " + quota_rejected " + std::to_string(totals.quota_rejected) +
            " + decode_errors " + std::to_string(totals.decode_errors);
    outcomes += totals.quota_rejected + totals.decode_errors;
  }
  return {std::move(line), outcomes == offered};
}

// ------------------------------------------------------------ plain mode ---

/// Serves every stream's pregenerated traffic, batches interleaved
/// round-robin across streams so domains contend for the shared queues.
Status RunPlain(config::ScenarioMonitor& hosted, common::TrafficMap& traffic,
                ScenarioReport& report) {
  std::vector<std::size_t> offsets(hosted.streams.size(), 0);
  const std::uint64_t start = obs::Clock::NowNs();
  for (bool active = true; active;) {
    active = false;
    for (std::size_t s = 0; s < hosted.streams.size(); ++s) {
      const config::BoundStream& stream = hosted.streams[s];
      const auto it = traffic.find(stream.spec.name);
      if (it == traffic.end() || offsets[s] >= it->second.size()) continue;
      active = true;
      const std::size_t count =
          std::min(stream.spec.batch, it->second.size() - offsets[s]);
      if (Status error = OfferRange(*hosted.monitor, stream, it->second,
                                    offsets[s], count, report.offered)) {
        return error;
      }
      offsets[s] += count;
    }
  }
  hosted.monitor->Flush();
  report.wall_seconds = SecondsSince(start);
  return std::nullopt;
}

// ------------------------------------------------------------- loop mode ---

/// Video streams run the improvement loop live (traffic in `loop.rounds`
/// waves, one select -> label -> retrain round and a hot-swap pickup after
/// each); other domains' pregenerated traffic rides along through the same
/// Monitor, split across the waves.
Status RunLoop(const config::ScenarioSpec& scenario,
               config::ScenarioMonitor& hosted, common::TrafficMap& traffic,
               ScenarioReport& report) {
  const config::LoopSpec& loop_spec = scenario.loop;
  const std::uint64_t start = obs::Clock::NowNs();

  std::vector<const config::BoundStream*> video_streams;
  std::map<runtime::StreamId, std::size_t> video_index;
  for (const config::BoundStream& stream : hosted.streams) {
    if (stream.spec.domain == "video") {
      video_index.emplace(stream.handle.id(), video_streams.size());
      video_streams.push_back(&stream);
    }
  }

  video::NightStreetWorld seed_world(video::WorldConfig{},
                                     video_streams.front()->spec.seed);
  nn::Dataset pretrain = seed_world.PretrainingSet(500, 700);
  video::SsdDetector detector(video::DetectorConfig{},
                              seed_world.config().feature_dim,
                              video_streams.front()->spec.seed);
  detector.Pretrain(pretrain);

  // Retained live traffic, indexed by [video stream][example index] — what
  // the oracles resolve CandidateKeys (which carry Monitor stream ids)
  // against, via `video_index`.
  std::vector<std::unique_ptr<video::NightStreetWorld>> worlds;
  std::vector<std::vector<video::Frame>> frames(video_streams.size());
  std::vector<std::vector<video::VideoExample>> deployed(
      video_streams.size());
  for (const config::BoundStream* stream : video_streams) {
    worlds.push_back(std::make_unique<video::NightStreetWorld>(
        video::WorldConfig{}, stream->spec.seed));
  }

  auto human = std::make_shared<loop::GroundTruthOracle>(
      [&frames, &video_index](const loop::CandidateKey& key) {
        return video::NightStreetWorld::LabelFrame(
            frames.at(video_index.at(key.stream_id)).at(key.example_index));
      });
  std::shared_ptr<loop::LabelOracle> oracle = human;
  if (loop_spec.oracle == "mixed") {
    // The correction suite scores with the deployed suite's parameters, so
    // corrections are derived under the configuration whose flags
    // selected the candidates.
    auto correction_suite = std::make_shared<video::VideoSuite>(
        video::BuildVideoSuite(
            video::VideoConfigFromSuite(*scenario.SuiteFor("video"))));
    auto weak = std::make_shared<loop::WeakLabelOracle>(
        [&frames, &deployed, &video_index, correction_suite](
            std::span<const loop::CandidateKey> keys) {
          nn::Dataset rows;
          for (const auto& [stream_id, local] : video_index) {
            std::set<std::size_t> chosen;
            for (const auto& key : keys) {
              if (key.stream_id == stream_id) {
                chosen.insert(key.example_index);
              }
            }
            if (chosen.empty()) continue;
            correction_suite->consistency->Invalidate();
            rows.Append(video::MakeWeakLabelDataset(
                *correction_suite, frames[local], deployed[local], chosen));
          }
          return rows;
        },
        loop_spec.weak_weight);
    oracle = std::make_shared<loop::MixedOracle>(human, weak);
  }

  // The erased video suite's qualified names fix the store's columns — the
  // same names the Monitor's events carry.
  loop::ImprovementLoopConfig loop_config =
      config::ConfigLoader::MakeLoopConfig(
          loop_spec, hosted.assertion_names.at("video"),
          video::DetectorConfig{}.finetune_sgd);
  loop_config.retrain.replay_weight = 1.0;
  // Share the monitor's tracer (if [observability] attached one) so round /
  // retrain / model_hot_swap spans land in the same trace as serving.
  loop_config.tracer = hosted.monitor->tracer();
  loop::ImprovementLoop improvement(
      loop_config, config::ConfigLoader::MakeStrategy(loop_spec.strategy),
      oracle, detector.model(), pretrain);

  // Only video events feed the loop; other domains ride the same Monitor
  // without polluting the candidate store.
  serve::EventFilter video_only;
  video_only.domain = "video";
  serve::Subscription loop_subscription =
      hosted.monitor->Subscribe(video_only, improvement.sink());

  LoopReport loop_report;
  loop_report.strategy = loop_spec.strategy;
  loop_report.oracle = oracle->Name();
  loop_report.budget = loop_spec.budget;
  std::size_t events_before = 0;
  std::size_t examples_before = 0;
  for (std::size_t wave = 0; wave < loop_spec.rounds; ++wave) {
    // Hot-swap pickup point: between waves, never mid-batch.
    const loop::ModelHandle handle = improvement.registry().Current();
    if (handle.version != loop_report.served_version) {
      detector.SetModel(*handle.model);
      loop_report.served_version = handle.version;
    }
    for (std::size_t s = 0; s < video_streams.size(); ++s) {
      const config::BoundStream& stream = *video_streams[s];
      std::vector<serve::AnyExample> wave_examples;
      for (const video::Frame& frame : worlds[s]->GenerateFrames(
               std::max<std::size_t>(1, stream.spec.examples /
                                            loop_spec.rounds))) {
        video::VideoExample example{frame.index, frame.timestamp,
                                    detector.Detect(frame)};
        frames[s].push_back(frame);
        deployed[s].push_back(example);
        wave_examples.push_back(serve::AnyExample::Make(std::move(example)));
      }
      if (Status error = OfferRange(*hosted.monitor, stream, wave_examples,
                                    0, wave_examples.size(),
                                    report.offered)) {
        return error;
      }
    }
    // Ride-along domains: one wave's worth of their pregenerated traffic.
    for (const config::BoundStream& stream : hosted.streams) {
      const auto it = traffic.find(stream.spec.name);
      if (it == traffic.end()) continue;
      std::vector<serve::AnyExample>& examples = it->second;
      const std::size_t quota =
          wave + 1 == loop_spec.rounds
              ? examples.size()
              : std::min(examples.size(),
                         std::max<std::size_t>(
                             1, stream.spec.examples / loop_spec.rounds));
      if (Status error = OfferRange(*hosted.monitor, stream, examples, 0,
                                    quota, report.offered)) {
        return error;
      }
      examples.erase(examples.begin(),
                     examples.begin() + static_cast<std::ptrdiff_t>(quota));
    }
    hosted.monitor->Flush();

    const runtime::MetricsSnapshot snapshot = hosted.monitor->Metrics();
    LoopWave& wave_report = loop_report.waves.emplace_back();
    wave_report.flagged_rate =
        static_cast<double>(snapshot.events - events_before) /
        static_cast<double>(snapshot.examples_seen - examples_before);
    events_before = snapshot.events;
    examples_before = snapshot.examples_seen;

    wave_report.round = improvement.RunRound();
    improvement.WaitForRetrains();
  }
  report.wall_seconds = SecondsSince(start);
  report.loop = std::move(loop_report);
  return std::nullopt;
}

// ------------------------------------------------------------ serve mode ---

net::IngestServerOptions ServerOptionsFromSpec(
    const config::ScenarioSpec& scenario) {
  net::IngestServerOptions options;
  options.uds_path = scenario.server.uds_path;
  options.tcp = scenario.server.tcp;
  options.tcp_port = static_cast<std::uint16_t>(scenario.server.tcp_port);
  options.handler_threads = scenario.server.handler_threads;
  options.max_frame_bytes = scenario.server.max_frame_bytes;
  for (const config::TenantSpec& t : scenario.tenants) {
    options.tenants.push_back({.name = t.name,
                               .token = t.token,
                               .quota_eps = t.quota_eps,
                               .burst = t.burst,
                               .shed_floor = t.shed_floor,
                               .has_shed_floor = t.has_shed_floor});
  }
  return options;
}

/// Hosts the scenario behind an IngestServer until every client connection
/// has come and gone: waits for the first connection, then for the active
/// count to return to zero, then stops.
Status RunServe(const config::ScenarioSpec& scenario,
                config::ScenarioMonitor& hosted,
                const serve::DomainRegistry& domains,
                const RunOptions& options, ScenarioReport& report) {
  net::IngestServer server(ServerOptionsFromSpec(scenario), *hosted.monitor,
                           domains);
  for (const config::BoundStream& stream : hosted.streams) {
    server.ExposeStream(stream.handle, stream.spec.tenant);
  }
  const serve::Result<net::ServerEndpoints> endpoints = server.Start();
  if (!endpoints.ok()) return endpoints.error();
  if (options.on_listening) options.on_listening(endpoints.value());

  const std::uint64_t start = obs::Clock::NowNs();
  for (;;) {
    const net::IngestServerStats stats = server.Stats();
    if (stats.connections_seen > 0 && stats.connections_active == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  hosted.monitor->Flush();
  server.Stop();
  report.wire = server.Stats();
  report.wall_seconds = SecondsSince(start);
  return std::nullopt;
}

// -------------------------------------------------------------- printing ---

void PrintMonitorReport(const ScenarioReport& report, std::ostream& out) {
  const runtime::MetricsSnapshot& snapshot = report.metrics;
  common::TextTable table(
      {"Stream", "Assertion", "Fires", "Max sev", "Flag/ex"});
  for (const auto& stream : snapshot.streams) {
    for (const auto& [assertion, cell] : stream.assertions) {
      table.AddRow({stream.stream, assertion, std::to_string(cell.fires),
                    common::FormatDouble(cell.max_severity, 2),
                    common::FormatDouble(stream.FlaggedRate(assertion), 3)});
    }
  }
  table.Print(out);
  common::TextTable shard_table({"Shard", "Examples", "Shed", "Dropped",
                                 "Peak depth", "p50 ms", "p95 ms", "p99 ms",
                                 "Busy %", "Q-wait ms"});
  for (const auto& shard : snapshot.shards) {
    shard_table.AddRow(
        {std::to_string(shard.shard), std::to_string(shard.examples),
         std::to_string(shard.shed_examples),
         std::to_string(shard.dropped_examples),
         std::to_string(shard.queue_depth_peak),
         common::FormatDouble(shard.latency.Quantile(0.50) * 1e3, 3),
         common::FormatDouble(shard.latency.Quantile(0.95) * 1e3, 3),
         common::FormatDouble(shard.latency.Quantile(0.99) * 1e3, 3),
         common::FormatDouble(shard.BusyFraction() * 100.0, 1),
         common::FormatDouble(shard.MeanQueueWaitSeconds() * 1e3, 3)});
  }
  shard_table.Print(out);
  for (const auto& error : report.errors) {
    out << "ingest error: " << error << "\n";
  }
}

void PrintLoopReport(const LoopReport& loop, std::ostream& out) {
  out << "improvement loop (" << loop.strategy << " strategy, "
      << loop.oracle << " oracle, budget " << loop.budget
      << "/round, final model v" << loop.served_version << "):\n";
  common::TextTable table({"Wave", "Candidates", "Selected", "Human", "Weak",
                           "Fallback", "Flagged/ex"});
  for (std::size_t wave = 0; wave < loop.waves.size(); ++wave) {
    const std::optional<loop::RoundStats>& stats = loop.waves[wave].round;
    table.AddRow(
        {std::to_string(wave),
         stats ? std::to_string(stats->candidates) : "-",
         stats ? std::to_string(stats->selected) : "-",
         stats ? std::to_string(stats->human_labels) : "-",
         stats ? std::to_string(stats->weak_labels) : "-",
         stats ? (stats->used_fallback ? "yes" : "no") : "-",
         common::FormatDouble(loop.waves[wave].flagged_rate, 3)});
  }
  table.Print(out);
}

void PrintTenantReport(const net::IngestServerStats& stats,
                       std::ostream& out) {
  out << "served " << stats.connections_seen << " connections, "
      << stats.frames << " frames\n";
  common::TextTable table({"Tenant", "Offered", "Admitted", "Shed",
                           "Quota rej", "Decode err"});
  const auto add = [&table](const std::string& name,
                            const net::TenantStats& tenant) {
    table.AddRow({name, std::to_string(tenant.offered),
                  std::to_string(tenant.admitted),
                  std::to_string(tenant.shed),
                  std::to_string(tenant.quota_rejected),
                  std::to_string(tenant.decode_errors)});
  };
  for (const auto& [name, tenant] : stats.tenants) add(name, tenant);
  add("(total)", stats.totals);
  table.Print(out);
}

}  // namespace

void ApplyObservabilityOverrides(config::ScenarioSpec& scenario,
                                 const std::string& trace_dir,
                                 const std::string& export_dir) {
  config::ObservabilitySpec& observability = scenario.observability;
  if (!trace_dir.empty()) {
    observability.trace = true;
    if (observability.trace_path.empty()) {
      observability.trace_path =
          trace_dir + "/" + scenario.name + ".trace.json";
    }
  }
  if (!export_dir.empty()) {
    if (observability.metrics_jsonl_path.empty()) {
      observability.metrics_jsonl_path =
          export_dir + "/" + scenario.name + ".metrics.jsonl";
    }
    if (observability.metrics_prometheus_path.empty()) {
      observability.metrics_prometheus_path =
          export_dir + "/" + scenario.name + ".metrics.prom";
    }
  }
}

serve::Result<ScenarioReport> RunScenario(
    const config::ScenarioSpec& scenario,
    const serve::DomainRegistry& domains, const RunOptions& options) {
  if (options.serve && !scenario.server.enabled) {
    return Err(serve::ErrorCode::kInvalidConfig,
               "serving scenario '" + scenario.name +
                   "' needs an enabled [server] section");
  }
  // The loop drives video streams only; a loop-enabled scenario without
  // any falls back to plain monitoring (loop_skipped).
  const bool has_video = std::any_of(
      scenario.streams.begin(), scenario.streams.end(),
      [](const config::StreamSpec& s) { return s.domain == "video"; });
  const bool run_loop = !options.serve && scenario.loop.enabled && has_video;

  config::ScenarioMonitor hosted =
      config::BuildScenarioMonitor(scenario, domains);
  // Serve mode takes its traffic off the wire; nothing to pregenerate.
  common::TrafficMap traffic;
  if (!options.serve) {
    traffic =
        common::GenerateScenarioTraffic(scenario, run_loop ? "video" : "");
  }

  ScenarioReport report;
  report.scenario = scenario.name;
  report.domains = JoinedDomains(scenario) +
                   (options.serve ? "+net" : run_loop ? "+loop" : "");
  report.loop_skipped = !options.serve && scenario.loop.enabled && !run_loop;

  // Background snapshotter over the monitor's registry; Stop() takes one
  // final export so the files reflect the finished run.
  const config::ObservabilitySpec& observability = scenario.observability;
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (observability.ExporterEnabled()) {
    obs::MetricsExporterOptions exporter_options;
    exporter_options.period =
        std::chrono::milliseconds(observability.export_period_ms);
    exporter_options.jsonl_path = observability.metrics_jsonl_path;
    exporter_options.prometheus_path = observability.metrics_prometheus_path;
    serve::Monitor* monitor = hosted.monitor.get();
    exporter = std::make_unique<obs::MetricsExporter>(
        exporter_options, [monitor] { return monitor->Metrics(); });
    exporter->Start();
  }
  if (options.on_monitor) options.on_monitor(*hosted.monitor);

  const Status status =
      options.serve ? RunServe(scenario, hosted, domains, options, report)
      : run_loop    ? RunLoop(scenario, hosted, traffic, report)
                    : RunPlain(hosted, traffic, report);
  if (exporter != nullptr) exporter->Stop();
  if (status) return *status;

  report.metrics = hosted.monitor->Metrics();
  report.errors = hosted.monitor->Errors();
  if (auto [line, holds] = Accounting(report); !holds) {
    return Err(serve::ErrorCode::kInvariantViolated,
               "scenario '" + scenario.name + "': " + line +
                   " does not reconcile");
  }
  for (const std::string& path :
       {observability.metrics_jsonl_path,
        observability.metrics_prometheus_path}) {
    if (exporter != nullptr && !path.empty()) {
      report.metrics_exported.push_back(path);
    }
  }
  if (observability.trace && !observability.trace_path.empty()) {
    std::ofstream out(observability.trace_path);
    if (!out.good()) {
      return Err(serve::ErrorCode::kIoError,
                 "cannot open trace output " + observability.trace_path);
    }
    hosted.monitor->WriteChromeTrace(out);
    report.trace_written = observability.trace_path;
  }
  return report;
}

serve::Result<RepeatedReplay> ReplayRepeatedly(
    const config::ScenarioSpec& scenario,
    const serve::DomainRegistry& domains, replay::TraceReader& trace,
    const replay::ReplayOptions& options, std::size_t min_iterations,
    double soak_seconds) {
  const std::uint64_t start = obs::Clock::NowNs();
  RepeatedReplay repeated;
  std::optional<std::uint64_t> first_digest;
  do {
    serve::Result<replay::ReplayReport> replayed =
        replay::ReplayTrace(scenario, domains, trace, options);
    if (!replayed.ok()) return replayed.error();
    repeated.last = std::move(replayed.value());
    ++repeated.iterations;
    const replay::ReplayReport& last = repeated.last;
    if (!last.accounted) {
      return Err(serve::ErrorCode::kInvariantViolated,
                 "replay accounting does not reconcile on iteration " +
                     std::to_string(repeated.iterations) + ": offered " +
                     std::to_string(last.offered) + ", scored " +
                     std::to_string(last.scored));
    }
    if (first_digest.has_value() && last.flags.digest != *first_digest) {
      return Err(serve::ErrorCode::kInvariantViolated,
                 "replay digest diverged on iteration " +
                     std::to_string(repeated.iterations) + ": " +
                     replay::DigestHex(last.flags.digest) + " != " +
                     replay::DigestHex(*first_digest) +
                     " — replay is not deterministic");
    }
    first_digest = last.flags.digest;
  } while (repeated.iterations < min_iterations ||
           SecondsSince(start) < soak_seconds);
  return repeated;
}

void PrintScenarioHeader(const config::ScenarioSpec& scenario,
                         const std::string& path, std::ostream& out) {
  out << "=== scenario '" << scenario.name << "' (" << path << ")\n";
  if (!scenario.description.empty()) {
    out << "    " << scenario.description << "\n";
  }
  out << "    one monitor: " << scenario.runtime.shards << " shards, "
      << "window " << scenario.runtime.window << ", queue cap "
      << scenario.runtime.queue_capacity << ", "
      << runtime::AdmissionPolicyName(scenario.admission.policy)
      << " admission, domains " << JoinedDomains(scenario) << "\n\n";
}

void PrintListening(const config::ScenarioSpec& scenario,
                    const net::ServerEndpoints& endpoints, std::ostream& out) {
  out << "serving:";
  if (!endpoints.uds_path.empty()) out << " uds " << endpoints.uds_path;
  if (endpoints.tcp_port != 0) {
    out << " tcp 127.0.0.1:" << endpoints.tcp_port;
  }
  out << " (" << scenario.tenants.size() << " tenants, "
      << scenario.streams.size() << " streams; waiting for clients)\n";
}

void PrintReplayHeader(const replay::TraceInfo& info,
                       const std::string& trace_path,
                       const replay::ReplayOptions& options,
                       std::ostream& out) {
  out << "=== replay '" << info.scenario << "' from " << trace_path << " ("
      << info.records << " records, " << info.examples << " examples, "
      << info.streams.size() << " streams) at speed "
      << common::FormatDouble(options.speed, 2) << ", "
      << (options.over_wire ? "uds" : "inproc") << "\n";
}

void PrintReplay(const RepeatedReplay& repeated, std::ostream& out) {
  const replay::ReplayReport& last = repeated.last;
  out << "replayed " << repeated.iterations << "x: offered " << last.offered
      << " == scored " << last.scored << " + shed " << last.shed
      << " + dropped " << last.dropped << " + errored " << last.errored
      << ", " << last.flags.lines.size() << " flags, wall "
      << common::FormatDouble(last.elapsed_seconds, 3) << "s\n";
  out << "flag digest: " << replay::DigestHex(last.flags.digest) << "\n";
}

void PrintScenarioReport(const ScenarioReport& report, std::ostream& out) {
  if (report.loop) PrintLoopReport(*report.loop, out);
  if (report.wire) PrintTenantReport(*report.wire, out);
  out << Accounting(report).first << "\n";
  PrintMonitorReport(report, out);
  if (report.loop_skipped) {
    out << "note: [loop] enabled but the harness only loops video "
           "streams; monitoring ran without rounds\n";
  }
  if (!report.metrics_exported.empty()) {
    out << "metrics exported:";
    for (const std::string& path : report.metrics_exported) {
      out << " " << path;
    }
    out << "\n";
  }
  if (!report.trace_written.empty()) {
    out << "trace written: " << report.trace_written << "\n";
  }
  out << "\n";
}

void PrintSummary(const std::vector<ScenarioReport>& reports,
                  std::ostream& out) {
  out << "=== summary (" << reports.size() << " scenarios, one "
      << "monitor each) ===\n";
  common::TextTable table({"Scenario", "Domains", "Streams", "Examples",
                           "Events", "Shed", "Dropped", "p99 ms", "Wall s"});
  for (const ScenarioReport& report : reports) {
    const runtime::MetricsSnapshot& snapshot = report.metrics;
    table.AddRow(
        {report.scenario, report.domains,
         std::to_string(snapshot.streams.size()),
         std::to_string(snapshot.examples_seen),
         std::to_string(snapshot.events),
         std::to_string(snapshot.TotalShedExamples()),
         std::to_string(snapshot.TotalDroppedExamples()),
         common::FormatDouble(snapshot.MergedLatency().Quantile(0.99) * 1e3,
                              3),
         common::FormatDouble(report.wall_seconds, 2)});
  }
  table.Print(out);
}

void PrintDomains(const serve::DomainRegistry& domains, std::ostream& out) {
  out << "registered domains and assertions (use in a "
         "[suite <domain>] assertions list;\nparameters go in an "
         "[assertion <name>] section):\n\n";
  for (const std::string& name : domains.Names()) {
    out << "--- " << name << " ---\n";
    domains.At(name).describe(out);
    out << "\n";
  }
}

}  // namespace omg::app
