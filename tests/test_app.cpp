// The scenario runner (src/app/): every shipped configs/*.conf runs
// in-process and reconciles its admission accounting (loop scenarios run
// every round and hot-swap the model), severity-aware shedding sheds only
// the low-hint domain, the networked scenario serves a real load client
// over a per-test socket and reconciles the wire identity, and a repeated
// replay holds its digest. The TSan CI job runs this binary.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "app/scenario_runner.hpp"
#include "config/scenario.hpp"
#include "net/client.hpp"
#include "replay/trace_file.hpp"
#include "runtime/event_sink.hpp"
#include "serve/domains.hpp"
#include "serve/monitor.hpp"

namespace omg::app {
namespace {

namespace fs = std::filesystem;

const fs::path kRepo = OMG_SOURCE_DIR;

/// A per-test output directory under the test temp dir.
std::string OutputDir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("omg_app_" + tag + "_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  return dir.string();
}

/// Loads a shipped config with every trace and metrics output redirected
/// into `out_dir` (tracing forced on, so the outputs are exercised too).
config::ScenarioSpec LoadShipped(const fs::path& path,
                                 const std::string& out_dir) {
  config::ScenarioSpec scenario =
      config::ConfigLoader::LoadFile(path.string());
  scenario.observability.trace_path.clear();
  scenario.observability.metrics_jsonl_path.clear();
  scenario.observability.metrics_prometheus_path.clear();
  ApplyObservabilityOverrides(scenario, out_dir, out_dir);
  return scenario;
}

std::uint64_t Outcomes(const runtime::MetricsSnapshot& snapshot) {
  return snapshot.examples_seen + snapshot.TotalShedExamples() +
         snapshot.TotalDroppedExamples() + snapshot.TotalErroredExamples();
}

/// Examples `scenario` offers on `domain`'s streams, and how many of them
/// the monitor scored.
struct DomainCounts {
  std::uint64_t offered = 0;
  std::uint64_t scored = 0;
};

DomainCounts CountsOf(const runtime::MetricsSnapshot& snapshot,
                      const config::ScenarioSpec& scenario,
                      const std::string& domain) {
  DomainCounts counts;
  for (const config::StreamSpec& spec : scenario.streams) {
    if (spec.domain != domain) continue;
    counts.offered += spec.examples;
    for (const runtime::StreamMetrics& stream : snapshot.streams) {
      if (stream.stream == spec.name) counts.scored += stream.examples_seen;
    }
  }
  return counts;
}

TEST(App, EveryShippedConfigRunsInProcessAndReconciles) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  const std::string out_dir = OutputDir("all");
  std::size_t configs = 0;
  std::size_t loop_configs = 0;
  for (const auto& entry : fs::directory_iterator(kRepo / "configs")) {
    if (entry.path().extension() != ".conf") continue;
    ++configs;
    SCOPED_TRACE(entry.path().string());
    const config::ScenarioSpec scenario = LoadShipped(entry.path(), out_dir);
    const serve::Result<ScenarioReport> report =
        RunScenario(scenario, domains);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_GT(report.value().offered, 0u);
    EXPECT_EQ(Outcomes(report.value().metrics), report.value().offered);
    EXPECT_EQ(report.value().metrics.streams.size(), scenario.streams.size());
    EXPECT_TRUE(report.value().errors.empty());
    EXPECT_TRUE(fs::exists(report.value().trace_written));
    ASSERT_EQ(report.value().metrics_exported.size(), 2u);
    for (const std::string& path : report.value().metrics_exported) {
      EXPECT_GT(fs::file_size(path), 0u) << path;
    }
    // Loop scenarios run every round and hot-swap retrained models in
    // (version 1 is the pretrained model).
    EXPECT_EQ(report.value().loop.has_value(), scenario.loop.enabled);
    if (!report.value().loop) continue;
    ++loop_configs;
    const LoopReport& loop = *report.value().loop;
    EXPECT_EQ(loop.waves.size(), scenario.loop.rounds);
    EXPECT_TRUE(std::any_of(
        loop.waves.begin(), loop.waves.end(),
        [](const LoopWave& wave) { return wave.round.has_value(); }));
    EXPECT_GT(loop.served_version, 1u);
  }
  EXPECT_EQ(configs, 9u);
  EXPECT_EQ(loop_configs, 2u);
  fs::remove_all(out_dir);
}

/// Sleeps on every video event: sinks run on the shard worker, so this
/// holds the one shard long enough for the shared queue to fill.
class SlowVideoSink final : public runtime::EventSink {
 public:
  void Consume(const runtime::StreamEvent& event) override {
    if (event.assertion.starts_with("video/")) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
};

TEST(App, MixedOverloadShedsOnlyEcg) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  const std::string out_dir = OutputDir("overload");
  const config::ScenarioSpec scenario =
      LoadShipped(kRepo / "configs/mixed_overload.conf", out_dir);
  serve::Subscription slow;
  RunOptions options;
  options.on_monitor = [&slow](serve::Monitor& monitor) {
    slow = monitor.Subscribe(serve::EventFilter{},
                             std::make_shared<SlowVideoSink>());
  };
  const serve::Result<ScenarioReport> report =
      RunScenario(scenario, domains, options);
  ASSERT_TRUE(report.ok()) << report.error().message;
  const runtime::MetricsSnapshot& metrics = report.value().metrics;
  EXPECT_EQ(Outcomes(metrics), report.value().offered);
  EXPECT_GT(metrics.TotalShedExamples(), 0u);
  EXPECT_EQ(metrics.TotalDroppedExamples(), 0u);
  // Every video example (hinted above the floor) is scored; everything
  // shed is ECG.
  const DomainCounts video = CountsOf(metrics, scenario, "video");
  const DomainCounts ecg = CountsOf(metrics, scenario, "ecg");
  EXPECT_GT(video.offered, 0u);
  EXPECT_EQ(video.scored, video.offered);
  EXPECT_EQ(ecg.scored + metrics.TotalShedExamples(), ecg.offered);
  fs::remove_all(out_dir);
}

TEST(App, ServesNetMixedTenantsToALoadClient) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  const std::string out_dir = OutputDir("serve");
  config::ScenarioSpec scenario =
      LoadShipped(kRepo / "configs/net_mixed_tenants.conf", out_dir);
  scenario.server.uds_path = out_dir + "/ingest.sock";

  std::optional<serve::Result<net::LoadReport>> load;
  RunOptions options;
  options.serve = true;
  options.on_listening = [&](const net::ServerEndpoints& endpoints) {
    net::LoadClientOptions client;
    client.uds_path = endpoints.uds_path;
    client.streams = {{"alpha", "alpha-secret", "cam-alpha", "video"},
                      {"beta", "beta-secret", "ward-beta", "ecg"}};
    client.connections = 2;
    client.examples_per_connection = 1024;
    client.batch = 32;
    load.emplace(net::RunLoadClient(client, domains));
  };
  const serve::Result<ScenarioReport> report =
      RunScenario(scenario, domains, options);
  ASSERT_TRUE(report.ok()) << report.error().message;
  ASSERT_TRUE(load.has_value());
  ASSERT_TRUE(load->ok()) << load->error().message;
  EXPECT_TRUE(load->value().reconciled);

  ASSERT_TRUE(report.value().wire.has_value());
  const net::IngestServerStats& wire = *report.value().wire;
  EXPECT_EQ(wire.totals.offered, 2048u);
  EXPECT_EQ(Outcomes(report.value().metrics) + wire.totals.quota_rejected +
                wire.totals.decode_errors,
            wire.totals.offered);
  EXPECT_GT(wire.tenants.at("alpha").quota_rejected, 0u);
  EXPECT_EQ(wire.tenants.at("beta").quota_rejected, 0u);
  fs::remove_all(out_dir);
}

TEST(App, ServeModeNeedsAServerSection) {
  RunOptions options;
  options.serve = true;
  const serve::Result<ScenarioReport> report =
      RunScenario(config::ConfigLoader::LoadFile(
                      (kRepo / "configs/ecg_ward.conf").string()),
                  serve::MakeDefaultDomainRegistry(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, serve::ErrorCode::kInvalidConfig);
}

TEST(App, RepeatedReplayHoldsItsDigest) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  const config::ScenarioSpec scenario = config::ConfigLoader::LoadFile(
      (kRepo / "configs/ecg_ward.conf").string());
  serve::Result<replay::TraceReader> trace =
      replay::TraceReader::Open((kRepo / "traces/ecg_ward.trace").string());
  ASSERT_TRUE(trace.ok()) << trace.error().message;
  replay::ReplayOptions options;
  options.speed = 0.0;
  const serve::Result<RepeatedReplay> repeated =
      ReplayRepeatedly(scenario, domains, trace.value(), options, 3);
  ASSERT_TRUE(repeated.ok()) << repeated.error().message;
  EXPECT_EQ(repeated.value().iterations, 3u);
  EXPECT_TRUE(repeated.value().last.accounted);
  EXPECT_GT(repeated.value().last.offered, 0u);
}

}  // namespace
}  // namespace omg::app
