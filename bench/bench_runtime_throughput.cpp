// Serving-runtime throughput: examples/sec of the multi-stream assertion
// serving engine (runtime/sharded_service.hpp) vs. a per-example
// StreamingMonitor loop over the same workload:
//
//   * a `--shards` sweep over ShardedMonitorService reporting throughput,
//     speedup over the per-example baseline, and the p50/p95/p99
//     observe-to-flag latency per shard count,
//   * a saturation bench that paces offered load past capacity against a
//     small bounded queue under ShedBelowSeverity, recording the
//     throughput/latency knee — achieved eps tracks offered until the
//     knee, then plateaus while p99 hits the queue bound and the shed
//     counters (not the queue depth) absorb the overload, and
//   * a `--facade` comparison (on by default): the same workload through
//     the type-erased serve::Monitor (AnyExample wrapping + erased
//     dispatch + typed-scratch materialisation) vs. the directly templated
//     ShardedMonitorService at the same shard count — the erasure tax of
//     hosting heterogeneous domains in one runtime (target: <= 10%), and
//   * a `--net` networked saturation bench (on by default): a
//     net::IngestServer hosting a video+ecg monitor, driven flat-out by
//     net::RunLoadClient over a Unix-domain socket and over loopback TCP —
//     end-to-end wire throughput (encode + syscalls + reassembly + decode
//     + scoring) with the wire accounting identity checked:
//     offered == scored + shed + dropped + errored + quota_rejected
//     + decode_errors.
//
// The workload is synthetic but shaped like the paper's deployments: two
// pointwise assertions plus two bounded stream-level assertions (temporal
// radii 6 and 8) over feature-vector examples. The baseline feeds monitors
// one example at a time (what the seed runtime supported); the runtime
// ingests batches, so bounded-radius suffix re-scoring amortizes across the
// batch instead of being repeated per example.
//
// Prints tables and writes machine-readable results to --json (default
// BENCH_runtime.json) so the perf trajectory is trackable across PRs.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/scenario_runner.hpp"
#include "common/check.hpp"
#include "common/example_gen.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "config/monitor_loader.hpp"
#include "config/scenario.hpp"
#include "config/spec.hpp"
#include "core/assertion.hpp"
#include "core/monitor.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/tracer.hpp"
#include "replay/replay.hpp"
#include "replay/trace_file.hpp"
#include "runtime/admission.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/sharded_service.hpp"
#include "serve/domains.hpp"
#include "serve/monitor.hpp"

/// One model invocation: the shared generator module's feature-vector
/// sample (common::MakeBenchStream produces the streams). Aliased at
/// namespace scope so the facade's DomainTraits can be specialized for it
/// — the bench doubles as the "any type can be a domain" demonstration.
using Sample = omg::common::BenchSample;

namespace omg::serve {

/// Facade identity of the bench workload: domain "bench".
template <>
struct DomainTraits<Sample> {
  static constexpr std::string_view kDomain = "bench";
  static double SeverityHint(const Sample&) { return 0.0; }
  static std::string DebugString(const Sample& sample) {
    return "bench sample " + std::to_string(sample.index);
  }
};

}  // namespace omg::serve

namespace {

using namespace omg;

double Magnitude(const Sample& sample) {
  double total = 0.0;
  for (const double f : sample.features) total += std::abs(f);
  return total;
}

/// The bench suite: two pointwise + two bounded stream-level assertions.
void PopulateSuite(core::AssertionSuite<Sample>& suite) {
  suite.AddPointwise("range", [](const Sample& s) {
    double out_of_range = 0.0;
    for (const double f : s.features) {
      if (f < -4.0 || f > 4.0) out_of_range += 1.0;
    }
    return out_of_range;
  });
  suite.AddPointwise("energy", [](const Sample& s) {
    const double magnitude = Magnitude(s);
    return magnitude > 24.0 ? magnitude - 24.0 : 0.0;
  });
  // Severity of i: how far i's magnitude sits from the mean over
  // [i - 6, i + 6] — a flicker-style local-outlier check, radius 6.
  suite.AddFunction(
      "spike",
      [](std::span<const Sample> stream) {
        constexpr std::size_t r = 6;
        std::vector<double> severities(stream.size(), 0.0);
        for (std::size_t i = 0; i < stream.size(); ++i) {
          const std::size_t lo = i > r ? i - r : 0;
          const std::size_t hi = std::min(stream.size(), i + r + 1);
          double mean = 0.0;
          for (std::size_t j = lo; j < hi; ++j) mean += Magnitude(stream[j]);
          mean /= static_cast<double>(hi - lo);
          const double deviation = std::abs(Magnitude(stream[i]) - mean);
          if (deviation > 6.0) severities[i] = deviation;
        }
        return severities;
      },
      /*temporal_radius=*/6);
  // Severity of i: drift between the mean magnitude of [i - 8, i) and
  // (i, i + 8] — a sensor-drift check, radius 8.
  suite.AddFunction(
      "drift",
      [](std::span<const Sample> stream) {
        constexpr std::size_t r = 8;
        std::vector<double> severities(stream.size(), 0.0);
        for (std::size_t i = 0; i < stream.size(); ++i) {
          const std::size_t lo = i > r ? i - r : 0;
          const std::size_t hi = std::min(stream.size(), i + r + 1);
          if (i == lo || i + 1 == hi) continue;
          double before = 0.0;
          for (std::size_t j = lo; j < i; ++j) before += Magnitude(stream[j]);
          before /= static_cast<double>(i - lo);
          double after = 0.0;
          for (std::size_t j = i + 1; j < hi; ++j) after += Magnitude(stream[j]);
          after /= static_cast<double>(hi - i - 1);
          const double drift = std::abs(after - before);
          if (drift > 4.0) severities[i] = drift;
        }
        return severities;
      },
      /*temporal_radius=*/8);
}

struct RunResult {
  double seconds = 0.0;
  double examples_per_sec = 0.0;
  std::size_t events = 0;
};

/// One shard's occupancy accounting over a run (from ShardMetrics): where
/// its wall time went and how long batches sat queued before service.
struct ShardOccupancy {
  std::size_t shard = 0;
  double busy_frac = 0.0;
  double mean_queue_wait_ms = 0.0;
  double mean_service_ms = 0.0;
  std::size_t stolen_batches = 0;  ///< victim-side: taken from this queue
  double steal_ms = 0.0;           ///< thief-side: foreign scoring time
};

/// A sharded-service run: throughput plus the observe-to-flag latency
/// envelope aggregated across the shards.
struct ShardedRunResult {
  RunResult run;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<ShardOccupancy> occupancy;  ///< per shard, in shard order
};

/// The tracing-overhead comparison at the reference shard count.
struct TracingComparison {
  std::size_t shards = 0;
  std::uint64_t sample_every = 0;
  double baseline_eps = 0.0;  ///< no tracer attached
  double off_eps = 0.0;       ///< tracer attached, enabled = false
  double on_eps = 0.0;        ///< tracing on at 1/sample_every
  double off_overhead = 0.0;
  double on_overhead = 0.0;
  std::uint64_t events_recorded = 0;  ///< one tracing-on run's total
};

/// One offered-load point of the saturation sweep.
struct SaturationPoint {
  double offered_frac = 0.0;    ///< target rate / reference rate
  double offered_eps = 0.0;     ///< examples/sec actually submitted
  double achieved_eps = 0.0;    ///< examples/sec actually scored
  double p99_ms = 0.0;
  std::size_t scored = 0;
  std::size_t shed_examples = 0;
  std::size_t dropped_examples = 0;
  std::size_t queue_depth_peak = 0;
};

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Baseline: one StreamingMonitor per stream, fed one example at a time,
/// round-robin across streams (the seed's only serving mode).
RunResult RunBaseline(const std::vector<std::vector<Sample>>& streams,
                      std::size_t window, std::size_t settle_lag) {
  std::vector<core::AssertionSuite<Sample>> suites(streams.size());
  std::vector<core::StreamingMonitor<Sample>> monitors;
  monitors.reserve(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    PopulateSuite(suites[s]);
    monitors.emplace_back(suites[s], window, settle_lag);
  }
  RunResult result;
  const auto begin = Clock::now();
  const std::size_t n = streams.front().size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      result.events += monitors[s].Observe(streams[s][i]).size();
    }
  }
  result.seconds = Seconds(begin, Clock::now());
  result.examples_per_sec =
      static_cast<double>(n * streams.size()) / result.seconds;
  return result;
}

/// The backpressure-aware fast path, unsaturated: bounded queues sized so
/// the kBlock policy never engages, every batch admitted and scored.
/// `tracer` (optional) rides along for the tracing-overhead comparison.
ShardedRunResult RunSharded(const std::vector<std::vector<Sample>>& streams,
                            std::size_t shards, std::size_t batch_size,
                            std::size_t window, std::size_t settle_lag,
                            std::shared_ptr<obs::Tracer> tracer = nullptr) {
  runtime::ShardedRuntimeConfig config;
  config.shards = shards;
  config.window = window;
  config.settle_lag = settle_lag;
  // Fixed aggregate buffer budget: each shard gets its share (never less
  // than one batch). Without this, total buffered backlog — and with it
  // tail queue wait — grows linearly with the shard count, and the sweep
  // measures buffering instead of scaling.
  const std::size_t queue_budget = std::max<std::size_t>(batch_size * 16, 4096);
  config.queue_capacity = std::max(batch_size, queue_budget / shards);
  config.admission = runtime::AdmissionPolicy::kBlock;
  config.tracer = std::move(tracer);
  runtime::ShardedMonitorService<Sample> service(config, [] {
    auto suite = std::make_shared<core::AssertionSuite<Sample>>();
    PopulateSuite(*suite);
    return runtime::ShardedMonitorService<Sample>::SuiteBundle{suite, {}};
  });
  auto counting = std::make_shared<runtime::CountingSink>();
  service.AddSink(counting);
  std::vector<runtime::StreamId> ids;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    ids.push_back(service.RegisterStream("stream-" + std::to_string(s)));
  }

  ShardedRunResult result;
  const auto begin = Clock::now();
  const std::size_t n = streams.front().size();
  for (std::size_t offset = 0; offset < n; offset += batch_size) {
    const std::size_t count = std::min(batch_size, n - offset);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      service.ObserveBatch(
          ids[s], std::vector<Sample>(streams[s].begin() + offset,
                                      streams[s].begin() + offset + count));
    }
  }
  service.Flush();
  result.run.seconds = Seconds(begin, Clock::now());
  common::Check(service.Errors().empty(), "sharded ingestion errors");
  result.run.events = counting->count();
  result.run.examples_per_sec =
      static_cast<double>(n * streams.size()) / result.run.seconds;
  const runtime::MetricsSnapshot snapshot = service.Metrics();
  const runtime::LatencyHistogram latency = snapshot.MergedLatency();
  result.p50_ms = latency.Quantile(0.50) * 1e3;
  result.p95_ms = latency.Quantile(0.95) * 1e3;
  result.p99_ms = latency.Quantile(0.99) * 1e3;
  for (const runtime::ShardMetrics& shard : snapshot.shards) {
    result.occupancy.push_back(
        {shard.shard, shard.BusyFraction(), shard.MeanQueueWaitSeconds() * 1e3,
         shard.MeanServiceSeconds() * 1e3, shard.stolen_batches,
         static_cast<double>(shard.steal_ns) / 1e6});
  }
  return result;
}

/// The same unsaturated workload as RunSharded, but through the type-erased
/// serve::Monitor facade: examples wrapped into AnyExample, the suite
/// erased under the "bench" domain, the counting sink attached via an
/// unfiltered subscription. The throughput delta against RunSharded at the
/// same shard count is the facade's dispatch overhead.
ShardedRunResult RunFacade(const std::vector<std::vector<Sample>>& streams,
                           std::size_t shards, std::size_t batch_size,
                           std::size_t window, std::size_t settle_lag) {
  runtime::ShardedRuntimeConfig config;
  config.shards = shards;
  config.window = window;
  config.settle_lag = settle_lag;
  // Same aggregate buffer budget as RunSharded, so the two paths see the
  // same queueing and the throughput delta isolates dispatch overhead.
  const std::size_t queue_budget = std::max<std::size_t>(batch_size * 16, 4096);
  config.queue_capacity = std::max(batch_size, queue_budget / shards);
  config.admission = runtime::AdmissionPolicy::kBlock;
  serve::Result<std::unique_ptr<serve::Monitor>> built =
      serve::Monitor::Builder().Runtime(config).Build();
  common::Check(built.ok(), "facade monitor build failed");
  const std::unique_ptr<serve::Monitor> monitor = std::move(built.value());
  auto counting = std::make_shared<runtime::CountingSink>();
  const serve::Subscription subscription =
      monitor->Subscribe(serve::EventFilter{}, counting);
  const serve::AnySuiteFactory factory =
      serve::EraseSuiteFactory<Sample>("bench", [] {
        auto suite = std::make_shared<core::AssertionSuite<Sample>>();
        PopulateSuite(*suite);
        return runtime::SuiteBundle<Sample>{suite, {}};
      });
  std::vector<serve::StreamHandle> handles;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    serve::StreamOptions options;
    options.name = "facade-" + std::to_string(s);
    serve::Result<serve::StreamHandle> handle =
        monitor->RegisterStream("bench", factory, options);
    common::Check(handle.ok(), "facade stream registration failed");
    handles.push_back(handle.value());
  }

  ShardedRunResult result;
  const auto begin = Clock::now();
  const std::size_t n = streams.front().size();
  for (std::size_t offset = 0; offset < n; offset += batch_size) {
    const std::size_t count = std::min(batch_size, n - offset);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      common::Check(
          monitor
              ->ObserveBatch(handles[s],
                             serve::WrapBatch(std::span<const Sample>(
                                 streams[s].data() + offset, count)))
              .ok(),
          "facade ObserveBatch failed");
    }
  }
  monitor->Flush();
  result.run.seconds = Seconds(begin, Clock::now());
  common::Check(monitor->Errors().empty(), "facade ingestion errors");
  result.run.events = counting->count();
  result.run.examples_per_sec =
      static_cast<double>(n * streams.size()) / result.run.seconds;
  const runtime::LatencyHistogram latency =
      monitor->Metrics().MergedLatency();
  result.p50_ms = latency.Quantile(0.50) * 1e3;
  result.p95_ms = latency.Quantile(0.95) * 1e3;
  result.p99_ms = latency.Quantile(0.99) * 1e3;
  return result;
}

/// Per-batch severity hint for the saturation bench: the number of
/// anomaly-burst examples the batch carries (what an upstream cheap filter
/// would estimate). Shedding keeps burst-heavy batches under overload.
double BatchHint(std::span<const Sample> batch) {
  double bursts = 0.0;
  for (const Sample& sample : batch) {
    if (Magnitude(sample) > 30.0) bursts += 1.0;
  }
  return bursts;
}

/// Drives the sharded service at `offered_frac * reference_eps` against a
/// deliberately small queue under ShedBelowSeverity. Offered load is paced
/// by sleeping between submission rounds; past saturation the sleeps
/// vanish and the producer simply offers as fast as it can.
SaturationPoint RunSaturationPoint(
    const std::vector<std::vector<Sample>>& streams,
    const std::vector<std::vector<double>>& hints, double shed_floor,
    double offered_frac, double reference_eps, std::size_t shards,
    std::size_t batch_size, std::size_t window, std::size_t settle_lag,
    std::size_t queue_capacity) {
  runtime::ShardedRuntimeConfig config;
  config.shards = shards;
  config.window = window;
  config.settle_lag = settle_lag;
  config.queue_capacity = queue_capacity;
  config.admission = runtime::AdmissionPolicy::kShedBelowSeverity;
  config.shed_floor = shed_floor;
  runtime::ShardedMonitorService<Sample> service(config, [] {
    auto suite = std::make_shared<core::AssertionSuite<Sample>>();
    PopulateSuite(*suite);
    return runtime::ShardedMonitorService<Sample>::SuiteBundle{suite, {}};
  });
  std::vector<runtime::StreamId> ids;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    ids.push_back(service.RegisterStream("sat-" + std::to_string(s)));
  }

  SaturationPoint point;
  point.offered_frac = offered_frac;
  const double target_eps = offered_frac * reference_eps;
  const std::size_t n = streams.front().size();
  std::size_t submitted = 0;
  const auto begin = Clock::now();
  auto next_deadline = begin;
  for (std::size_t offset = 0; offset < n; offset += batch_size) {
    const std::size_t count = std::min(batch_size, n - offset);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      service.ObserveBatch(
          ids[s],
          std::vector<Sample>(streams[s].begin() + offset,
                              streams[s].begin() + offset + count),
          hints[s][offset / batch_size]);
    }
    submitted += count * streams.size();
    next_deadline += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            static_cast<double>(count * streams.size()) / target_eps));
    std::this_thread::sleep_until(next_deadline);  // no-op once saturated
  }
  const double offer_seconds = Seconds(begin, Clock::now());
  service.Flush();
  const double total_seconds = Seconds(begin, Clock::now());
  common::Check(service.Errors().empty(), "saturation ingestion errors");

  const runtime::MetricsSnapshot snapshot = service.Metrics();
  point.offered_eps = static_cast<double>(submitted) / offer_seconds;
  point.scored = snapshot.examples_seen;
  point.achieved_eps = static_cast<double>(point.scored) / total_seconds;
  point.shed_examples = snapshot.TotalShedExamples();
  point.dropped_examples = snapshot.TotalDroppedExamples();
  for (const runtime::ShardMetrics& shard : snapshot.shards) {
    point.queue_depth_peak =
        std::max(point.queue_depth_peak, shard.queue_depth_peak);
  }
  point.p99_ms = snapshot.MergedLatency().Quantile(0.99) * 1e3;
  // The whole point of bounded queues: memory stays bounded and losses are
  // explicit, counted shedding rather than unbounded growth.
  common::Check(point.queue_depth_peak <= queue_capacity,
                "saturation bench: queue depth exceeded its bound");
  common::Check(point.scored + point.shed_examples + point.dropped_examples ==
                    submitted,
                "saturation bench: offered examples not fully accounted for");
  return point;
}

/// One transport's networked saturation run.
struct NetPoint {
  std::string transport;  ///< "uds" | "tcp"
  std::size_t connections = 0;
  std::uint64_t offered = 0;
  double examples_per_sec = 0.0;  ///< offered / client elapsed
  std::uint64_t wire_bytes = 0;
  std::uint64_t scored = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t errored = 0;
  std::uint64_t quota_rejected = 0;
  std::uint64_t decode_errors = 0;
  bool reconciled = false;
};

/// Drives a fresh video+ecg monitor behind a net::IngestServer with
/// net::RunLoadClient, flat out (unpaced — the client offers as fast as the
/// wire accepts, so achieved throughput IS the wire's saturation rate).
/// The server is open (no tenant roster): the load client's "bench" tenant
/// authenticates without a token and is never quota-limited, so the
/// identity reduces to offered == scored + shed + dropped + errored.
NetPoint RunNetPoint(bool uds, std::size_t connections,
                     std::size_t examples_per_connection,
                     std::size_t batch_size) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  const config::ScenarioSpec scenario =
      config::ConfigLoader::Load(config::SpecDocument::Parse(R"(
[scenario]
name = "bench-net"
[runtime]
shards = 2
window = 64
settle_lag = 8
queue_capacity = 8192
[suite video]
assertions = [video.multibox]
[suite ecg]
assertions = [ecg.oscillation]
[stream cam]
domain = video
[stream ward]
domain = ecg
)"));
  config::ScenarioMonitor hosted =
      config::BuildScenarioMonitor(scenario, domains);

  net::IngestServerOptions server_options;
  if (uds) {
    server_options.uds_path =
        "/tmp/omg_bench_net_" + std::to_string(::getpid()) + ".sock";
  } else {
    server_options.tcp = true;  // ephemeral loopback port
  }
  net::IngestServer server(server_options, *hosted.monitor, domains);
  for (const config::BoundStream& stream : hosted.streams) {
    server.ExposeStream(stream.handle);
  }
  const serve::Result<net::ServerEndpoints> endpoints = server.Start();
  common::Check(endpoints.ok(), "net bench: server failed to start");

  net::LoadClientOptions load;
  if (uds) {
    load.uds_path = endpoints.value().uds_path;
  } else {
    load.tcp_port = endpoints.value().tcp_port;
  }
  load.streams = {{"bench", "", "cam", "video", 0.0},
                  {"bench", "", "ward", "ecg", 0.0}};
  load.connections = connections;
  load.batch = batch_size;
  load.examples_per_connection = examples_per_connection;
  const serve::Result<net::LoadReport> driven =
      net::RunLoadClient(load, domains);
  common::Check(driven.ok(), "net bench: load client failed");
  const net::LoadReport& report = driven.value();
  server.Stop();

  NetPoint point;
  point.transport = uds ? "uds" : "tcp";
  point.connections = connections;
  point.offered = report.offered;
  point.examples_per_sec =
      report.elapsed_seconds > 0.0
          ? static_cast<double>(report.offered) / report.elapsed_seconds
          : 0.0;
  point.wire_bytes = report.wire_bytes;
  point.scored = report.scored;
  point.shed = report.shed;
  point.dropped = report.dropped;
  point.errored = report.errored;
  point.quota_rejected = report.server_quota_rejected;
  point.decode_errors = report.server_decode_errors;
  point.reconciled = report.reconciled;
  common::Check(report.connection_errors == 0,
                "net bench: connections died mid-run");
  common::Check(point.reconciled,
                "net bench: wire accounting did not reconcile");
  return point;
}

void WriteJson(
    const std::string& path, std::size_t streams, std::size_t examples,
    std::size_t window, std::size_t settle_lag, std::size_t batch_size,
    const RunResult& baseline,
    const std::vector<std::pair<std::size_t, ShardedRunResult>>& shard_sweep,
    const ShardedRunResult* facade, std::size_t facade_shards,
    double facade_templated_eps, double facade_overhead,
    const TracingComparison& tracing, std::size_t saturation_shards,
    std::size_t saturation_capacity, double shed_floor,
    const std::vector<SaturationPoint>& saturation,
    const std::vector<NetPoint>& net) {
  std::ofstream out(path);
  common::Check(out.good(), "cannot open json output: " + path);
  out << "{\n"
      << "  \"bench\": \"runtime_throughput\",\n"
      << "  \"streams\": " << streams << ",\n"
      << "  \"examples_per_stream\": " << examples << ",\n"
      << "  \"window\": " << window << ",\n"
      << "  \"settle_lag\": " << settle_lag << ",\n"
      << "  \"batch\": " << batch_size << ",\n"
      << "  \"baseline\": {\"mode\": \"per_example_monitor\", \"seconds\": "
      << baseline.seconds << ", \"examples_per_sec\": "
      << baseline.examples_per_sec << ", \"events\": " << baseline.events
      << "},\n"
      << "  \"shard_sweep\": [\n";
  for (std::size_t i = 0; i < shard_sweep.size(); ++i) {
    const ShardedRunResult& r = shard_sweep[i].second;
    out << "    {\"shards\": " << shard_sweep[i].first
        << ", \"seconds\": " << r.run.seconds
        << ", \"examples_per_sec\": " << r.run.examples_per_sec
        << ", \"events\": " << r.run.events
        << ", \"speedup_vs_baseline\": "
        << r.run.examples_per_sec / baseline.examples_per_sec
        << ", \"observe_to_flag_ms\": {\"p50\": " << r.p50_ms
        << ", \"p95\": " << r.p95_ms << ", \"p99\": " << r.p99_ms << "}"
        << ", \"shards_occupancy\": [";
    for (std::size_t j = 0; j < r.occupancy.size(); ++j) {
      const ShardOccupancy& o = r.occupancy[j];
      out << (j == 0 ? "" : ", ") << "{\"shard\": " << o.shard
          << ", \"busy_frac\": " << o.busy_frac
          << ", \"mean_queue_wait_ms\": " << o.mean_queue_wait_ms
          << ", \"mean_service_ms\": " << o.mean_service_ms
          << ", \"stolen_batches\": " << o.stolen_batches
          << ", \"steal_ms\": " << o.steal_ms << "}";
    }
    out << "]}" << (i + 1 < shard_sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  if (facade != nullptr) {
    out << "  \"facade\": {\"shards\": " << facade_shards
        << ", \"templated_examples_per_sec\": " << facade_templated_eps
        << ", \"facade_examples_per_sec\": "
        << facade->run.examples_per_sec
        << ", \"overhead_frac\": " << facade_overhead
        << ", \"observe_to_flag_ms\": {\"p50\": " << facade->p50_ms
        << ", \"p95\": " << facade->p95_ms << ", \"p99\": " << facade->p99_ms
        << "}},\n";
  }
  out << "  \"tracing\": {\"shards\": " << tracing.shards
      << ", \"sample_every\": " << tracing.sample_every
      << ", \"baseline_examples_per_sec\": " << tracing.baseline_eps
      << ", \"tracing_off_examples_per_sec\": " << tracing.off_eps
      << ", \"tracing_on_examples_per_sec\": " << tracing.on_eps
      << ", \"off_overhead_frac\": " << tracing.off_overhead
      << ", \"on_overhead_frac\": " << tracing.on_overhead
      << ", \"events_recorded\": " << tracing.events_recorded << "},\n";
  out << "  \"saturation\": {\n"
      << "    \"policy\": \"shed_below_severity\",\n"
      << "    \"shards\": " << saturation_shards << ",\n"
      << "    \"queue_capacity_examples\": " << saturation_capacity << ",\n"
      << "    \"shed_floor\": " << shed_floor << ",\n"
      << "    \"points\": [\n";
  for (std::size_t i = 0; i < saturation.size(); ++i) {
    const SaturationPoint& p = saturation[i];
    out << "      {\"offered_frac\": " << p.offered_frac
        << ", \"offered_examples_per_sec\": " << p.offered_eps
        << ", \"achieved_examples_per_sec\": " << p.achieved_eps
        << ", \"p99_observe_to_flag_ms\": " << p.p99_ms
        << ", \"scored\": " << p.scored
        << ", \"shed_examples\": " << p.shed_examples
        << ", \"dropped_examples\": " << p.dropped_examples
        << ", \"queue_depth_peak\": " << p.queue_depth_peak << "}"
        << (i + 1 < saturation.size() ? "," : "") << "\n";
  }
  out << "    ]\n  }";
  if (!net.empty()) {
    out << ",\n  \"net\": [\n";
    for (std::size_t i = 0; i < net.size(); ++i) {
      const NetPoint& p = net[i];
      out << "    {\"transport\": \"" << p.transport
          << "\", \"connections\": " << p.connections
          << ", \"offered\": " << p.offered
          << ", \"examples_per_sec\": " << p.examples_per_sec
          << ", \"wire_bytes\": " << p.wire_bytes
          << ", \"scored\": " << p.scored << ", \"shed\": " << p.shed
          << ", \"dropped\": " << p.dropped
          << ", \"errored\": " << p.errored
          << ", \"quota_rejected\": " << p.quota_rejected
          << ", \"decode_errors\": " << p.decode_errors
          << ", \"reconciled\": " << (p.reconciled ? "true" : "false")
          << "}" << (i + 1 < net.size() ? "," : "") << "\n";
    }
    out << "  ]";
  }
  out << "\n}\n";
}

// ------------------------------------------------------------ replay mode ---

/// `--replay TRACE`: replays a recorded trace unpaced through a fresh
/// monitor twice (the second pass must reproduce the first's flag digest)
/// and writes a replay-only BENCH_runtime.json — a fixed-workload
/// throughput number that is comparable across commits because the input
/// bytes are committed to the repo, not regenerated.
int RunReplayBench(const std::string& trace_path, std::string config_path,
                   const std::string& json_path) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  serve::Result<replay::TraceReader> reader =
      replay::TraceReader::Open(trace_path);
  if (!reader.ok()) {
    std::cerr << "replay bench: " << reader.error().message << "\n";
    return 1;
  }
  const replay::TraceInfo& info = reader.value().info();
  if (config_path.empty()) {
    // The shipped traces are named after their scenario configs; config
    // file names use underscores where scenario names use hyphens.
    std::string file_name = info.scenario;
    std::replace(file_name.begin(), file_name.end(), '-', '_');
    for (const char* prefix : {"configs/", "../configs/"}) {
      for (const std::string& stem : {info.scenario, file_name}) {
        const std::string candidate = prefix + stem + ".conf";
        if (std::filesystem::exists(candidate)) {
          config_path = candidate;
          break;
        }
      }
      if (!config_path.empty()) break;
    }
  }
  if (config_path.empty()) {
    std::cerr << "replay bench: cannot find configs/" << info.scenario
              << ".conf — pass --replay-config\n";
    return 1;
  }
  const config::ScenarioSpec scenario =
      config::ConfigLoader::LoadFile(config_path);

  replay::ReplayOptions options;
  options.speed = 0.0;  // unpaced: measure the runtime, not the recording
  // Two passes: the second must reproduce the first's digest, and both
  // must reconcile their accounting (ReplayRepeatedly fails otherwise).
  const serve::Result<app::RepeatedReplay> repeated =
      app::ReplayRepeatedly(scenario, domains, reader.value(), options, 2);
  if (!repeated.ok()) {
    std::cerr << "replay bench: " << repeated.error().message << "\n";
    return 1;
  }
  const replay::ReplayReport& report = repeated.value().last;
  const double eps = report.elapsed_seconds > 0.0
                         ? static_cast<double>(report.offered) /
                               report.elapsed_seconds
                         : 0.0;
  const std::string digest = replay::DigestHex(report.flags.digest);

  std::cout << "replay bench: '" << info.scenario << "' (" << trace_path
            << ") " << report.offered << " examples in "
            << report.elapsed_seconds << "s = " << eps << " ex/s, "
            << report.flags.lines.size() << " flags, digest " << digest
            << "\n";

  // "accounted" and "deterministic" are always true here: ReplayRepeatedly
  // fails the bench before this point otherwise.
  std::ofstream out(json_path);
  common::Check(out.good(), "cannot open json output: " + json_path);
  out << "{\n"
      << "  \"bench\": \"runtime_throughput\",\n"
      << "  \"mode\": \"replay\",\n"
      << "  \"trace\": \"" << trace_path << "\",\n"
      << "  \"scenario\": \"" << info.scenario << "\",\n"
      << "  \"records\": " << info.records << ",\n"
      << "  \"examples\": " << info.examples << ",\n"
      << "  \"offered\": " << report.offered << ",\n"
      << "  \"scored\": " << report.scored << ",\n"
      << "  \"shed\": " << report.shed << ",\n"
      << "  \"dropped\": " << report.dropped << ",\n"
      << "  \"errored\": " << report.errored << ",\n"
      << "  \"accounted\": true,\n"
      << "  \"seconds\": " << report.elapsed_seconds << ",\n"
      << "  \"examples_per_sec\": " << eps << ",\n"
      << "  \"flags\": " << report.flags.lines.size() << ",\n"
      << "  \"flag_digest\": \"" << digest << "\",\n"
      << "  \"deterministic\": true\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = common::Flags::Parse(argc, argv);
  flags.CheckAllowed(
      {"streams", "examples", "shards", "capacity", "batch",
       "window", "settle", "seed", "json", "facade", "net",
       "net-examples", "replay", "replay-config"});
  if (const std::string replay_trace = flags.GetString("replay", "");
      !replay_trace.empty() && replay_trace != "true") {
    return RunReplayBench(replay_trace, flags.GetString("replay-config", ""),
                          flags.GetString("json", "BENCH_runtime.json"));
  }
  const auto n_streams = static_cast<std::size_t>(flags.GetInt("streams", 8));
  const auto examples = static_cast<std::size_t>(flags.GetInt("examples", 20000));
  // `--shards` sweeps the serving engine (ShardedMonitorService), e.g.
  // `--shards 1,2,4,8`.
  const std::vector<std::int64_t> shard_counts =
      flags.GetIntList("shards", {1, 2, 4, 8});
  common::Check(!shard_counts.empty() &&
                    std::all_of(shard_counts.begin(), shard_counts.end(),
                                [](std::int64_t s) { return s >= 1; }),
                "--shards entries must be >= 1");
  const auto batch_size = static_cast<std::size_t>(flags.GetInt("batch", 256));
  const auto window = static_cast<std::size_t>(flags.GetInt("window", 128));
  const auto settle_lag = static_cast<std::size_t>(flags.GetInt("settle", 16));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path = flags.GetString("json", "BENCH_runtime.json");
  // The suite's largest temporal radius is 8 ("drift"). Equivalence across
  // per-example and batched configurations needs settled verdicts to be
  // final (settle >= radius) and suffix re-scoring to keep its 2r context
  // (window > 2 * radius).
  constexpr std::size_t kMaxRadius = 8;
  common::Check(settle_lag >= kMaxRadius,
                "--settle must be >= 8, the largest assertion radius");
  common::Check(window > 2 * kMaxRadius && settle_lag < window,
                "--window must be > 16 (2x the largest radius) and > settle");

  std::vector<std::vector<Sample>> streams;
  for (std::size_t s = 0; s < n_streams; ++s) {
    streams.push_back(common::MakeBenchStream(seed + s, examples));
  }

  const RunResult baseline = RunBaseline(streams, window, settle_lag);
  std::vector<std::pair<std::size_t, ShardedRunResult>> shard_sweep;
  for (const std::int64_t s : shard_counts) {
    shard_sweep.emplace_back(
        static_cast<std::size_t>(s),
        RunSharded(streams, static_cast<std::size_t>(s), batch_size, window,
                   settle_lag));
    common::Check(baseline.events == shard_sweep.back().second.run.events,
                  "sharded fast path emitted a different event count");
  }

  // The sweep entry closest to 2 shards anchors both the facade
  // comparison and the saturation pacing: past ~4 shards a single-core
  // box is oversubscribed and run-to-run scheduler noise swamps the
  // few-percent effects being measured.
  const auto reference = std::min_element(
      shard_sweep.begin(), shard_sweep.end(), [](const auto& a, const auto& b) {
        const auto distance = [](std::size_t s) {
          return s > 2 ? s - 2 : 2 - s;
        };
        return distance(a.first) < distance(b.first);
      });

  // Facade-vs-templated: the same workload through serve::Monitor at the
  // reference shard count; the throughput delta is the erasure tax. Both
  // sides run interleaved, median-of-5 (same noise reasoning: run-to-run
  // scheduler variance on this box exceeds the effect being measured, and
  // a median is robust where a best-of amplifies one side's lucky run).
  const bool facade_enabled = flags.GetBool("facade", true);
  const std::size_t facade_shards = reference->first;
  ShardedRunResult facade_templated;
  ShardedRunResult facade_result;
  double facade_overhead = 0.0;
  if (facade_enabled) {
    // Best-of-N, interleaved. Scheduler noise on a shared box only ever
    // *slows* a run, so the fastest rep of each path is the noise-robust
    // estimator for a throughput ratio — a median still carries whatever
    // interference its middle rep happened to absorb.
    constexpr int kReps = 7;
    std::vector<ShardedRunResult> templated_runs;
    std::vector<ShardedRunResult> facade_runs;
    for (int rep = 0; rep < kReps; ++rep) {
      templated_runs.push_back(RunSharded(streams, facade_shards,
                                          batch_size, window, settle_lag));
      common::Check(baseline.events == templated_runs.back().run.events,
                    "templated rerun emitted a different event count");
      facade_runs.push_back(RunFacade(streams, facade_shards, batch_size,
                                      window, settle_lag));
      common::Check(baseline.events == facade_runs.back().run.events,
                    "facade emitted a different event count");
    }
    const auto fastest = [](std::vector<ShardedRunResult>& runs) {
      std::sort(runs.begin(), runs.end(),
                [](const ShardedRunResult& a, const ShardedRunResult& b) {
                  return a.run.examples_per_sec > b.run.examples_per_sec;
                });
      return runs.front();
    };
    facade_templated = fastest(templated_runs);
    facade_result = fastest(facade_runs);
    facade_overhead = 1.0 - facade_result.run.examples_per_sec /
                                facade_templated.run.examples_per_sec;
  }

  // Tracing overhead at the reference shard count: no tracer vs a tracer
  // attached but disabled (a production binary with tracing compiled in and
  // switched off — must cost nothing beyond noise) vs tracing on at 1/16
  // sampling (the recommended always-on setting — target <= 2%). Median-of-5
  // interleaved, same scheduler-noise reasoning as the facade comparison.
  TracingComparison tracing;
  tracing.shards = reference->first;
  tracing.sample_every = 16;
  {
    constexpr int kReps = 5;
    const auto make_tracer = [&](bool enabled) {
      obs::TracerOptions options;
      options.shard_lanes = tracing.shards;
      options.ring_capacity = 4096;
      options.sample_every = tracing.sample_every;
      options.enabled = enabled;
      return std::make_shared<obs::Tracer>(options);
    };
    std::vector<double> base_eps, off_eps, on_eps;
    for (int rep = 0; rep < kReps; ++rep) {
      base_eps.push_back(RunSharded(streams, tracing.shards, batch_size,
                                    window, settle_lag)
                             .run.examples_per_sec);
      off_eps.push_back(RunSharded(streams, tracing.shards, batch_size,
                                   window, settle_lag, make_tracer(false))
                            .run.examples_per_sec);
      const auto on_tracer = make_tracer(true);
      on_eps.push_back(RunSharded(streams, tracing.shards, batch_size,
                                  window, settle_lag, on_tracer)
                           .run.examples_per_sec);
      const obs::TraceSnapshot snapshot = on_tracer->Drain();
      tracing.events_recorded = 0;
      for (const obs::LaneTrace& lane : snapshot.lanes) {
        tracing.events_recorded += lane.recorded;
      }
      common::Check(tracing.events_recorded > 0,
                    "tracing-on run recorded no events");
    }
    const auto median = [](std::vector<double>& eps) {
      std::sort(eps.begin(), eps.end());
      return eps[eps.size() / 2];
    };
    tracing.baseline_eps = median(base_eps);
    tracing.off_eps = median(off_eps);
    tracing.on_eps = median(on_eps);
    tracing.off_overhead = 1.0 - tracing.off_eps / tracing.baseline_eps;
    tracing.on_overhead = 1.0 - tracing.on_eps / tracing.baseline_eps;
  }

  // Saturation: a small bounded queue under ShedBelowSeverity, offered
  // load paced at fractions of the unsaturated 2-shard (or closest) rate.
  const std::size_t saturation_shards = reference->first;
  const double reference_eps = reference->second.run.examples_per_sec;
  // Default per-shard queue bound: two submission rounds' worth of the
  // streams one shard owns, so a paced producer below the knee never sheds
  // (submission arrives in per-round bursts, not smoothly).
  const auto saturation_capacity = static_cast<std::size_t>(flags.GetInt(
      "capacity", static_cast<std::int64_t>(std::max<std::size_t>(
                      2 * batch_size *
                          (n_streams + saturation_shards - 1) /
                          saturation_shards,
                      2048))));
  // Per-batch severity hints (anomaly-burst counts); the shed floor is
  // their 75th percentile, so ~a quarter of the offered batches count as
  // important and survive overload.
  std::vector<std::vector<double>> hints(n_streams);
  std::vector<double> all_hints;
  for (std::size_t s = 0; s < n_streams; ++s) {
    for (std::size_t offset = 0; offset < examples; offset += batch_size) {
      const std::size_t count = std::min(batch_size, examples - offset);
      hints[s].push_back(BatchHint(
          std::span<const Sample>(streams[s].data() + offset, count)));
      all_hints.push_back(hints[s].back());
    }
  }
  std::sort(all_hints.begin(), all_hints.end());
  const double shed_floor =
      std::max(1.0, all_hints[all_hints.size() * 3 / 4] + 0.5);
  std::vector<SaturationPoint> saturation;
  for (const double frac : {0.5, 1.0, 2.0, 4.0}) {
    saturation.push_back(RunSaturationPoint(
        streams, hints, shed_floor, frac, reference_eps, saturation_shards,
        batch_size, window, settle_lag, saturation_capacity));
  }

  // Networked saturation: both transports, unpaced, 4 connections (two per
  // exposed stream). `--net-examples` scales the per-connection volume.
  const bool net_enabled = flags.GetBool("net", true);
  const auto net_examples =
      static_cast<std::size_t>(flags.GetInt("net-examples", 50000));
  std::vector<NetPoint> net_points;
  if (net_enabled) {
    for (const bool uds : {true, false}) {
      net_points.push_back(RunNetPoint(uds, /*connections=*/4, net_examples,
                                       /*batch_size=*/256));
    }
  }
  common::Check(saturation.back().shed_examples > 0,
                "saturation bench: overload must shed under "
                "ShedBelowSeverity, not grow the queue");
  std::cout << "=== runtime throughput (" << n_streams << " streams x "
            << examples << " examples, window " << window << ", settle "
            << settle_lag << ") ===\n\n";
  common::TextTable table({"Configuration", "Seconds", "Examples/sec",
                           "Events"});
  table.AddRow({"per-example monitor loop",
                common::FormatDouble(baseline.seconds, 3),
                common::FormatDouble(baseline.examples_per_sec, 0),
                std::to_string(baseline.events)});
  table.Print(std::cout);

  std::cout << "\n=== serving engine (--shards sweep) ===\n\n";
  common::TextTable fast_table({"Shards", "Seconds", "Examples/sec",
                                "Speedup", "p50 ms", "p95 ms", "p99 ms",
                                "Busy %", "Q-wait ms"});
  for (const auto& [s, result] : shard_sweep) {
    double busy = 0.0;
    double wait = 0.0;
    for (const ShardOccupancy& o : result.occupancy) {
      busy += o.busy_frac;
      wait += o.mean_queue_wait_ms;
    }
    const auto shard_count = static_cast<double>(result.occupancy.size());
    fast_table.AddRow(
        {std::to_string(s), common::FormatDouble(result.run.seconds, 3),
         common::FormatDouble(result.run.examples_per_sec, 0),
         common::FormatDouble(
             result.run.examples_per_sec / baseline.examples_per_sec, 2) +
             "x",
         common::FormatDouble(result.p50_ms, 3),
         common::FormatDouble(result.p95_ms, 3),
         common::FormatDouble(result.p99_ms, 3),
         common::FormatDouble(busy / shard_count * 100.0, 1),
         common::FormatDouble(wait / shard_count, 3)});
  }
  fast_table.Print(std::cout);

  if (facade_enabled) {
    std::cout << "\n=== type-erased facade vs templated ("
              << facade_shards << " shards) ===\n\n";
    common::TextTable facade_table(
        {"Configuration", "Examples/sec", "p99 ms", "Overhead"});
    facade_table.AddRow(
        {"templated ShardedMonitorService",
         common::FormatDouble(facade_templated.run.examples_per_sec, 0),
         common::FormatDouble(facade_templated.p99_ms, 3), "-"});
    facade_table.AddRow(
        {"serve::Monitor (AnyExample dispatch)",
         common::FormatDouble(facade_result.run.examples_per_sec, 0),
         common::FormatDouble(facade_result.p99_ms, 3),
         common::FormatDouble(facade_overhead * 100.0, 1) + "%"});
    facade_table.Print(std::cout);
    if (facade_overhead > 0.10) {
      std::cout << "WARNING: facade overhead above the 10% target\n";
    }
  }

  std::cout << "\n=== tracing overhead (" << tracing.shards
            << " shards, sample 1/" << tracing.sample_every << ") ===\n\n";
  common::TextTable trace_table({"Configuration", "Examples/sec",
                                 "Overhead"});
  trace_table.AddRow({"no tracer",
                      common::FormatDouble(tracing.baseline_eps, 0), "-"});
  trace_table.AddRow({"tracer attached, disabled",
                      common::FormatDouble(tracing.off_eps, 0),
                      common::FormatDouble(tracing.off_overhead * 100.0, 1) +
                          "%"});
  trace_table.AddRow({"tracing on, 1/" +
                          std::to_string(tracing.sample_every) + " sampling",
                      common::FormatDouble(tracing.on_eps, 0),
                      common::FormatDouble(tracing.on_overhead * 100.0, 1) +
                          "%"});
  trace_table.Print(std::cout);
  if (tracing.on_overhead > 0.02) {
    std::cout << "WARNING: sampled tracing overhead above the 2% target\n";
  }

  std::cout << "\n=== saturation (shed_below_severity, "
            << saturation_shards << " shards, queue "
            << saturation_capacity << " examples, floor "
            << common::FormatDouble(shed_floor, 1) << ") ===\n\n";
  common::TextTable sat_table({"Offered", "Offered ex/s", "Achieved ex/s",
                               "p99 ms", "Shed", "Dropped", "Peak depth"});
  for (const SaturationPoint& p : saturation) {
    sat_table.AddRow({common::FormatDouble(p.offered_frac, 2) + "x",
                      common::FormatDouble(p.offered_eps, 0),
                      common::FormatDouble(p.achieved_eps, 0),
                      common::FormatDouble(p.p99_ms, 3),
                      std::to_string(p.shed_examples),
                      std::to_string(p.dropped_examples),
                      std::to_string(p.queue_depth_peak)});
  }
  sat_table.Print(std::cout);

  if (net_enabled) {
    std::cout << "\n=== networked ingestion (video+ecg monitor behind "
                 "net::IngestServer, 4 connections, unpaced) ===\n\n";
    common::TextTable net_table({"Transport", "Offered", "Examples/sec",
                                 "Wire MB", "Scored", "Shed",
                                 "Reconciled"});
    for (const NetPoint& p : net_points) {
      net_table.AddRow(
          {p.transport, std::to_string(p.offered),
           common::FormatDouble(p.examples_per_sec, 0),
           common::FormatDouble(static_cast<double>(p.wire_bytes) / 1e6, 1),
           std::to_string(p.scored), std::to_string(p.shed),
           p.reconciled ? "yes" : "NO"});
    }
    net_table.Print(std::cout);
  }

  WriteJson(json_path, n_streams, examples, window, settle_lag, batch_size,
            baseline, shard_sweep,
            facade_enabled ? &facade_result : nullptr, facade_shards,
            facade_templated.run.examples_per_sec, facade_overhead, tracing,
            saturation_shards, saturation_capacity, shed_floor, saturation,
            net_points);
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
