#include "replay/replay.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <utility>

#include "config/monitor_loader.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "obs/clock.hpp"

namespace omg::replay {

namespace {

serve::Error Err(serve::ErrorCode code, std::string message) {
  return serve::Error{code, std::move(message)};
}

/// Renders one event exactly as runtime::JsonLinesSink::Consume does —
/// same escaping, same %.17g severity — so a canonical flag document is
/// byte-comparable with a live JSON-lines capture of the same events.
std::string RenderLine(const runtime::CollectingSink::OwnedEvent& event) {
  std::array<char, 32> severity{};
  std::snprintf(severity.data(), severity.size(), "%.17g", event.severity);
  std::string line;
  line += "{\"stream\":\"";
  line += runtime::JsonEscape(event.stream);
  line += "\",\"example\":";
  line += std::to_string(event.example_index);
  line += ",\"assertion\":\"";
  line += runtime::JsonEscape(event.assertion);
  line += "\",\"severity\":";
  line += severity.data();
  line += "}\n";
  return line;
}

void DefaultSleep(std::uint64_t ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

/// The scenario copy a replay actually runs: kBlock admission (nothing is
/// shed, so offered == scored and the flag set is deterministic), no
/// improvement loop, no server section, optional shard override.
config::ScenarioSpec ReplaySpecOf(const config::ScenarioSpec& scenario,
                                  const ReplayOptions& options) {
  config::ScenarioSpec spec = scenario;
  spec.admission.policy = runtime::AdmissionPolicy::kBlock;
  spec.loop.enabled = false;
  spec.server.enabled = false;
  if (options.shards > 0) spec.runtime.shards = options.shards;
  return spec;
}

/// Per-trace-stream replay state resolved against the scenario.
struct StreamBinding {
  const config::BoundStream* bound = nullptr;
  const net::PayloadCodec* codec = nullptr;
  std::uint64_t wire_binding = 0;  ///< over-wire BIND_STREAM id
};

}  // namespace

FlagSummary SummariseFlags(
    std::vector<runtime::CollectingSink::OwnedEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const runtime::CollectingSink::OwnedEvent& a,
               const runtime::CollectingSink::OwnedEvent& b) {
              return std::tie(a.stream, a.example_index, a.assertion,
                              a.severity) < std::tie(b.stream,
                                                     b.example_index,
                                                     b.assertion, b.severity);
            });
  FlagSummary summary;
  summary.lines.reserve(events.size());
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const runtime::CollectingSink::OwnedEvent& event : events) {
    std::string line = RenderLine(event);
    for (const char c : line) {
      hash ^= static_cast<std::uint8_t>(c);
      hash *= 0x100000001b3ull;
    }
    summary.lines.push_back(std::move(line));
  }
  summary.digest = hash;
  return summary;
}

std::string DigestHex(std::uint64_t digest) {
  std::array<char, 17> buffer{};
  std::snprintf(buffer.data(), buffer.size(), "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer.data();
}

serve::Result<RecordReport> RecordScenarioTrace(
    const config::ScenarioSpec& scenario,
    const serve::DomainRegistry& domains, const common::TrafficMap& traffic,
    const std::string& path, double record_eps) {
  if (!(record_eps > 0.0)) {
    return Err(serve::ErrorCode::kInvalidArgument,
               "record_eps must be positive (it sets the synthetic "
               "inter-arrival rate)");
  }
  if (scenario.streams.empty()) {
    return Err(serve::ErrorCode::kInvalidArgument,
               "scenario '" + scenario.name + "' declares no streams");
  }
  TraceInfo info;
  info.scenario = scenario.name;
  if (!scenario.source.empty()) {
    const serve::Result<std::uint64_t> hash = HashFile(scenario.source);
    if (hash.ok()) info.scenario_hash = hash.value();
  }
  for (const config::StreamSpec& stream : scenario.streams) {
    info.streams.push_back(
        TraceStreamInfo{stream.name, stream.domain, stream.severity_hint});
  }
  serve::Result<TraceWriter> writer = TraceWriter::Open(path, info);
  if (!writer.ok()) return writer.error();

  // Interleave batches round-robin across streams in file order — the same
  // schedule the harness serves live — so replayed load mixes domains the
  // way the live scenario does rather than draining streams one by one.
  struct Cursor {
    const config::StreamSpec* spec = nullptr;
    const std::vector<serve::AnyExample>* examples = nullptr;
    const net::PayloadCodec* codec = nullptr;
    std::size_t next = 0;
  };
  std::vector<Cursor> cursors;
  for (const config::StreamSpec& stream : scenario.streams) {
    Cursor cursor;
    cursor.spec = &stream;
    const auto it = traffic.find(stream.name);
    if (it == traffic.end() || it->second.empty()) continue;  // nothing to record
    cursor.examples = &it->second;
    cursor.codec = domains.CodecFor(stream.domain);
    if (cursor.codec == nullptr) {
      return Err(serve::ErrorCode::kUnknownDomain,
                 "stream '" + stream.name + "' domain '" + stream.domain +
                     "' has no registered payload codec");
    }
    cursors.push_back(cursor);
  }
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t c = 0; c < cursors.size(); ++c) {
      // The stream's trace-table index is its position in the scenario's
      // stream list, not in the (traffic-filtered) cursor list.
      Cursor& cursor = cursors[c];
      const std::size_t remaining = cursor.examples->size() - cursor.next;
      if (remaining == 0) continue;
      const std::size_t batch =
          std::min(cursor.spec->batch > 0 ? cursor.spec->batch : 1,
                   remaining);
      const std::span<const serve::AnyExample> slice(
          cursor.examples->data() + cursor.next, batch);
      const std::vector<std::uint8_t> payload =
          net::EncodeBatch(*cursor.codec, slice);
      const std::uint32_t stream_index = static_cast<std::uint32_t>(
          cursor.spec - scenario.streams.data());
      const std::uint64_t delta_ns = static_cast<std::uint64_t>(
          static_cast<double>(batch) * 1e9 / record_eps);
      const serve::Result<bool> appended = writer.value().Append(
          stream_index, delta_ns, static_cast<std::uint32_t>(batch),
          cursor.spec->severity_hint, payload);
      if (!appended.ok()) return appended.error();
      cursor.next += batch;
      progressed = true;
    }
  }
  if (writer.value().records() == 0) {
    return Err(serve::ErrorCode::kInvalidArgument,
               "no traffic to record: every stream's example list is empty");
  }
  const serve::Result<bool> finished = writer.value().Finish();
  if (!finished.ok()) return finished.error();
  RecordReport report;
  report.records = writer.value().records();
  report.examples = writer.value().examples();
  report.scenario_hash = info.scenario_hash;
  return report;
}

serve::Result<ReplayReport> ReplayTrace(const config::ScenarioSpec& scenario,
                                        const serve::DomainRegistry& domains,
                                        TraceReader& trace,
                                        const ReplayOptions& options) {
  const TraceInfo& info = trace.info();
  if (info.scenario != scenario.name) {
    return Err(serve::ErrorCode::kInvalidArgument,
               "trace was recorded from scenario '" + info.scenario +
                   "', not '" + scenario.name + "'");
  }
  if (options.verify_scenario_hash && info.scenario_hash != 0 &&
      !scenario.source.empty()) {
    const serve::Result<std::uint64_t> hash = HashFile(scenario.source);
    if (hash.ok() && hash.value() != info.scenario_hash) {
      return Err(serve::ErrorCode::kInvalidArgument,
                 "scenario config '" + scenario.source +
                     "' has changed since this trace was recorded "
                     "(hash mismatch) — re-record or pass "
                     "verify_scenario_hash = false");
    }
  }
  if (!(options.speed >= 0.0)) {
    return Err(serve::ErrorCode::kInvalidArgument,
               "speed must be >= 0 (0 replays unpaced)");
  }

  const config::ScenarioSpec spec = ReplaySpecOf(scenario, options);
  config::ScenarioMonitor hosted =
      config::BuildScenarioMonitor(spec, domains);

  // Resolve every trace stream against the freshly built monitor.
  std::vector<StreamBinding> bindings(info.streams.size());
  for (std::size_t s = 0; s < info.streams.size(); ++s) {
    const TraceStreamInfo& stream = info.streams[s];
    for (const config::BoundStream& bound : hosted.streams) {
      if (bound.spec.name == stream.name) {
        bindings[s].bound = &bound;
        break;
      }
    }
    if (bindings[s].bound == nullptr) {
      return Err(serve::ErrorCode::kUnknownStream,
                 "trace stream '" + stream.name +
                     "' does not exist in scenario '" + scenario.name + "'");
    }
    if (bindings[s].bound->spec.domain != stream.domain) {
      return Err(serve::ErrorCode::kWrongDomain,
                 "trace stream '" + stream.name + "' was recorded as domain '" +
                     stream.domain + "' but the scenario declares '" +
                     bindings[s].bound->spec.domain + "'");
    }
    bindings[s].codec = domains.CodecFor(stream.domain);
    if (bindings[s].codec == nullptr) {
      return Err(serve::ErrorCode::kUnknownDomain,
                 "trace stream '" + stream.name + "' domain '" +
                     stream.domain + "' has no registered payload codec");
    }
  }

  const auto sink = std::make_shared<runtime::CollectingSink>();
  serve::Subscription subscription =
      hosted.monitor->Subscribe(serve::EventFilter{}, sink);

  // Over-wire mode hosts the same monitor behind a real IngestServer and
  // pushes the recorded payload bytes through a UDS connection — the full
  // encode -> socket -> reassemble -> decode path, no client-side
  // re-encode, so the bytes on the wire are the bytes in the trace.
  std::unique_ptr<net::IngestServer> server;
  std::optional<net::ClientConnection> client;
  if (options.over_wire) {
    net::IngestServerOptions server_options;
    server_options.uds_path =
        options.uds_path.empty()
            ? "/tmp/omg-replay-" + std::to_string(::getpid()) + ".sock"
            : options.uds_path;
    server = std::make_unique<net::IngestServer>(server_options,
                                                 *hosted.monitor, domains);
    for (const StreamBinding& binding : bindings) {
      server->ExposeStream(binding.bound->handle);
    }
    const serve::Result<net::ServerEndpoints> endpoints = server->Start();
    if (!endpoints.ok()) return endpoints.error();
    serve::Result<net::ClientConnection> connected =
        net::ClientConnection::ConnectUds(endpoints.value().uds_path);
    if (!connected.ok()) return connected.error();
    client.emplace(std::move(connected.value()));
    const serve::Result<std::uint64_t> session = client->Hello("replay", "");
    if (!session.ok()) return session.error();
    for (std::size_t s = 0; s < bindings.size(); ++s) {
      const serve::Result<std::uint64_t> bound = client->BindStream(
          info.streams[s].domain, info.streams[s].name);
      if (!bound.ok()) return bound.error();
      bindings[s].wire_binding = bound.value();
    }
  }

  const auto sleep_ns =
      options.sleep_ns ? options.sleep_ns : DefaultSleep;
  const std::uint64_t start_ns = obs::Clock::NowNs();
  double target_ns = 0.0;
  std::uint64_t offered = 0;

  trace.Rewind();
  for (;;) {
    serve::Result<std::optional<TraceRecord>> next = trace.Next();
    if (!next.ok()) return next.error();
    if (!next.value().has_value()) break;
    TraceRecord& record = *next.value();
    if (options.speed > 0.0) {
      target_ns += static_cast<double>(record.delta_ns) / options.speed;
      const std::uint64_t elapsed =
          obs::Clock::ElapsedNs(start_ns, obs::Clock::NowNs());
      if (target_ns > static_cast<double>(elapsed)) {
        sleep_ns(static_cast<std::uint64_t>(target_ns -
                                            static_cast<double>(elapsed)));
      }
    }
    const StreamBinding& binding = bindings[record.stream];
    if (options.over_wire) {
      const serve::Result<bool> sent = client->SendEncoded(
          binding.wire_binding, info.streams[record.stream].domain,
          record.count, record.payload, record.hint);
      if (!sent.ok()) return sent.error();
    } else {
      serve::Result<std::vector<serve::AnyExample>> batch = net::DecodeBatch(
          *binding.codec, record.payload, record.count);
      if (!batch.ok()) {
        return Err(batch.code(),
                   "record " + std::to_string(record.index) + ": " +
                       batch.error().message);
      }
      const serve::Result<serve::ObserveOutcome> observed =
          hosted.monitor->ObserveBatch(binding.bound->handle,
                                       std::move(batch.value()), record.hint);
      if (!observed.ok()) {
        return Err(observed.code(),
                   "record " + std::to_string(record.index) + ": " +
                       observed.error().message);
      }
    }
    offered += record.count;
  }

  ReplayReport report;
  if (options.over_wire) {
    // Stats() flushes the server-side monitor before reading, so the
    // counters and the sink's events are both complete.
    const serve::Result<std::vector<std::uint64_t>> stats = client->Stats();
    if (!stats.ok()) return stats.error();
    const std::vector<std::uint64_t>& s = stats.value();
    report.offered = s[0];
    report.quota_rejected = s[2];
    report.decode_errors = s[3];
    report.scored = s[4];
    report.shed = s[5];
    report.dropped = s[6];
    report.errored = s[7];
    client->Goodbye();
    server->Stop();
  } else {
    hosted.monitor->Flush();
    const runtime::MetricsSnapshot metrics = hosted.monitor->Metrics();
    report.offered = offered;
    report.scored = metrics.examples_seen;
    report.shed = metrics.TotalShedExamples();
    report.dropped = metrics.TotalDroppedExamples();
    report.errored = metrics.TotalErroredExamples();
  }
  report.elapsed_seconds =
      obs::Clock::ToSeconds(obs::Clock::ElapsedNs(start_ns, obs::Clock::NowNs()));
  report.accounted = report.offered == report.scored + report.shed +
                                           report.dropped + report.errored;
  report.flags = SummariseFlags(sink->Events());
  return report;
}

}  // namespace omg::replay
