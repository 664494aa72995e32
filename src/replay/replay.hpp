// Deterministic trace record and replay.
//
// Recording captures a scenario's pregenerated traffic (the shared
// common::GenerateScenarioTraffic output) into a trace file
// (trace_file.hpp), batched and interleaved round-robin across streams in
// exactly the order the harness serves live — so a recorded trace is the
// live run, frozen. Inter-arrival deltas are synthesized from a configured
// offered rate rather than sampled from the wall clock: recording is
// deterministic, byte-for-byte.
//
// Replay drives a recorded trace back into a serve::Monitor built from the
// same scenario config — in-process (codec decode -> ObserveBatch) or over
// a Unix-domain socket through a real net::IngestServer (the full wire
// path: encode -> syscalls -> reassembly -> decode) — at a speed factor:
// speed 1 honours the recorded deltas, N divides them, 0 is unpaced
// max-rate. Replay forces kBlock admission and ignores [loop], so every
// offered example is scored: offered == scored exactly, and the flag set
// is a pure function of the trace + config.
//
// The golden-flag contract: the runtime only promises per-stream event
// order (shards interleave streams arbitrarily), so raw flag sequences are
// set-equal but not byte-equal across shard counts and transports.
// SummariseFlags therefore sorts events into canonical order
// (stream, example, assertion, severity) and renders each exactly like
// runtime::JsonLinesSink, yielding a byte-identical JSON-lines document —
// and one FNV-1a digest — for ANY equivalent replay: twice in a row,
// across shard counts, in-process vs over UDS. tools/check_replay_golden.py
// holds shipped traces to that digest in CI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/example_gen.hpp"
#include "config/scenario.hpp"
#include "replay/trace_file.hpp"
#include "runtime/event_sink.hpp"
#include "serve/domain_registry.hpp"
#include "serve/result.hpp"

namespace omg::replay {

/// A flag set in canonical order with its digest.
struct FlagSummary {
  /// JSON-lines events (JsonLinesSink rendering, '\n'-terminated), sorted
  /// by (stream, example, assertion, severity).
  std::vector<std::string> lines;
  /// FNV-1a 64 over the concatenated lines — the golden digest.
  std::uint64_t digest = 0;
};

/// Canonicalises collected events; deterministic for any event arrival
/// order that is a permutation of the same multiset.
FlagSummary SummariseFlags(
    std::vector<runtime::CollectingSink::OwnedEvent> events);

/// A digest as traces/golden.json and the docs quote it: 16 lowercase hex
/// digits.
std::string DigestHex(std::uint64_t digest);

/// What RecordScenarioTrace wrote.
struct RecordReport {
  std::uint64_t records = 0;
  std::uint64_t examples = 0;
  std::uint64_t scenario_hash = 0;
};

/// Records `traffic` (keyed by stream name; normally
/// common::GenerateScenarioTraffic(scenario)) to `path`, interleaving
/// batches of StreamSpec::batch round-robin across the scenario's streams.
/// `record_eps` sets the synthetic offered rate the inter-arrival deltas
/// encode (must be > 0). The scenario hash is FNV-1a of the config file at
/// scenario.source (0 when unreadable, e.g. an in-memory spec).
serve::Result<RecordReport> RecordScenarioTrace(
    const config::ScenarioSpec& scenario,
    const serve::DomainRegistry& domains, const common::TrafficMap& traffic,
    const std::string& path, double record_eps);

/// Replay knobs.
struct ReplayOptions {
  /// Delta divisor: 1 = recorded pacing, N = Nx faster, 0 = unpaced.
  double speed = 1.0;
  /// Replay through a net::IngestServer over a Unix-domain socket instead
  /// of calling ObserveBatch directly.
  bool over_wire = false;
  /// Socket path for over_wire ("" = derived from the pid).
  std::string uds_path;
  /// Overrides [runtime] shards when nonzero (cross-shard determinism
  /// checks replay one trace at several counts).
  std::size_t shards = 0;
  /// Pacing sleep, injectable for tests (default: this_thread::sleep_for).
  /// Called only for positive waits; time is read from obs::Clock, so a
  /// test installing a fake clock source observes exact pacing.
  std::function<void(std::uint64_t)> sleep_ns;
  /// Reject a trace whose scenario hash does not match the config file at
  /// scenario.source (skipped when the file is unreadable or either hash
  /// is zero).
  bool verify_scenario_hash = true;
};

/// What a replay did and what the monitor said about it.
struct ReplayReport {
  std::uint64_t offered = 0;
  std::uint64_t scored = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t errored = 0;
  /// Wire-path rejects (always 0 on a clean replay; over_wire only).
  std::uint64_t decode_errors = 0;
  std::uint64_t quota_rejected = 0;
  /// Dispatch wall time (obs::Clock), excluding monitor construction.
  double elapsed_seconds = 0.0;
  /// True when offered == scored + shed + dropped + errored held exactly.
  bool accounted = false;
  FlagSummary flags;
};

/// Replays `trace` (from its current position; rewound first) into a fresh
/// monitor built from `scenario`. Validates that every trace stream exists
/// in the scenario with the same domain and that scenario name/hash match
/// the trace header. Typed errors for mismatches, wire failures, and
/// undecodable records; replay aborts on the first failed record.
serve::Result<ReplayReport> ReplayTrace(const config::ScenarioSpec& scenario,
                                        const serve::DomainRegistry& domains,
                                        TraceReader& trace,
                                        const ReplayOptions& options = {});

}  // namespace omg::replay
