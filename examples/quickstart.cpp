// Quickstart: the OMG-C++ API in one file.
//
//   1. Define an Example type bundling your model's input and output.
//   2. Register assertions: arbitrary functions returning severity scores
//      (0 = abstain), or a consistency assertion generated from Id/Attrs/T.
//   3. Run the suite in batch over collected data, or stream examples
//      through a StreamingMonitor at runtime.
//
// This file is the runnable companion of docs/ASSERTIONS.md — the guide's
// snippets mirror the code below. For serving many streams through the
// sharded runtime, see examples/scenario_harness.cpp (declarative
// configs/*.conf scenarios) and docs/ARCHITECTURE.md.
//
// Build & run:  ./examples/quickstart
#include <iostream>

#include "core/assertion.hpp"
#include "core/consistency_adapter.hpp"
#include "core/monitor.hpp"

// A toy deployment: a classifier labels sensor readings "ok"/"alert" once
// per second; readings also carry the raw value.
struct Reading {
  double timestamp = 0.0;
  double value = 0.0;
  std::string label;  // the model's output
};

int main() {
  using namespace omg;

  core::AssertionSuite<Reading> suite;

  // (1) A custom pointwise assertion: physically impossible values.
  suite.AddPointwise("in-physical-range", [](const Reading& r) {
    return (r.value < 0.0 || r.value > 100.0) ? 1.0 : 0.0;
  });

  // (2) A custom stream assertion: values should not jump by > 50 units
  // between consecutive readings (severity = the jump size).
  suite.AddFunction("no-jumps", [](std::span<const Reading> stream) {
    std::vector<double> severity(stream.size(), 0.0);
    for (std::size_t i = 1; i < stream.size(); ++i) {
      const double jump = std::abs(stream[i].value - stream[i - 1].value);
      if (jump > 50.0) severity[i] = jump;
    }
    return severity;
  });

  // (3) A consistency assertion from the paper's Id/Attrs/T API: the
  // predicted label acts as the identifier, and a label that appears for
  // less than 3 seconds between absences is an A -> B -> A oscillation.
  core::ConsistencyConfig config;
  config.temporal_threshold = 3.0;
  auto analyzer = core::AddConsistencyAssertion<Reading>(
      suite, config, [](std::span<const Reading> stream) {
        core::ConsistencyExtraction extraction;
        for (std::size_t i = 0; i < stream.size(); ++i) {
          extraction.frames.push_back({i, stream[i].timestamp, "sensor"});
          core::ConsistencyRecord record;
          record.example_index = i;
          record.timestamp = stream[i].timestamp;
          record.group = "sensor";
          record.identifier = stream[i].label;
          extraction.records.push_back(std::move(record));
        }
        return extraction;
      });

  std::cout << "Registered assertions:";
  for (const auto& name : suite.Names()) std::cout << " " << name;
  std::cout << "\n\n";

  // A stream with three planted problems: an impossible value at t=2, a
  // jump at t=5, and a one-second "alert" blip at t=8.
  std::vector<Reading> stream;
  for (int t = 0; t < 12; ++t) {
    Reading r;
    r.timestamp = t;
    r.value = 20.0 + t;
    r.label = "ok";
    if (t == 2) r.value = 140.0;
    if (t == 5) r.value = 90.0;
    if (t == 8) r.label = "alert";
    stream.push_back(r);
  }

  // Batch validation (e.g. over historical data).
  core::SeverityMatrix matrix = suite.CheckAll(stream);
  std::cout << "Batch validation over " << matrix.num_examples()
            << " readings:\n";
  for (std::size_t e = 0; e < matrix.num_examples(); ++e) {
    for (std::size_t a = 0; a < matrix.num_assertions(); ++a) {
      if (matrix.Fired(e, a)) {
        std::cout << "  t=" << stream[e].timestamp << "  "
                  << suite.Names()[a] << " fired (severity "
                  << matrix.At(e, a) << ")\n";
      }
    }
  }

  // The consistency analyzer also proposes corrections (weak labels).
  std::cout << "\nProposed corrections:\n";
  for (const auto& correction : analyzer->Corrections(stream)) {
    std::cout << "  t=" << correction.timestamp << "  "
              << (correction.kind == core::CorrectionKind::kRemoveOutput
                      ? "remove output of identifier "
                      : "adjust ")
              << correction.identifier << "\n";
  }

  // Runtime monitoring: the same suite, streaming, with a callback. The
  // consistency analyzer memoises per window buffer, so the monitor gets
  // its Invalidate as the invalidation hook.
  std::cout << "\nStreaming monitor replay:\n";
  core::StreamingMonitor<Reading> monitor(
      suite, /*window=*/8, /*settle_lag=*/2,
      [&analyzer] { analyzer->Invalidate(); });
  monitor.OnEvent([](const core::MonitorEvent& event) {
    std::cout << "  [runtime] example " << event.example_index << ": "
              << event.assertion << " severity " << event.severity << "\n";
  });
  for (const auto& reading : stream) monitor.Observe(reading);
  std::cout << "\nMonitor saw " << monitor.stats().examples_seen
            << " examples, emitted " << monitor.stats().events_emitted
            << " events.\n";
  return 0;
}
