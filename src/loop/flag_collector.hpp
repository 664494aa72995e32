// EventSink bridging the serving runtime into the improvement loop.
//
// Plugged into a ShardedMonitorService (or serve::Monitor) via AddSink, the
// collector turns every assertion firing into a FlagStore record: the
// event's (stream, example) identity becomes the candidate key and the
// assertion name is mapped to its severity-matrix column. This is the arrow
// from "monitoring" to "improvement" in the paper's Figure 1, realised as a
// runtime component instead of an offline export.
//
// Overload safety: Consume runs on the serving shard workers, so it must
// never become the slow consumer that backs the whole service up. Every
// counter is an atomic (no collector-wide lock), the FlagStore behind it is
// capacity-bounded with O(log n) admission, and an optional `min_severity`
// floor sheds low-severity events before they reach the store — under
// admission-level shedding the loop keeps receiving exactly the
// high-severity evidence BAL samples from. The atomic counters reconcile:
// consumed() == recorded() + shed_low_severity() + unknown_events().
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "loop/flag_store.hpp"
#include "runtime/event_sink.hpp"

namespace omg::loop {

/// FlagCollectorSink parameters.
struct FlagCollectorConfig {
  /// Events with severity strictly below this are counted as shed instead
  /// of recorded — the collector-level analogue of the runtime's
  /// ShedBelowSeverity admission policy. 0 records everything.
  double min_severity = 0.0;
};

/// Feeds runtime events into a FlagStore. Thread-safe and non-blocking
/// apart from the store's own bounded-work mutex (Consume is called from
/// shard workers concurrently; the store serialises internally).
class FlagCollectorSink final : public runtime::EventSink {
 public:
  /// `assertion_names` fixes the store's column order; events whose
  /// assertion is not listed are counted but not recorded (a service can
  /// host assertions the loop does not act on).
  FlagCollectorSink(std::shared_ptr<FlagStore> store,
                    std::vector<std::string> assertion_names,
                    FlagCollectorConfig config = {});

  /// Records the event into the store (or counts it as unknown / shed).
  void Consume(const runtime::StreamEvent& event) override;

  /// Events received, of any disposition.
  std::size_t consumed() const;

  /// Events recorded into the store.
  std::size_t recorded() const;

  /// Events below the min_severity floor, shed before the store.
  std::size_t shed_low_severity() const;

  /// Events whose assertion name had no registered column.
  std::size_t unknown_events() const;

  /// The column order the store was configured with.
  const std::vector<std::string>& assertion_names() const { return names_; }

  /// The collector's configuration.
  const FlagCollectorConfig& config() const { return config_; }

 private:
  std::shared_ptr<FlagStore> store_;
  std::vector<std::string> names_;
  FlagCollectorConfig config_;
  std::map<std::string, std::size_t, std::less<>> columns_;
  std::atomic<std::size_t> consumed_{0};
  std::atomic<std::size_t> recorded_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> unknown_events_{0};
};

}  // namespace omg::loop
