// The online continuous-improvement loop — the paper's Figure-1 cycle as a
// serving-scale subsystem.
//
//           ┌──────────────────────────────────────────────────┐
//           ▼                                                  │
//   serving engine ──events──► FlagCollectorSink ──► FlagStore │
//   (runtime traffic)                                   │      │
//           ▲                              snapshot per round  │
//           │                                           ▼      │
//   ModelRegistry ◄──publish── RetrainWorker ◄── RoundScheduler┘
//   (hot-swapped versions)     (background      (SelectionStrategy
//                               fine-tune)       + LabelOracle)
//
// ImprovementLoop owns everything to the right of the serving engine
// (ShardedMonitorService, or serve::Monitor in front of it): plug sink()
// into it, serve traffic scored with registry().Current(), and run rounds
// (manually or on a timer). Selected candidates are labeled
// by the oracle (human ground truth, consistency weak labels, or both),
// fine-tuned into a new model version on a background thread, and picked up
// by serving between batches — ingestion never pauses.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bandit/strategy.hpp"
#include "loop/flag_collector.hpp"
#include "loop/flag_store.hpp"
#include "loop/model_registry.hpp"
#include "loop/oracle.hpp"
#include "loop/retrain_worker.hpp"
#include "loop/round_scheduler.hpp"
#include "nn/mlp.hpp"

namespace omg::loop {

/// End-to-end loop parameters.
struct ImprovementLoopConfig {
  /// Assertion names in store-column order; must match the names the
  /// monitored suite emits (events with other names are ignored).
  std::vector<std::string> assertion_names;
  FlagStoreConfig store;   ///< num_assertions is derived from the names
  RoundConfig round;       ///< per-round budget and minimum pool size
  RetrainConfig retrain;   ///< fine-tune hyper-parameters
  std::uint64_t seed = 42; ///< seeds the scheduler's tie-breaking RNG
  /// Optional trace sink shared with the serving runtime: propagated to the
  /// scheduler (round spans), the retrain worker (retrain spans), and the
  /// registry (model_hot_swap instants), all on the control lane. Overrides
  /// any tracer already set inside `round` / `retrain`.
  std::shared_ptr<obs::Tracer> tracer;
};

/// Facade wiring FlagStore + collector + scheduler + retrainer + registry.
class ImprovementLoop {
 public:
  /// `initial_model` becomes registry version 1 (the pretrained model).
  /// `replay` is mixed into every fine-tune at retrain.replay_weight.
  ImprovementLoop(ImprovementLoopConfig config,
                  std::unique_ptr<bandit::SelectionStrategy> strategy,
                  std::shared_ptr<LabelOracle> oracle, nn::Mlp initial_model,
                  nn::Dataset replay = {},
                  RoundScheduler::ConfidenceFn confidences = {});

  /// The EventSink to AddSink into the service serving the traffic.
  std::shared_ptr<runtime::EventSink> sink() const { return sink_; }

  /// The hot-swap registry serving reads its model handles from.
  ModelRegistry& registry() { return *registry_; }
  /// The live candidate pool the collector fills.
  FlagStore& store() { return *store_; }
  /// The round driver (manual RunRound or timer Start/Stop).
  RoundScheduler& scheduler() { return *scheduler_; }
  /// The background fine-tuner publishing new versions.
  RetrainWorker& retrainer() { return *retrain_; }

  /// One synchronous select -> label -> submit-for-retrain round.
  std::optional<RoundStats> RunRound() { return scheduler_->RunRound(); }

  /// Timer-driven rounds (Stop is implied by destruction).
  void Start(std::chrono::milliseconds interval) {
    scheduler_->Start(interval);
  }
  void Stop() { scheduler_->Stop(); }

  /// Blocks until every labeled batch has been trained and published.
  void WaitForRetrains() { retrain_->WaitIdle(); }

  std::vector<RoundStats> History() const { return scheduler_->History(); }

 private:
  // Destruction order matters (reverse of declaration): the scheduler stops
  // before the retrain worker it points at, which drains before the
  // registry/store die.
  std::shared_ptr<ModelRegistry> registry_;
  std::shared_ptr<FlagStore> store_;
  std::shared_ptr<FlagCollectorSink> sink_;
  std::unique_ptr<RetrainWorker> retrain_;
  std::unique_ptr<RoundScheduler> scheduler_;
};

}  // namespace omg::loop
