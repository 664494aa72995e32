// The paper's Figure-1 cycle running online, end to end, on two domains:
// serve live traffic -> assertions flag failures -> BAL picks what to label
// -> oracles label (simulated human + consistency weak labels) -> a
// background worker fine-tunes -> the new model version is hot-swapped into
// serving between batches -> the flagged rate falls.
//
//   * video: night-street frames through the multibox/flicker/appear suite;
//     labels mix ground truth with down-weighted consistency corrections.
//   * ecg: patient records through the 30 s "ECG" assertion; BAL falls back
//     to uncertainty sampling fed by live model confidences.
//
// Build & run:  ./examples/improvement_loop [--rounds N] [--seed N]
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bandit/bal.hpp"
#include "bandit/strategy.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "ecg/ecg.hpp"
#include "loop/improvement_loop.hpp"
#include "runtime/sharded_service.hpp"
#include "video/assertions.hpp"
#include "video/detector.hpp"
#include "video/pipeline.hpp"
#include "video/world.hpp"

namespace {

using namespace omg;

void PrintRounds(const std::string& domain,
                 const std::vector<std::string>& assertions,
                 const std::vector<std::optional<loop::RoundStats>>& rounds,
                 const std::vector<double>& flagged_rates,
                 const runtime::MetricsSnapshot& final_snapshot) {
  common::TextTable table({"Round", "Candidates", "Selected", "Human",
                           "Weak", "Fallback", "Flagged/ex"});
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    // A traffic round whose store held nothing labelable is skipped by the
    // scheduler (nullopt) but its flagged rate is still worth showing.
    const std::optional<loop::RoundStats>& stats = rounds[r];
    table.AddRow({std::to_string(r),
                  stats ? std::to_string(stats->candidates) : "-",
                  stats ? std::to_string(stats->selected) : "-",
                  stats ? std::to_string(stats->human_labels) : "-",
                  stats ? std::to_string(stats->weak_labels) : "-",
                  stats ? (stats->used_fallback ? "yes" : "no") : "-",
                  common::FormatDouble(flagged_rates[r], 3)});
  }
  table.Print(std::cout);
  std::cout << "cumulative per-assertion flagged rate:";
  for (const std::string& assertion : assertions) {
    std::cout << "  " << assertion << "="
              << common::FormatDouble(final_snapshot.FlaggedRate(assertion),
                                      3);
  }
  std::cout << "\n\n";
  (void)domain;
}

/// Video: BAL over live night-street traffic, human + weak labels.
void RunVideoLoop(std::size_t rounds, std::uint64_t seed) {
  std::cout << "--- video (night-street): BAL + human + weak labels ---\n";
  const std::size_t kFramesPerRound = 200;
  const std::size_t kBatch = 25;

  video::NightStreetWorld world(video::WorldConfig{}, seed);
  nn::Dataset pretrain = world.PretrainingSet(500, 700);
  video::SsdDetector detector(video::DetectorConfig{},
                              world.config().feature_dim, seed);
  detector.Pretrain(pretrain);

  std::vector<video::Frame> frames;          // retained live traffic
  std::vector<video::VideoExample> deployed;
  auto correction_suite =
      std::make_shared<video::VideoSuite>(video::BuildVideoSuite());

  auto human = std::make_shared<loop::GroundTruthOracle>(
      [&frames](const loop::CandidateKey& key) {
        return video::NightStreetWorld::LabelFrame(
            frames.at(key.example_index));
      });
  auto weak = std::make_shared<loop::WeakLabelOracle>(
      [&frames, &deployed, correction_suite](
          std::span<const loop::CandidateKey> keys) {
        std::set<std::size_t> chosen;
        for (const auto& key : keys) chosen.insert(key.example_index);
        correction_suite->consistency->Invalidate();
        return video::MakeWeakLabelDataset(*correction_suite, frames,
                                           deployed, chosen);
      },
      /*weak_weight=*/0.25);

  loop::ImprovementLoopConfig config;
  config.assertion_names = {"multibox", "flicker", "appear"};
  config.round.budget = 30;
  config.retrain.sgd = video::DetectorConfig{}.finetune_sgd;
  config.retrain.sgd.epochs = 20;
  config.retrain.replay_weight = 1.0;
  config.seed = seed + 7;
  loop::ImprovementLoop improvement(
      config,
      std::make_unique<bandit::BalStrategy>(
          bandit::BalConfig{}, std::make_unique<bandit::RandomStrategy>()),
      std::make_shared<loop::MixedOracle>(human, weak), detector.model(),
      pretrain);

  using VideoService = runtime::ShardedMonitorService<video::VideoExample>;
  VideoService service({.shards = 2, .window = 48, .settle_lag = 8}, [] {
    auto built =
        std::make_shared<video::VideoSuite>(video::BuildVideoSuite());
    return VideoService::SuiteBundle{
        std::shared_ptr<core::AssertionSuite<video::VideoExample>>(
            built, &built->suite),
        [built] { built->consistency->Invalidate(); }};
  });
  service.AddSink(improvement.sink());
  const runtime::StreamId id = service.RegisterStream("cam-live");

  std::uint64_t served_version = 0;
  std::size_t events_before = 0;
  std::size_t examples_before = 0;
  std::vector<double> flagged_rates;
  std::vector<std::optional<loop::RoundStats>> round_stats;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<video::VideoExample> batch;
    for (const video::Frame& frame : world.GenerateFrames(kFramesPerRound)) {
      if (batch.empty()) {  // hot-swap pickup point, between batches
        const loop::ModelHandle handle = improvement.registry().Current();
        if (handle.version != served_version) {
          detector.SetModel(*handle.model);
          served_version = handle.version;
        }
      }
      video::VideoExample example{frame.index, frame.timestamp,
                                  detector.Detect(frame)};
      frames.push_back(frame);
      deployed.push_back(example);
      batch.push_back(std::move(example));
      if (batch.size() == kBatch) {
        service.ObserveBatch(id, std::move(batch));
        batch.clear();
      }
    }
    if (!batch.empty()) service.ObserveBatch(id, std::move(batch));
    service.Flush();

    const runtime::MetricsSnapshot snapshot = service.Metrics();
    flagged_rates.push_back(
        static_cast<double>(snapshot.events - events_before) /
        static_cast<double>(snapshot.examples_seen - examples_before));
    events_before = snapshot.events;
    examples_before = snapshot.examples_seen;

    round_stats.push_back(improvement.RunRound());
    improvement.WaitForRetrains();
  }
  PrintRounds("video", config.assertion_names, round_stats, flagged_rates,
              service.Metrics());
}

/// ECG: BAL with an uncertainty fallback fed by live model confidences.
void RunEcgLoop(std::size_t rounds, std::uint64_t seed) {
  std::cout << "--- ecg (30s consistency): BAL + uncertainty fallback ---\n";
  const std::size_t kRecordsPerRound = 8;

  ecg::EcgGenerator generator(ecg::EcgConfig{}, seed);
  nn::Dataset pretrain = generator.PretrainingSet(600);
  ecg::EcgClassifier classifier(ecg::EcgClassifierConfig{},
                                generator.config().feature_dim, seed);
  classifier.Pretrain(pretrain);

  std::vector<ecg::EcgWindow> windows;  // retained live traffic

  auto oracle = std::make_shared<loop::GroundTruthOracle>(
      [&windows](const loop::CandidateKey& key) {
        const ecg::EcgWindow& window = windows.at(key.example_index);
        nn::Dataset data;
        data.Add(window.features, static_cast<std::size_t>(window.truth));
        return data;
      });

  loop::ImprovementLoopConfig config;
  config.assertion_names = {"ECG"};
  config.round.budget = 20;
  config.retrain.sgd = ecg::EcgClassifierConfig{}.finetune_sgd;
  config.retrain.sgd.epochs = 20;
  config.retrain.replay_weight = 1.0;
  config.seed = seed + 11;
  loop::ImprovementLoop improvement(
      config,
      std::make_unique<bandit::BalStrategy>(
          bandit::BalConfig{},
          std::make_unique<bandit::UncertaintyStrategy>()),
      oracle, classifier.model(), pretrain,
      // Live confidences for the uncertainty fallback.
      [&windows, &classifier](std::span<const loop::CandidateKey> keys) {
        std::vector<double> confidences;
        confidences.reserve(keys.size());
        for (const auto& key : keys) {
          confidences.push_back(
              classifier.Confidence(windows.at(key.example_index)));
        }
        return confidences;
      });

  using EcgService = runtime::ShardedMonitorService<ecg::EcgExample>;
  EcgService service({.shards = 2, .window = 80, .settle_lag = 8}, [] {
    auto built = std::make_shared<ecg::EcgSuite>(ecg::BuildEcgSuite());
    return EcgService::SuiteBundle{
        std::shared_ptr<core::AssertionSuite<ecg::EcgExample>>(
            built, &built->suite),
        [built] { built->consistency->Invalidate(); }};
  });
  service.AddSink(improvement.sink());
  const runtime::StreamId id = service.RegisterStream("icu-live");

  std::uint64_t served_version = 0;
  std::size_t events_before = 0;
  std::size_t examples_before = 0;
  std::vector<double> flagged_rates;
  std::vector<std::optional<loop::RoundStats>> round_stats;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t r = 0; r < kRecordsPerRound; ++r) {
      // One record per batch; the model is picked up between records.
      const loop::ModelHandle handle = improvement.registry().Current();
      if (handle.version != served_version) {
        classifier.SetModel(*handle.model);
        served_version = handle.version;
      }
      std::vector<ecg::EcgExample> batch;
      for (const ecg::EcgWindow& window : generator.GenerateRecords(1)) {
        batch.push_back({window.record, window.timestamp,
                         classifier.Predict(window)});
        windows.push_back(window);
      }
      service.ObserveBatch(id, std::move(batch));
    }
    service.Flush();

    const runtime::MetricsSnapshot snapshot = service.Metrics();
    flagged_rates.push_back(
        static_cast<double>(snapshot.events - events_before) /
        static_cast<double>(snapshot.examples_seen - examples_before));
    events_before = snapshot.events;
    examples_before = snapshot.examples_seen;

    round_stats.push_back(improvement.RunRound());
    improvement.WaitForRetrains();
  }
  PrintRounds("ecg", config.assertion_names, round_stats, flagged_rates,
              service.Metrics());
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = common::Flags::Parse(argc, argv);
  flags.CheckAllowed({"rounds", "seed"});
  const auto rounds = static_cast<std::size_t>(flags.GetInt("rounds", 6));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  std::cout << "=== online continuous-improvement loop ===\n\n";
  RunVideoLoop(rounds, seed);
  RunEcgLoop(rounds, seed);
  return 0;
}
