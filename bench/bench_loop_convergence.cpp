// Online improvement-loop convergence on the video domain (the paper's
// Figure-1 cycle run live, ISSUE 2 acceptance): does closing the loop —
// flag -> BAL-select -> label -> background-retrain -> hot-swap — reduce
// the flagged-example rate of live traffic across rounds, versus serving
// the same traffic with the pretrained model forever?
//
// Each arm serves `--rounds` rounds of `--frames` night-street frames
// through the multi-stream runtime with the full video suite (multibox +
// consistency-generated flicker/appear). The loop arms run one bandit round
// after each traffic round: candidates come from the live FlagStore, labels
// from the simulator's ground truth (the "human" of §3) — and in the
// "bal+weak" arm additionally from consistency corrections at reduced
// weight (§5.5) — and the fine-tuned model is published to the registry,
// which serving picks up between batches without pausing ingestion.
//
// Writes machine-readable results to --json (default BENCH_loop.json).
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bandit/bal.hpp"
#include "bandit/strategy.hpp"
#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "eval/detection_metrics.hpp"
#include "loop/improvement_loop.hpp"
#include "runtime/sharded_service.hpp"
#include "video/assertions.hpp"
#include "video/detector.hpp"
#include "video/pipeline.hpp"
#include "video/world.hpp"

namespace {

using namespace omg;

struct BenchConfig {
  std::size_t rounds = 8;
  std::size_t frames_per_round = 250;
  std::size_t budget = 35;
  std::size_t shards = 2;
  std::size_t batch = 25;
  /// Frames served before round 0 so the road reaches steady-state density
  /// and the window primes; excluded from round stats.
  std::size_t warmup_frames = 60;
  std::uint64_t seed = 42;
};

struct RoundPoint {
  /// Distinct flagged frames / frames over this round's traffic — the
  /// flagged-example rate the loop is trying to push down.
  double flagged_rate = 0.0;
  double events_per_example = 0.0;
  std::size_t events = 0;
  std::map<std::string, std::size_t> events_by_assertion;
  std::uint64_t model_version = 0;
  double test_map = 0.0;
};

/// Counts distinct flagged examples (one stream), drained per round.
class DistinctFlaggedSink final : public runtime::EventSink {
 public:
  void Consume(const runtime::StreamEvent& event) override {
    std::lock_guard<std::mutex> lock(mutex_);
    flagged_.insert(event.example_index);
  }

  /// Distinct flagged examples since the last drain.
  std::size_t Drain() {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t count = flagged_.size();
    flagged_.clear();
    return count;
  }

 private:
  std::mutex mutex_;
  std::set<std::size_t> flagged_;
};

struct ArmResult {
  std::string name;
  std::vector<RoundPoint> rounds;
  double ingest_seconds = 0.0;  ///< wall time spent serving traffic
  double total_seconds = 0.0;   ///< serving + rounds + retraining
  std::size_t examples = 0;
  std::size_t weak_labels = 0;
  std::size_t human_labels = 0;

  double IngestExamplesPerSec() const {
    return ingest_seconds > 0.0
               ? static_cast<double>(examples) / ingest_seconds
               : 0.0;
  }
};

/// mAP of `detector` over held-out frames (the fixed test "day").
double TestMap(const video::SsdDetector& detector,
               const std::vector<video::Frame>& test_frames) {
  std::vector<eval::FrameEval> evals;
  evals.reserve(test_frames.size());
  for (const auto& frame : test_frames) {
    eval::FrameEval fe;
    fe.detections = detector.DetectForEval(frame);
    fe.truths = frame.truths;
    evals.push_back(std::move(fe));
  }
  return eval::MeanAveragePrecision(evals);
}

enum class Arm { kControl, kBal, kBalWeak };

ArmResult RunArm(Arm arm, const std::string& name, const BenchConfig& bench) {
  using Clock = std::chrono::steady_clock;
  const auto arm_begin = Clock::now();

  // Identical worlds/models per arm: same seeds, same call order.
  video::NightStreetWorld world(video::WorldConfig{}, bench.seed);
  nn::Dataset pretrain = world.PretrainingSet(500, 700);
  video::NightStreetWorld test_world(video::WorldConfig{}, bench.seed + 999);
  const std::vector<video::Frame> test_frames = test_world.GenerateFrames(120);
  video::SsdDetector detector(video::DetectorConfig{},
                              world.config().feature_dim, bench.seed);
  detector.Pretrain(pretrain);

  // Retained live traffic: candidate keys index into these, and the weak
  // oracle re-derives corrections from the deployed outputs recorded here.
  std::vector<video::Frame> frames;
  std::vector<video::VideoExample> deployed;
  auto correction_suite = std::make_shared<video::VideoSuite>(
      video::BuildVideoSuite());  // weak oracle's own analyzer

  auto human = std::make_shared<loop::GroundTruthOracle>(
      [&frames](const loop::CandidateKey& key) {
        return video::NightStreetWorld::LabelFrame(
            frames.at(key.example_index));
      });
  std::shared_ptr<loop::LabelOracle> oracle = human;
  if (arm == Arm::kBalWeak) {
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
    oracle = std::make_shared<loop::MixedOracle>(human, weak);
  }

  loop::ImprovementLoopConfig config;
  config.assertion_names = {"multibox", "flicker", "appear"};
  config.store.capacity = 512;
  config.round.budget = bench.budget;
  config.round.min_candidates = 1;
  config.retrain.sgd = video::DetectorConfig{}.finetune_sgd;
  config.retrain.sgd.epochs = 20;      // each retrain re-fits the full set
  config.retrain.replay_weight = 1.0;  // LabelAndTrain replays pretraining
  config.retrain.seed = bench.seed ^ 0x5EEDULL;
  config.seed = bench.seed + 7;
  loop::ImprovementLoop improvement(
      config,
      std::make_unique<bandit::BalStrategy>(
          bandit::BalConfig{}, std::make_unique<bandit::RandomStrategy>()),
      oracle, detector.model(), pretrain);

  using Service = runtime::ShardedMonitorService<video::VideoExample>;
  Service service({.shards = bench.shards, .window = 48, .settle_lag = 8}, [] {
    auto built =
        std::make_shared<video::VideoSuite>(video::BuildVideoSuite());
    return Service::SuiteBundle{
        std::shared_ptr<core::AssertionSuite<video::VideoExample>>(
            built, &built->suite),
        [built] { built->consistency->Invalidate(); }};
  });
  service.AddSink(improvement.sink());
  auto distinct = std::make_shared<DistinctFlaggedSink>();
  service.AddSink(distinct);
  const runtime::StreamId id = service.RegisterStream("cam-live");

  ArmResult result;
  result.name = name;
  std::size_t events_before = 0;
  std::size_t examples_before = 0;
  std::map<std::string, std::size_t> fires_before;
  std::uint64_t served_version = 0;

  // Scores `count` fresh frames with the registry-current model and serves
  // them; the model is picked up between batches — never mid-batch, and
  // never by pausing ingestion.
  const auto serve = [&](std::size_t count) {
    const std::vector<video::Frame> fresh = world.GenerateFrames(count);
    const auto ingest_begin = Clock::now();
    std::vector<video::VideoExample> batch;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (batch.empty()) {
        const loop::ModelHandle handle = improvement.registry().Current();
        if (handle.version != served_version) {
          detector.SetModel(*handle.model);
          served_version = handle.version;
        }
      }
      const video::Frame& frame = fresh[i];
      video::VideoExample example{frame.index, frame.timestamp,
                                  detector.Detect(frame)};
      frames.push_back(frame);
      deployed.push_back(example);
      batch.push_back(std::move(example));
      if (batch.size() == bench.batch || i + 1 == fresh.size()) {
        service.ObserveBatch(id, std::move(batch));
        batch.clear();
      }
    }
    service.Flush();
    result.ingest_seconds +=
        std::chrono::duration<double>(Clock::now() - ingest_begin).count();
  };

  // Warmup: fill the road to steady-state density and prime the window so
  // round 0 measures the same regime later rounds do.
  serve(bench.warmup_frames);
  {
    const runtime::MetricsSnapshot snapshot = service.Metrics();
    events_before = snapshot.events;
    examples_before = snapshot.examples_seen;
    for (const auto& [assertion, cell] : snapshot.assertions) {
      fires_before[assertion] = cell.fires;
    }
    (void)distinct->Drain();
  }

  for (std::size_t round = 0; round < bench.rounds; ++round) {
    serve(bench.frames_per_round);

    const runtime::MetricsSnapshot snapshot = service.Metrics();
    RoundPoint point;
    const std::size_t round_examples =
        snapshot.examples_seen - examples_before;
    point.events = snapshot.events - events_before;
    point.flagged_rate = static_cast<double>(distinct->Drain()) /
                         static_cast<double>(round_examples);
    point.events_per_example = static_cast<double>(point.events) /
                               static_cast<double>(round_examples);
    for (const auto& [assertion, cell] : snapshot.assertions) {
      point.events_by_assertion[assertion] =
          cell.fires - fires_before[assertion];
      fires_before[assertion] = cell.fires;
    }
    events_before = snapshot.events;
    examples_before = snapshot.examples_seen;
    point.model_version = served_version;
    point.test_map = TestMap(detector, test_frames);
    result.rounds.push_back(point);

    if (arm != Arm::kControl) {
      improvement.RunRound();
      improvement.WaitForRetrains();  // next round serves the new version
    }
  }
  common::Check(service.Errors().empty(), "loop arm hit ingestion errors");
  result.examples = examples_before;
  for (const loop::RoundStats& stats : improvement.History()) {
    result.human_labels += stats.human_labels;
    result.weak_labels += stats.weak_labels;
  }
  result.total_seconds =
      std::chrono::duration<double>(Clock::now() - arm_begin).count();
  return result;
}

void WriteJson(const std::string& path, const BenchConfig& bench,
               const std::vector<ArmResult>& arms) {
  std::ofstream out(path);
  common::Check(out.good(), "cannot open json output: " + path);
  out << "{\n  \"bench\": \"loop_convergence\",\n"
      << "  \"rounds\": " << bench.rounds << ",\n"
      << "  \"frames_per_round\": " << bench.frames_per_round << ",\n"
      << "  \"budget_per_round\": " << bench.budget << ",\n"
      << "  \"shards\": " << bench.shards << ",\n"
      << "  \"seed\": " << bench.seed << ",\n  \"arms\": [\n";
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const ArmResult& arm = arms[a];
    out << "    {\"name\": \"" << arm.name << "\", \"examples\": "
        << arm.examples << ", \"ingest_seconds\": " << arm.ingest_seconds
        << ", \"ingest_examples_per_sec\": " << arm.IngestExamplesPerSec()
        << ", \"total_seconds\": " << arm.total_seconds
        << ", \"human_labels\": " << arm.human_labels
        << ", \"weak_labels\": " << arm.weak_labels << ",\n"
        << "     \"rounds\": [\n";
    for (std::size_t r = 0; r < arm.rounds.size(); ++r) {
      const RoundPoint& point = arm.rounds[r];
      out << "       {\"round\": " << r << ", \"flagged_rate\": "
          << point.flagged_rate
          << ", \"events_per_example\": " << point.events_per_example
          << ", \"events\": " << point.events
          << ", \"model_version\": " << point.model_version
          << ", \"test_map\": " << point.test_map << "}"
          << (r + 1 < arm.rounds.size() ? "," : "") << "\n";
    }
    out << "     ]}" << (a + 1 < arms.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = common::Flags::Parse(argc, argv);
  flags.CheckAllowed({"rounds", "frames", "budget", "shards", "batch",
                      "warmup", "seed", "json"});
  BenchConfig bench;
  bench.rounds = static_cast<std::size_t>(flags.GetInt("rounds", 8));
  bench.frames_per_round =
      static_cast<std::size_t>(flags.GetInt("frames", 250));
  bench.budget = static_cast<std::size_t>(flags.GetInt("budget", 35));
  bench.warmup_frames =
      static_cast<std::size_t>(flags.GetInt("warmup", 60));
  bench.shards = static_cast<std::size_t>(flags.GetInt("shards", 2));
  bench.batch = static_cast<std::size_t>(flags.GetInt("batch", 25));
  bench.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path = flags.GetString("json", "BENCH_loop.json");
  common::Check(bench.rounds >= 3,
                "--rounds must be >= 3 to show convergence");

  std::cout << "=== online improvement-loop convergence (video, "
            << bench.rounds << " rounds x " << bench.frames_per_round
            << " frames, budget " << bench.budget << "/round) ===\n\n";

  std::vector<ArmResult> arms;
  arms.push_back(RunArm(Arm::kControl, "control (no retrain)", bench));
  arms.push_back(RunArm(Arm::kBal, "bal + human labels", bench));
  arms.push_back(RunArm(Arm::kBalWeak, "bal + human + weak labels", bench));

  common::TextTable table({"Arm", "Round", "Flagged", "Ev/ex", "Multibox",
                           "Flicker", "Appear", "Model v", "Test mAP"});
  const auto by = [](const RoundPoint& point, const std::string& name) {
    const auto it = point.events_by_assertion.find(name);
    return it == point.events_by_assertion.end() ? std::size_t{0}
                                                 : it->second;
  };
  for (const ArmResult& arm : arms) {
    for (std::size_t r = 0; r < arm.rounds.size(); ++r) {
      const RoundPoint& point = arm.rounds[r];
      table.AddRow({r == 0 ? arm.name : "", std::to_string(r),
                    common::FormatDouble(point.flagged_rate, 3),
                    common::FormatDouble(point.events_per_example, 3),
                    std::to_string(by(point, "multibox")),
                    std::to_string(by(point, "flicker")),
                    std::to_string(by(point, "appear")),
                    std::to_string(point.model_version),
                    common::FormatDouble(point.test_map, 3)});
    }
  }
  table.Print(std::cout);

  std::cout << "\n";
  for (const ArmResult& arm : arms) {
    std::cout << arm.name << ": " << arm.examples << " examples at "
              << common::FormatDouble(arm.IngestExamplesPerSec(), 0)
              << " examples/sec ingest (" << arm.human_labels
              << " human + " << arm.weak_labels << " weak labels, "
              << common::FormatDouble(arm.total_seconds, 2)
              << " s total)\n";
  }

  // Convergence check, averaged over round windows (per-round rates are
  // noisy: fresh traffic differs round to round, and partially-trained
  // models transiently fire *more* — a half-detected dark car flickers
  // where an undetected one stays silent). The converged regime is the
  // last half of the rounds.
  const auto mean_rate = [](const ArmResult& arm, std::size_t begin,
                            std::size_t end) {
    double total = 0.0;
    for (std::size_t r = begin; r < end; ++r) {
      total += arm.rounds[r].flagged_rate;
    }
    return total / static_cast<double>(end - begin);
  };
  const ArmResult& control = arms[0];
  const ArmResult& bal = arms[1];
  const std::size_t half = bench.rounds / 2;
  const double bal_early = mean_rate(bal, 0, 2);
  const double bal_late = mean_rate(bal, half, bench.rounds);
  const double control_late = mean_rate(control, half, bench.rounds);
  std::cout << "\nloop flagged-rate: " << common::FormatDouble(bal_early, 3)
            << " (rounds 0-1) -> " << common::FormatDouble(bal_late, 3)
            << " (rounds " << half << "-" << bench.rounds - 1
            << "); control over the same late rounds: "
            << common::FormatDouble(control_late, 3) << "\n";
  common::Check(bal_late < bal_early,
                "loop did not reduce its own flagged rate");
  common::Check(bal_late < control_late,
                "loop did not undercut the no-retrain control");

  WriteJson(json_path, bench, arms);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
