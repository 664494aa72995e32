#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.hpp"
#include "reference_tracker.hpp"
#include "video/assertions.hpp"
#include "video/detector.hpp"
#include "video/pipeline.hpp"
#include "video/world.hpp"

namespace omg::video {
namespace {

WorldConfig SmallWorld() {
  WorldConfig config;
  return config;
}

TEST(NightStreetWorld, DeterministicGivenSeed) {
  NightStreetWorld a(SmallWorld(), 42), b(SmallWorld(), 42);
  const auto fa = a.GenerateFrames(20);
  const auto fb = b.GenerateFrames(20);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i].proposals.size(), fb[i].proposals.size());
    for (std::size_t p = 0; p < fa[i].proposals.size(); ++p) {
      EXPECT_EQ(fa[i].proposals[p].features, fb[i].proposals[p].features);
    }
  }
}

TEST(NightStreetWorld, TruthsWithinFrameBounds) {
  NightStreetWorld world(SmallWorld(), 1);
  for (const auto& frame : world.GenerateFrames(100)) {
    for (const auto& truth : frame.truths) {
      EXPECT_GE(truth.box.x_min, 0.0);
      EXPECT_GE(truth.box.y_min, 0.0);
      EXPECT_LE(truth.box.x_max, SmallWorld().frame_width);
      EXPECT_LE(truth.box.y_max, SmallWorld().frame_height);
      EXPECT_TRUE(truth.box.Valid());
    }
  }
}

TEST(NightStreetWorld, TruthIdsParallelTruths) {
  NightStreetWorld world(SmallWorld(), 2);
  for (const auto& frame : world.GenerateFrames(50)) {
    EXPECT_EQ(frame.truths.size(), frame.truth_ids.size());
  }
}

TEST(NightStreetWorld, CarProposalsOverlapTheirTruth) {
  NightStreetWorld world(SmallWorld(), 3);
  for (const auto& frame : world.GenerateFrames(60)) {
    for (const auto& proposal : frame.proposals) {
      if (!proposal.is_car) continue;
      bool overlaps = false;
      for (std::size_t t = 0; t < frame.truths.size(); ++t) {
        if (frame.truth_ids[t] == proposal.truth_id &&
            geometry::Iou(proposal.box, frame.truths[t].box) > 0.4) {
          overlaps = true;
        }
      }
      EXPECT_TRUE(overlaps) << "car proposal detached from its truth";
    }
  }
}

TEST(NightStreetWorld, StreamsAreContinuous) {
  NightStreetWorld world(SmallWorld(), 4);
  const auto first = world.GenerateFrames(10);
  const auto second = world.GenerateFrames(10);
  EXPECT_EQ(second.front().index, first.back().index + 1);
  EXPECT_GT(second.front().timestamp, first.back().timestamp);
}

TEST(NightStreetWorld, LabelFrameMatchesProposals) {
  NightStreetWorld world(SmallWorld(), 5);
  const auto frames = world.GenerateFrames(5);
  const auto data = NightStreetWorld::LabelFrame(frames[2]);
  EXPECT_EQ(data.size(), frames[2].proposals.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data.labels[i] == 1, frames[2].proposals[i].is_car);
  }
}

TEST(NightStreetWorld, SubpopulationRejectsBadFractions) {
  WorldConfig config;
  config.frac_dark = 0.7;
  config.frac_reflective = 0.5;
  EXPECT_THROW(NightStreetWorld(config, 1), common::CheckError);
}

TEST(MultiboxSeverity, CountsTriples) {
  const geometry::Box2D base{0, 0, 10, 10};
  std::vector<geometry::Detection> dets;
  dets.push_back({base, "car", 0.9, 0});
  dets.push_back({base.Translated(1, 0), "car", 0.8, 1});
  EXPECT_DOUBLE_EQ(MultiboxSeverity(dets, 0.3), 0.0);  // only a pair
  dets.push_back({base.Translated(0, 1), "car", 0.7, 2});
  EXPECT_DOUBLE_EQ(MultiboxSeverity(dets, 0.3), 1.0);  // one triple
  dets.push_back({base.Translated(1, 1), "car", 0.6, 3});
  EXPECT_DOUBLE_EQ(MultiboxSeverity(dets, 0.3), 4.0);  // C(4,3) triples
}

TEST(MultiboxSeverity, DisjointBoxesNeverFire) {
  std::vector<geometry::Detection> dets;
  for (int i = 0; i < 5; ++i) {
    dets.push_back({geometry::Box2D{i * 100.0, 0, i * 100.0 + 10, 10},
                    "car", 0.9, i});
  }
  EXPECT_DOUBLE_EQ(MultiboxSeverity(dets, 0.3), 0.0);
}

TEST(VideoSuite, ColumnsAreNamed) {
  VideoSuite suite = BuildVideoSuite();
  EXPECT_EQ(suite.suite.Names(),
            (std::vector<std::string>{"multibox", "flicker", "appear"}));
}

TEST(VideoSuite, FlickerFiresOnSyntheticGap) {
  VideoSuite suite = BuildVideoSuite();
  const geometry::Box2D box{100, 100, 220, 170};
  std::vector<VideoExample> examples;
  for (std::size_t i = 0; i < 6; ++i) {
    VideoExample e;
    e.frame_index = i;
    e.timestamp = static_cast<double>(i) * 0.2;  // 5 fps
    if (i != 3) {
      e.detections.push_back({box.Translated(i * 2.0, 0), "car", 0.9, 0});
    }
    examples.push_back(std::move(e));
  }
  const core::SeverityMatrix m = suite.suite.CheckAll(examples);
  EXPECT_TRUE(m.Fired(3, suite.flicker_index));
  EXPECT_FALSE(m.Fired(2, suite.flicker_index));
}

TEST(VideoSuite, AppearFiresOnBriefTrack) {
  VideoSuite suite = BuildVideoSuite();
  std::vector<VideoExample> examples;
  for (std::size_t i = 0; i < 10; ++i) {
    VideoExample e;
    e.frame_index = i;
    e.timestamp = static_cast<double>(i) * 0.2;
    // A stable long-lived car everywhere...
    e.detections.push_back(
        {geometry::Box2D{10, 10, 100, 60}, "car", 0.9, 0});
    // ...plus a ghost visible only on frames 4-5.
    if (i == 4 || i == 5) {
      e.detections.push_back(
          {geometry::Box2D{500, 300, 650, 400}, "car", 0.95, -1});
    }
    examples.push_back(std::move(e));
  }
  const core::SeverityMatrix m = suite.suite.CheckAll(examples);
  EXPECT_TRUE(m.Fired(4, suite.appear_index));
  EXPECT_TRUE(m.Fired(5, suite.appear_index));
  EXPECT_FALSE(m.Fired(0, suite.appear_index));
}

TEST(ExtractVideoRecords, TracksAcrossFrames) {
  const geometry::Box2D box{100, 100, 220, 170};
  std::vector<VideoExample> examples;
  for (std::size_t i = 0; i < 3; ++i) {
    VideoExample e;
    e.frame_index = i;
    e.timestamp = static_cast<double>(i) * 0.2;
    e.detections.push_back({box.Translated(i * 3.0, 0), "car", 0.9, 0});
    examples.push_back(std::move(e));
  }
  const auto extraction =
      ExtractVideoRecords(examples, geometry::TrackerConfig{});
  ASSERT_EQ(extraction.records.size(), 3u);
  EXPECT_EQ(extraction.records[0].identifier,
            extraction.records[2].identifier);
  EXPECT_EQ(extraction.frames.size(), 3u);
}

// The video extractor as first written, on the reference tracker: it also
// emitted each detection's class as a "class" attribute, which no video
// config checks.
core::ConsistencyExtraction ReferenceExtractVideoRecords(
    std::span<const VideoExample> examples,
    const geometry::TrackerConfig& tracker_config) {
  core::ConsistencyExtraction extraction;
  testing::ReferenceIouTracker tracker(tracker_config);
  for (std::size_t e = 0; e < examples.size(); ++e) {
    extraction.frames.push_back(
        core::ConsistencyFrame{e, examples[e].timestamp, "video"});
    const auto& detections = examples[e].detections;
    const std::vector<std::int64_t> ids = tracker.Update(detections);
    for (std::size_t d = 0; d < ids.size(); ++d) {
      core::ConsistencyRecord record;
      record.example_index = e;
      record.output_index = static_cast<std::int64_t>(d);
      record.timestamp = examples[e].timestamp;
      record.group = "video";
      record.identifier = "track-" + std::to_string(ids[d]);
      record.attributes.emplace_back("class", detections[d].label);
      extraction.records.push_back(std::move(record));
    }
  }
  return extraction;
}

// Detections from simulated night-street frames: most car proposals, a few
// background and reflection ones, some frames dropped to nothing.
std::vector<VideoExample> GeneratedVideo(std::uint64_t seed,
                                         std::size_t frames) {
  NightStreetWorld world(SmallWorld(), seed);
  common::Rng rng(seed);
  std::vector<VideoExample> examples;
  for (const Frame& frame : world.GenerateFrames(frames)) {
    VideoExample example;
    example.frame_index = frame.index;
    example.timestamp = frame.timestamp;
    if (!rng.Bernoulli(0.05)) {
      for (const Proposal& proposal : frame.proposals) {
        if (rng.Bernoulli(proposal.is_car ? 0.85 : 0.05)) {
          example.detections.push_back(
              {proposal.box, "car", 0.9, proposal.truth_id});
        }
      }
    }
    examples.push_back(std::move(example));
  }
  return examples;
}

TEST(ExtractVideoRecords, MatchesReferenceExtractorOnGeneratedVideo) {
  std::size_t records_seen = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto examples = GeneratedVideo(seed, 300);
    for (const geometry::TrackerConfig tracker :
         {geometry::TrackerConfig{0.2, 2}, geometry::TrackerConfig{0.5, 0}}) {
      const auto want = ReferenceExtractVideoRecords(examples, tracker);
      const auto got = ExtractVideoRecords(examples, tracker);
      ASSERT_EQ(got.frames.size(), want.frames.size());
      for (std::size_t f = 0; f < want.frames.size(); ++f) {
        EXPECT_EQ(got.frames[f].example_index, want.frames[f].example_index);
        EXPECT_EQ(got.frames[f].timestamp, want.frames[f].timestamp);
        EXPECT_EQ(got.frames[f].group, want.frames[f].group);
      }
      ASSERT_EQ(got.records.size(), want.records.size());
      for (std::size_t r = 0; r < want.records.size(); ++r) {
        const auto& g = got.records[r];
        const auto& w = want.records[r];
        EXPECT_EQ(g.example_index, w.example_index) << "record " << r;
        EXPECT_EQ(g.output_index, w.output_index) << "record " << r;
        EXPECT_EQ(g.timestamp, w.timestamp) << "record " << r;
        EXPECT_EQ(g.group, w.group) << "record " << r;
        EXPECT_EQ(g.identifier, w.identifier) << "record " << r;
        EXPECT_TRUE(g.attributes.empty()) << "record " << r;
      }
      records_seen += want.records.size();
    }
  }
  EXPECT_GT(records_seen, 1000u);
}

// Pipeline fixture with a small configuration for fast tests.
VideoPipelineConfig SmallPipelineConfig() {
  VideoPipelineConfig config;
  config.pool_frames = 220;
  config.test_frames = 60;
  config.pretrain_positives = 300;
  config.pretrain_negatives = 400;
  return config;
}

class VideoPipelineTest : public ::testing::Test {
 protected:
  VideoPipelineTest() : pipeline_(SmallPipelineConfig()) {}
  VideoPipeline pipeline_;
};

TEST_F(VideoPipelineTest, PretrainedModelDetectsEasyCars) {
  // Pretrained mAP must be meaningfully above zero but visibly imperfect —
  // the systematic-error headroom the paper's experiments rely on.
  const double map = pipeline_.Evaluate();
  EXPECT_GT(map, 0.3);
  EXPECT_LT(map, 0.97);
}

TEST_F(VideoPipelineTest, AssertionsFireOnPretrainedModel) {
  const core::SeverityMatrix m = pipeline_.ComputeSeverities();
  const auto counts = m.FireCounts();
  EXPECT_GT(counts[pipeline_.suite().flicker_index], 0u)
      << "dark cars should flicker under the pretrained model";
  EXPECT_GT(counts[pipeline_.suite().appear_index], 0u)
      << "reflections should appear briefly";
}

TEST_F(VideoPipelineTest, ConfidencesInUnitInterval) {
  for (const double c : pipeline_.Confidences()) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST_F(VideoPipelineTest, LabelingFlaggedFramesImprovesMap) {
  const double before = pipeline_.Evaluate();
  const core::SeverityMatrix m = pipeline_.ComputeSeverities();
  auto flagged = m.FlaggedExamples();
  if (flagged.size() > 60) flagged.resize(60);
  pipeline_.LabelAndTrain(flagged);
  const double after = pipeline_.Evaluate();
  EXPECT_GT(after, before + 0.02);
}

TEST_F(VideoPipelineTest, ResetRestoresPretrainedState) {
  const double before = pipeline_.Evaluate();
  const core::SeverityMatrix m = pipeline_.ComputeSeverities();
  auto flagged = m.FlaggedExamples();
  if (flagged.size() > 40) flagged.resize(40);
  pipeline_.LabelAndTrain(flagged);
  pipeline_.Reset(SmallPipelineConfig().world_seed ^
                  0x9E3779B97F4A7C15ULL);
  EXPECT_NEAR(pipeline_.Evaluate(), before, 1e-9);
}

TEST_F(VideoPipelineTest, WeakSupervisionImprovesMap) {
  const auto result = RunVideoWeakSupervision(pipeline_, 75, 25, 11);
  EXPECT_GT(result.weak_positives + result.weak_negatives, 0u);
  EXPECT_GT(result.weakly_supervised_metric,
            result.pretrained_metric);
}

TEST_F(VideoPipelineTest, HighConfidenceErrorsFound) {
  const auto rows = AnalyzeHighConfidenceErrors(pipeline_, 10);
  ASSERT_EQ(rows.size(), 3u);
  bool any = false;
  for (const auto& row : rows) {
    for (const double pct : row.percentiles) {
      EXPECT_GE(pct, 0.0);
      EXPECT_LE(pct, 100.0);
      any = true;
    }
  }
  EXPECT_TRUE(any);
  // The top-ranked appear error (a reflection) should be high-confidence.
  for (const auto& row : rows) {
    if (row.assertion == "appear" && !row.percentiles.empty()) {
      EXPECT_GT(row.percentiles.front(), 60.0);
    }
  }
}

TEST_F(VideoPipelineTest, AssertionPrecisionIsHigh) {
  const auto samples = MeasureVideoAssertionPrecision(pipeline_, 50, 3);
  ASSERT_EQ(samples.size(), 3u);
  for (const auto& sample : samples) {
    ASSERT_GT(sample.sampled, 0u) << sample.assertion;
    const double precision =
        static_cast<double>(sample.correct_model_output) /
        static_cast<double>(sample.sampled);
    EXPECT_GT(precision, 0.7) << sample.assertion;
    EXPECT_GE(sample.correct_with_identifier, sample.correct_model_output);
  }
}

}  // namespace
}  // namespace omg::video
