// The declarative configuration layer (src/config/): spec parsing with
// positioned errors, typed-key coercion, unknown-key/section rejection,
// the assertion factory's schema validation, scenario loading, and the
// load-bearing guarantee of the whole layer — a config-built suite flags
// exactly like the equivalent programmatically-built suite.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "av/factory.hpp"
#include "config/assertion_factory.hpp"
#include "config/scenario.hpp"
#include "config/spec.hpp"
#include "ecg/factory.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/sharded_service.hpp"
#include "tvnews/factory.hpp"
#include "video/factory.hpp"

namespace {

using namespace omg;
using config::SpecDocument;
using config::SpecError;
using config::SpecValue;

// ------------------------------------------------------------------ parser --

TEST(SpecParser, RoundTripsSectionsAndTypedValues) {
  const SpecDocument doc = SpecDocument::Parse(R"(
# a comment
[scenario]
name = "mixed overload"   # trailing comment
shards = 4
floor = 1.5
live = true
policy = block

[stream cam-north]
examples = 240

[stream "quoted label"]
names = [a, b, c]
empty = []
)");
  ASSERT_EQ(doc.sections().size(), 3u);

  const config::SpecSection& scenario = doc.Require("scenario");
  EXPECT_EQ(scenario.GetString("name", ""), "mixed overload");
  EXPECT_EQ(scenario.GetInt("shards", 0), 4);
  EXPECT_DOUBLE_EQ(scenario.GetDouble("floor", 0.0), 1.5);
  EXPECT_TRUE(scenario.GetBool("live", false));
  EXPECT_EQ(scenario.GetString("policy", ""), "block");
  EXPECT_NO_THROW(scenario.RejectUnknownKeys());

  EXPECT_NE(doc.Find("stream", "cam-north"), nullptr);
  const config::SpecSection& quoted = doc.Require("stream", "quoted label");
  EXPECT_EQ(quoted.GetStringList("names", {}),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(quoted.GetStringList("empty", {"x"}).empty());
}

TEST(SpecParser, QuotedStringEscapes) {
  const SpecDocument doc = SpecDocument::Parse(
      "[s]\nv = \"a\\\"b\\\\c\\nd\\te\"\n");
  EXPECT_EQ(doc.Require("s").GetString("v", ""), "a\"b\\c\nd\te");
}

TEST(SpecParser, FallbacksApplyWhenAbsent) {
  const SpecDocument doc = SpecDocument::Parse("[s]\n");
  const config::SpecSection& s = doc.Require("s");
  EXPECT_EQ(s.GetInt("missing", 7), 7);
  EXPECT_EQ(s.GetString("missing", "x"), "x");
  EXPECT_EQ(s.GetStringList("missing", {"a"}),
            std::vector<std::string>{"a"});
}

TEST(SpecParser, CoercesIntToDoubleAndScalarToList) {
  const SpecDocument doc =
      SpecDocument::Parse("[s]\nfloor = 2\nnames = only\n");
  const config::SpecSection& s = doc.Require("s");
  EXPECT_DOUBLE_EQ(s.GetDouble("floor", 0.0), 2.0);
  EXPECT_EQ(s.GetStringList("names", {}), std::vector<std::string>{"only"});
}

TEST(SpecParser, TypeMismatchesCarryPosition) {
  const SpecDocument doc =
      SpecDocument::Parse("[s]\nshards = many\n", "demo.conf");
  try {
    doc.Require("s").GetInt("shards", 0);
    FAIL() << "expected SpecError";
  } catch (const SpecError& error) {
    EXPECT_EQ(error.line(), 2u);
    EXPECT_EQ(error.col(), 10u);  // points at the value, not the key
    EXPECT_NE(std::string(error.what()).find("demo.conf:2:10"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("expects an int"),
              std::string::npos);
  }
}

/// Asserts that parsing `text` throws a SpecError at (line, col).
void ExpectParseError(const std::string& text, std::size_t line,
                      std::size_t col, const std::string& needle) {
  try {
    SpecDocument::Parse(text);
    FAIL() << "expected SpecError for: " << text;
  } catch (const SpecError& error) {
    EXPECT_EQ(error.line(), line) << text;
    EXPECT_EQ(error.col(), col) << text;
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(SpecParser, MalformedInputErrorsCarryLineAndColumn) {
  ExpectParseError("[s]\nv = \"unterminated\n", 2, 5, "unterminated string");
  ExpectParseError("[s]\nv = 1 junk\n", 2, 7, "junk after value");
  ExpectParseError("[s]\nv = 1\nv = 2\n", 3, 1, "duplicate key");
  ExpectParseError("[s]\n[s]\n", 2, 1, "duplicate section");
  ExpectParseError("orphan = 1\n", 1, 1, "before any [section]");
  ExpectParseError("[s]\nv = [a, [b]]\n", 2, 9, "nested lists");
  ExpectParseError("[s]\nv = [a, b\n", 2, 10, "unterminated list");
  ExpectParseError("[s]\nv = 3x\n", 2, 5, "malformed number");
  ExpectParseError("[s]\nv = \"bad \\q\"\n", 2, 10, "unknown escape");
  ExpectParseError("[s]\nkey 5\n", 2, 5, "expected '='");
  ExpectParseError("[s]\nkey =\n", 2, 6, "missing value");
  ExpectParseError("[unclosed\n", 1, 10, "expected ']'");
}

TEST(SpecParser, RejectsUnknownKeysAtTheirPosition) {
  const SpecDocument doc =
      SpecDocument::Parse("[runtime]\nshards = 2\nshrads = 4\n");
  const config::SpecSection& s = doc.Require("runtime");
  s.GetInt("shards", 0);
  try {
    s.RejectUnknownKeys();
    FAIL() << "expected SpecError";
  } catch (const SpecError& error) {
    EXPECT_EQ(error.line(), 3u);
    EXPECT_NE(std::string(error.what()).find("unknown key 'shrads'"),
              std::string::npos);
  }
}

// ----------------------------------------------------------------- loader --

constexpr const char* kFullScenario = R"(
[scenario]
name = "full"
description = "every section exercised"

[runtime]
shards = 3
window = 32
settle_lag = 4
queue_capacity = 128

[admission]
policy = shed_below_severity
shed_floor = 0.75

[suite video]
assertions = [video.multibox, video.consistency]

[assertion video.multibox]
iou = 0.4

[suite ecg]
assertions = [ecg.oscillation]

[stream cam-a]
domain = video
examples = 100
batch = 10
seed = 7
severity_hint = 2.0

[stream ward-1]
domain = ecg
examples = 72
batch = 36
severity_hint = 0.25

[loop]
# disabled: an enabled loop requires block admission (tested below), but
# the round/oracle settings are read and validated either way.
enabled = false
strategy = bal-uncertainty
oracle = mixed
budget = 12
rounds = 3
weak_weight = 0.5
retrain_epochs = 9
)";

TEST(ConfigLoader, LoadsAFullScenario) {
  const config::ScenarioSpec scenario =
      config::ConfigLoader::Load(SpecDocument::Parse(kFullScenario));
  EXPECT_EQ(scenario.name, "full");
  EXPECT_EQ(scenario.runtime.shards, 3u);
  EXPECT_EQ(scenario.runtime.window, 32u);
  EXPECT_EQ(scenario.runtime.settle_lag, 4u);
  EXPECT_EQ(scenario.runtime.queue_capacity, 128u);
  EXPECT_EQ(scenario.admission.policy,
            runtime::AdmissionPolicy::kShedBelowSeverity);
  EXPECT_DOUBLE_EQ(scenario.admission.shed_floor, 0.75);

  ASSERT_EQ(scenario.suites.size(), 2u);
  const config::SuiteSpec* video = scenario.SuiteFor("video");
  ASSERT_NE(video, nullptr);
  ASSERT_EQ(video->assertions.size(), 2u);
  EXPECT_EQ(video->assertions[0].name, "video.multibox");
  EXPECT_DOUBLE_EQ(video->assertions[0].params.GetDouble("iou", 0.0), 0.4);
  EXPECT_EQ(video->assertions[1].name, "video.consistency");
  EXPECT_TRUE(video->assertions[1].params.entries().empty());

  ASSERT_EQ(scenario.streams.size(), 2u);
  EXPECT_EQ(scenario.streams[0].name, "cam-a");
  EXPECT_EQ(scenario.streams[0].domain, "video");
  EXPECT_EQ(scenario.streams[0].examples, 100u);
  EXPECT_EQ(scenario.streams[0].batch, 10u);
  EXPECT_EQ(scenario.streams[0].seed, 7u);
  EXPECT_EQ(scenario.streams[1].seed, 42u);  // default
  EXPECT_EQ(scenario.Domains(),
            (std::vector<std::string>{"video", "ecg"}));

  EXPECT_FALSE(scenario.loop.enabled);
  EXPECT_EQ(scenario.loop.strategy, "bal-uncertainty");
  EXPECT_EQ(scenario.loop.oracle, "mixed");
  EXPECT_EQ(scenario.loop.budget, 12u);
  EXPECT_EQ(scenario.loop.rounds, 3u);

  const runtime::ShardedRuntimeConfig runtime_config =
      config::ConfigLoader::MakeRuntimeConfig(scenario);
  EXPECT_EQ(runtime_config.shards, 3u);
  EXPECT_EQ(runtime_config.queue_capacity, 128u);
  EXPECT_EQ(runtime_config.admission,
            runtime::AdmissionPolicy::kShedBelowSeverity);
  EXPECT_DOUBLE_EQ(runtime_config.shed_floor, 0.75);
  EXPECT_NO_THROW(runtime_config.Validate());

  const loop::ImprovementLoopConfig loop_config =
      config::ConfigLoader::MakeLoopConfig(scenario.loop,
                                           {"multibox", "flicker", "appear"},
                                           nn::SgdConfig{});
  EXPECT_EQ(loop_config.round.budget, 12u);
  EXPECT_EQ(loop_config.retrain.sgd.epochs, 9u);  // retrain_epochs override
  EXPECT_EQ(loop_config.assertion_names.size(), 3u);
}

/// Asserts ConfigLoader::Load rejects `text` with `needle` in the message.
void ExpectLoadError(const std::string& text, const std::string& needle) {
  try {
    config::ConfigLoader::Load(SpecDocument::Parse(text));
    FAIL() << "expected SpecError containing: " << needle;
  } catch (const SpecError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

constexpr const char* kMinimal = R"(
[scenario]
name = base
[suite video]
assertions = [video.multibox]
[stream cam]
domain = video
)";

TEST(ConfigLoader, RejectsInvalidScenarios) {
  ExpectLoadError(std::string(kMinimal) + "[surprise]\n",
                  "unknown section kind [surprise]");
  ExpectLoadError(std::string(kMinimal) + "[runtime]\nshrads = 2\n",
                  "unknown key 'shrads'");
  ExpectLoadError(std::string(kMinimal) + "[admission]\npolicy = nope\n",
                  "unknown admission policy");
  ExpectLoadError(std::string(kMinimal) + "[loop]\nstrategy = greedy\n",
                  "unknown strategy 'greedy'");
  ExpectLoadError(std::string(kMinimal) + "[loop]\noracle = psychic\n",
                  "unknown oracle 'psychic'");
  ExpectLoadError(std::string(kMinimal) + "[stream lone]\ndomain = av\n",
                  "no [suite av]");
  ExpectLoadError(std::string(kMinimal) + "[assertion video.consistency]\n",
                  "not referenced by any suite");
  ExpectLoadError(std::string(kMinimal) + "[runtime]\nsettle_lag = 64\n",
                  "settle_lag");
  ExpectLoadError(
      std::string(kMinimal) + "[admission]\npolicy = shed_below_severity\n",
      "severity_hint below shed_floor");
  ExpectLoadError("[scenario]\nname = empty\n", "no [stream");
  ExpectLoadError(
      "[scenario]\nname = x\n[suite video]\nassertions = "
      "[video.multibox, video.multibox]\n[stream c]\ndomain = video\n",
      "listed twice");
  // Singleton sections must be unlabeled — a labeled [runtime] would
  // silently shadow the real one and bypass its key validation.
  ExpectLoadError(std::string(kMinimal) + "[runtime main]\nshards = 9\n",
                  "does not take a label");
  ExpectLoadError(std::string(kMinimal) + "[loop main]\nenabled = true\n",
                  "does not take a label");
  ExpectLoadError(std::string(kMinimal) + "[assertion]\n",
                  "[assertion] needs a name");
  // A suite no stream exercises would never be built or validated.
  ExpectLoadError(
      std::string(kMinimal) + "[suite av]\nassertions = [av.agree]\n",
      "has no [stream ...] with domain = av");
  // Lossy admission would desynchronise loop candidate keys from the
  // retained traffic.
  ExpectLoadError(std::string(kMinimal) +
                      "[admission]\npolicy = drop_oldest\n"
                      "[loop]\nenabled = true\n",
                  "requires block admission");
  // A batch larger than the shard queue could never be admitted.
  ExpectLoadError(std::string(kMinimal) + "[runtime]\nqueue_capacity = 16\n",
                  "exceeds [runtime] queue_capacity");
}

// ---------------------------------------------------------------- factory --

TEST(AssertionFactory, RejectsUnknownNamesAndParams) {
  config::AssertionFactory<video::VideoExample> factory;
  video::RegisterVideoAssertions(factory);
  EXPECT_TRUE(factory.Has("video.multibox"));
  EXPECT_FALSE(factory.Has("video.teleport"));

  {
    const config::ScenarioSpec scenario = config::ConfigLoader::Load(
        SpecDocument::Parse("[scenario]\nname = x\n[suite video]\n"
                            "assertions = [video.teleport]\n"
                            "[stream c]\ndomain = video\n"));
    EXPECT_THROW(config::BuildSuiteBundle(factory,
                                          *scenario.SuiteFor("video")),
                 SpecError);
  }
  {
    // Unknown parameter key: rejected by the schema, positioned at the key.
    const config::ScenarioSpec scenario = config::ConfigLoader::Load(
        SpecDocument::Parse("[scenario]\nname = x\n[suite video]\n"
                            "assertions = [video.multibox]\n"
                            "[assertion video.multibox]\noiu = 0.3\n"
                            "[stream c]\ndomain = video\n"));
    try {
      config::BuildSuiteBundle(factory, *scenario.SuiteFor("video"));
      FAIL() << "expected SpecError";
    } catch (const SpecError& error) {
      EXPECT_NE(std::string(error.what()).find("no parameter 'oiu'"),
                std::string::npos);
      EXPECT_EQ(error.line(), 6u);
    }
  }
  {
    // Declared type mismatch: iou is a double, a string must not coerce.
    const config::ScenarioSpec scenario = config::ConfigLoader::Load(
        SpecDocument::Parse("[scenario]\nname = x\n[suite video]\n"
                            "assertions = [video.multibox]\n"
                            "[assertion video.multibox]\niou = soft\n"
                            "[stream c]\ndomain = video\n"));
    EXPECT_THROW(config::BuildSuiteBundle(factory,
                                          *scenario.SuiteFor("video")),
                 SpecError);
  }
}

// ------------------------------------------------------------ equivalence --

/// A deterministic detection stream that exercises all three video
/// assertions: a stable car, a flickering car (absent every third frame),
/// a brief appearance, and one frame with a triple-overlap stack.
std::vector<video::VideoExample> FixedVideoStream() {
  const auto box = [](double x) {
    return geometry::Box2D{x, 100.0, x + 60.0, 140.0};
  };
  std::vector<video::VideoExample> examples;
  for (std::size_t i = 0; i < 40; ++i) {
    video::VideoExample example;
    example.frame_index = i;
    example.timestamp = 0.2 * static_cast<double>(i);
    example.detections.push_back({box(50.0 + 4.0 * i), "car", 0.9, 0});
    if (i % 3 != 2) {  // flickers out every third frame
      example.detections.push_back({box(400.0 + 4.0 * i), "car", 0.8, 1});
    }
    if (i >= 20 && i < 23) {  // brief appearance (< 1 s at 5 fps)
      example.detections.push_back({box(800.0), "car", 0.7, 2});
    }
    if (i == 30) {  // multibox stack: three mutually-overlapping boxes
      example.detections.push_back({box(601.0), "car", 0.6, 3});
      example.detections.push_back({box(602.0), "car", 0.6, 3});
      example.detections.push_back({box(603.0), "car", 0.6, 3});
    }
    examples.push_back(std::move(example));
  }
  return examples;
}

/// Serves `examples` as one stream through a 1-shard service built from
/// `bundle_factory` and returns the JSON-lines event log (a total order of
/// every flag the runtime emitted).
template <typename Example>
std::string FlagSequence(runtime::SuiteFactory<Example> bundle_factory,
                         const std::vector<Example>& examples) {
  runtime::ShardedRuntimeConfig config;
  config.shards = 1;
  config.window = 48;
  config.settle_lag = 8;
  config.queue_capacity = 4096;
  runtime::ShardedMonitorService<Example> service(config,
                                                  std::move(bundle_factory));
  std::ostringstream events;
  service.AddSink(std::make_shared<runtime::JsonLinesSink>(events));
  const runtime::StreamId id = service.RegisterStream("fixed");
  for (std::size_t begin = 0; begin < examples.size(); begin += 16) {
    const std::size_t count = std::min<std::size_t>(16, examples.size() - begin);
    service.ObserveBatch(id,
                         std::vector<Example>(examples.begin() + begin,
                                              examples.begin() + begin +
                                                  count));
  }
  service.Flush();
  EXPECT_TRUE(service.Errors().empty());
  return events.str();
}

TEST(ConfigEquivalence, VideoConfigSuiteFlagsIdenticallyToProgrammatic) {
  // Each parameter set is built twice: by the factory from config text, and
  // programmatically from VideoConfigFromSuite's parse of the same suite.
  // The first set spells out BuildVideoSuite's defaults; the second moves
  // every parameter.
  video::VideoAssertionConfig moved;
  moved.multibox_iou = 0.25;
  moved.temporal_threshold = 0.5;
  moved.tracker = {0.35, 1};
  config::AssertionFactory<video::VideoExample> factory;
  video::RegisterVideoAssertions(factory);
  const std::vector<video::VideoExample> examples = FixedVideoStream();

  std::vector<std::string> flags_per_set;
  for (const video::VideoAssertionConfig& expected :
       {video::VideoAssertionConfig{}, moved}) {
    const std::string params =
        "[assertion video.multibox]\niou = " +
        std::to_string(expected.multibox_iou) +
        "\n[assertion video.consistency]\ntemporal_threshold = " +
        std::to_string(expected.temporal_threshold) + "\ntracker_iou = " +
        std::to_string(expected.tracker.min_iou) + "\ntracker_max_misses = " +
        std::to_string(expected.tracker.max_coast_frames) + "\n";
    SCOPED_TRACE(params);
    const config::ScenarioSpec scenario =
        config::ConfigLoader::Load(SpecDocument::Parse(
            "[scenario]\nname = equivalence\n[suite video]\n"
            "assertions = [video.multibox, video.consistency]\n" +
            params + "[stream fixed]\ndomain = video\n"));
    const config::SuiteSpec& suite = *scenario.SuiteFor("video");
    const video::VideoAssertionConfig parsed =
        video::VideoConfigFromSuite(suite);
    EXPECT_EQ(parsed.multibox_iou, expected.multibox_iou);
    EXPECT_EQ(parsed.temporal_threshold, expected.temporal_threshold);
    EXPECT_EQ(parsed.tracker.min_iou, expected.tracker.min_iou);
    EXPECT_EQ(parsed.tracker.max_coast_frames,
              expected.tracker.max_coast_frames);

    // Batch form: identical severity matrices...
    const runtime::SuiteBundle<video::VideoExample> from_config =
        config::BuildSuiteBundle(factory, suite);
    video::VideoSuite programmatic = video::BuildVideoSuite(parsed);
    EXPECT_EQ(from_config.suite->Names(), programmatic.suite.Names());
    const core::SeverityMatrix config_matrix =
        from_config.suite->CheckAll(examples);
    const core::SeverityMatrix programmatic_matrix =
        programmatic.suite.CheckAll(examples);
    ASSERT_GT(config_matrix.TotalFired(), 0u);  // the stream must exercise it
    ASSERT_EQ(config_matrix.num_examples(),
              programmatic_matrix.num_examples());
    for (std::size_t e = 0; e < config_matrix.num_examples(); ++e) {
      for (std::size_t a = 0; a < config_matrix.num_assertions(); ++a) {
        EXPECT_DOUBLE_EQ(config_matrix.At(e, a),
                         programmatic_matrix.At(e, a));
      }
    }

    // ...and the streaming runtime emits the identical flag sequence.
    const std::string config_flags = FlagSequence<video::VideoExample>(
        config::MakeSuiteFactory(factory, suite), examples);
    const std::string programmatic_flags = FlagSequence<video::VideoExample>(
        [parsed] {
          auto built = std::make_shared<video::VideoSuite>(
              video::BuildVideoSuite(parsed));
          return runtime::SuiteBundle<video::VideoExample>{
              std::shared_ptr<core::AssertionSuite<video::VideoExample>>(
                  built, &built->suite),
              [built] { built->consistency->Invalidate(); }};
        },
        examples);
    EXPECT_FALSE(config_flags.empty());
    EXPECT_EQ(config_flags, programmatic_flags);
    flags_per_set.push_back(config_flags);
  }
  // The moved parameters change what fires.
  EXPECT_NE(flags_per_set.front(), flags_per_set.back());
}

TEST(ConfigEquivalence, EcgConfigSuiteFlagsIdenticallyToProgrammatic) {
  // An oscillating class stream: one lone AF window (20 s from absence to
  // absence) which the 30 s threshold must flag; a later 50 s episode must
  // not fire.
  std::vector<ecg::EcgExample> examples;
  double t = 0.0;
  const auto add = [&](ecg::Rhythm rhythm, std::size_t windows) {
    for (std::size_t i = 0; i < windows; ++i) {
      examples.push_back({"rec-1", t, rhythm});
      t += 10.0;
    }
  };
  add(ecg::Rhythm::kNormal, 6);
  add(ecg::Rhythm::kAf, 1);  // absent -> present -> absent within 20 s
  add(ecg::Rhythm::kNormal, 6);
  add(ecg::Rhythm::kAf, 4);  // 50 s absence-to-absence -> legitimate
  add(ecg::Rhythm::kNormal, 6);

  config::AssertionFactory<ecg::EcgExample> factory;
  ecg::RegisterEcgAssertions(factory);
  const config::ScenarioSpec scenario =
      config::ConfigLoader::Load(SpecDocument::Parse(
          "[scenario]\nname = ecg-eq\n[suite ecg]\n"
          "assertions = [ecg.oscillation]\n"
          "[assertion ecg.oscillation]\ntemporal_threshold = 30.0\n"
          "[stream fixed]\ndomain = ecg\n"));
  const runtime::SuiteBundle<ecg::EcgExample> from_config =
      config::BuildSuiteBundle(factory, *scenario.SuiteFor("ecg"));
  ecg::EcgSuite programmatic = ecg::BuildEcgSuite();

  EXPECT_EQ(from_config.suite->Names(), programmatic.suite.Names());
  const core::SeverityMatrix config_matrix =
      from_config.suite->CheckAll(examples);
  const core::SeverityMatrix programmatic_matrix =
      programmatic.suite.CheckAll(examples);
  ASSERT_GT(config_matrix.TotalFired(), 0u);
  for (std::size_t e = 0; e < config_matrix.num_examples(); ++e) {
    EXPECT_DOUBLE_EQ(config_matrix.At(e, 0), programmatic_matrix.At(e, 0));
  }
}

TEST(ConfigEquivalence, AvAndNewsFactoriesMatchProgrammaticSuites) {
  // AV: one sample with an unmatched camera box (agree fires) and a
  // mutually-overlapping camera triple (multibox fires).
  av::AvExample sample;
  sample.camera.push_back({{100, 100, 160, 140}, "vehicle", 0.9, 0});
  sample.camera.push_back({{101, 100, 161, 140}, "vehicle", 0.8, 0});
  sample.camera.push_back({{102, 100, 162, 140}, "vehicle", 0.7, 0});
  sample.camera.push_back({{700, 100, 760, 140}, "vehicle", 0.9, 1});
  sample.lidar_projected.push_back({100, 100, 160, 140});
  const std::vector<av::AvExample> av_examples{sample};

  config::AssertionFactory<av::AvExample> av_factory;
  av::RegisterAvAssertions(av_factory);
  const config::ScenarioSpec av_scenario =
      config::ConfigLoader::Load(SpecDocument::Parse(
          "[scenario]\nname = av-eq\n[suite av]\n"
          "assertions = [av.agree, av.multibox]\n"
          "[stream fixed]\ndomain = av\n"));
  const runtime::SuiteBundle<av::AvExample> av_config =
      config::BuildSuiteBundle(av_factory, *av_scenario.SuiteFor("av"));
  av::AvSuite av_programmatic = av::BuildAvSuite();
  EXPECT_EQ(av_config.suite->Names(), av_programmatic.suite.Names());
  const core::SeverityMatrix av_matrix = av_config.suite->CheckAll(av_examples);
  const core::SeverityMatrix av_expected =
      av_programmatic.suite.CheckAll(av_examples);
  ASSERT_GT(av_matrix.TotalFired(), 0u);
  for (std::size_t a = 0; a < av_matrix.num_assertions(); ++a) {
    EXPECT_DOUBLE_EQ(av_matrix.At(0, a), av_expected.At(0, a));
  }

  // TV news: generated frames through both builds of the consistency suite.
  tvnews::NewsGenerator generator(tvnews::NewsConfig{}, 42);
  const std::vector<tvnews::NewsFrame> frames = generator.Generate(80);
  config::AssertionFactory<tvnews::NewsFrame> news_factory;
  tvnews::RegisterNewsAssertions(news_factory);
  const config::ScenarioSpec news_scenario =
      config::ConfigLoader::Load(SpecDocument::Parse(
          "[scenario]\nname = news-eq\n[suite tvnews]\n"
          "assertions = [tvnews.consistency]\n"
          "[stream fixed]\ndomain = tvnews\n"));
  const runtime::SuiteBundle<tvnews::NewsFrame> news_config =
      config::BuildSuiteBundle(news_factory,
                               *news_scenario.SuiteFor("tvnews"));
  tvnews::NewsSuite news_programmatic = tvnews::BuildNewsSuite();
  EXPECT_EQ(news_config.suite->Names(), news_programmatic.suite.Names());
  const core::SeverityMatrix news_matrix =
      news_config.suite->CheckAll(frames);
  const core::SeverityMatrix news_expected =
      news_programmatic.suite.CheckAll(frames);
  ASSERT_GT(news_matrix.TotalFired(), 0u);
  for (std::size_t e = 0; e < news_matrix.num_examples(); ++e) {
    for (std::size_t a = 0; a < news_matrix.num_assertions(); ++a) {
      EXPECT_DOUBLE_EQ(news_matrix.At(e, a), news_expected.At(e, a));
    }
  }
}

}  // namespace
