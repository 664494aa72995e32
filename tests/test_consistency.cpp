#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/consistency.hpp"
#include "core/consistency_adapter.hpp"

namespace omg::core {
namespace {

// Builds frames 0..n-1 at 1 Hz in one group.
std::vector<ConsistencyFrame> LinearFrames(std::size_t n,
                                           const std::string& group = "g",
                                           double period = 1.0) {
  std::vector<ConsistencyFrame> frames;
  for (std::size_t i = 0; i < n; ++i) {
    frames.push_back({i, static_cast<double>(i) * period, group});
  }
  return frames;
}

ConsistencyRecord MakeRecord(std::size_t example, double ts,
                             const std::string& id,
                             const std::string& group = "g") {
  ConsistencyRecord r;
  r.example_index = example;
  r.output_index = 0;
  r.timestamp = ts;
  r.group = group;
  r.identifier = id;
  return r;
}

TEST(ConsistencyEngine, AssertionNamesFollowConfig) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender", "hair"};
  config.temporal_threshold = 30.0;
  const ConsistencyEngine engine(config);
  EXPECT_EQ(engine.AssertionNames(),
            (std::vector<std::string>{"consistent:gender",
                                      "consistent:hair", "flicker",
                                      "appear"}));
}

TEST(ConsistencyEngine, NoTemporalColumnsWhenDisabled) {
  ConsistencyConfig config;
  config.attribute_keys = {"k"};
  const ConsistencyEngine engine(config);
  EXPECT_EQ(engine.AssertionNames(),
            (std::vector<std::string>{"consistent:k"}));
}

TEST(ConsistencyEngine, AttributeMismatchFlagsMinority) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender"};
  const ConsistencyEngine engine(config);
  auto frames = LinearFrames(3);
  std::vector<ConsistencyRecord> records;
  for (std::size_t i = 0; i < 3; ++i) {
    auto r = MakeRecord(i, static_cast<double>(i), "alice");
    r.attributes.emplace_back("gender", i == 1 ? "male" : "female");
    records.push_back(std::move(r));
  }
  const auto result = engine.Analyze(frames, records, 3);
  EXPECT_DOUBLE_EQ(result.severities[0][0], 0.0);
  EXPECT_DOUBLE_EQ(result.severities[0][1], 1.0);
  EXPECT_DOUBLE_EQ(result.severities[0][2], 0.0);
  ASSERT_EQ(result.corrections.size(), 1u);
  EXPECT_EQ(result.corrections[0].kind, CorrectionKind::kSetAttribute);
  EXPECT_EQ(result.corrections[0].proposed_value, "female");
  EXPECT_EQ(result.corrections[0].example_index, 1u);
}

TEST(ConsistencyEngine, ConsistentAttributesDoNotFire) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender"};
  const ConsistencyEngine engine(config);
  auto frames = LinearFrames(3);
  std::vector<ConsistencyRecord> records;
  for (std::size_t i = 0; i < 3; ++i) {
    auto r = MakeRecord(i, static_cast<double>(i), "alice");
    r.attributes.emplace_back("gender", "female");
    records.push_back(std::move(r));
  }
  const auto result = engine.Analyze(frames, records, 3);
  EXPECT_TRUE(result.corrections.empty());
  for (const double s : result.severities[0]) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(ConsistencyEngine, DifferentIdentifiersNotCompared) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender"};
  const ConsistencyEngine engine(config);
  auto frames = LinearFrames(2);
  std::vector<ConsistencyRecord> records;
  auto a = MakeRecord(0, 0.0, "alice");
  a.attributes.emplace_back("gender", "female");
  auto b = MakeRecord(1, 1.0, "bob");
  b.attributes.emplace_back("gender", "male");
  records.push_back(a);
  records.push_back(b);
  const auto result = engine.Analyze(frames, records, 2);
  EXPECT_TRUE(result.corrections.empty());
}

TEST(ConsistencyEngine, DifferentGroupsNotCompared) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender"};
  const ConsistencyEngine engine(config);
  std::vector<ConsistencyFrame> frames = {{0, 0.0, "g1"}, {1, 0.0, "g2"}};
  std::vector<ConsistencyRecord> records;
  auto a = MakeRecord(0, 0.0, "alice", "g1");
  a.attributes.emplace_back("gender", "female");
  auto b = MakeRecord(1, 0.0, "alice", "g2");
  b.attributes.emplace_back("gender", "male");
  records.push_back(a);
  records.push_back(b);
  const auto result = engine.Analyze(frames, records, 2);
  EXPECT_TRUE(result.corrections.empty());
}

TEST(ConsistencyEngine, UnlistedAttributeKeysIgnored) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender"};
  const ConsistencyEngine engine(config);
  auto frames = LinearFrames(2);
  std::vector<ConsistencyRecord> records;
  for (std::size_t i = 0; i < 2; ++i) {
    auto r = MakeRecord(i, static_cast<double>(i), "alice");
    r.attributes.emplace_back("hair", i == 0 ? "black" : "blond");
    records.push_back(std::move(r));
  }
  const auto result = engine.Analyze(frames, records, 2);
  EXPECT_TRUE(result.corrections.empty());
}

// ---- Temporal assertions ----

ConsistencyEngine TemporalEngine(double threshold) {
  ConsistencyConfig config;
  config.temporal_threshold = threshold;
  return ConsistencyEngine(config);
}

TEST(ConsistencyEngine, FlickerFiresOnShortGap) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(6);
  // Present 0,1, absent 2, present 3,4,5 -> gap of 2 s < 3 s.
  std::vector<ConsistencyRecord> records;
  for (const std::size_t i : {0u, 1u, 3u, 4u, 5u}) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  const auto result = engine.Analyze(frames, records, 6);
  const auto& flicker = result.severities[0];
  EXPECT_DOUBLE_EQ(flicker[2], 1.0);
  EXPECT_DOUBLE_EQ(flicker[1], 0.0);
  EXPECT_DOUBLE_EQ(flicker[3], 0.0);
  // One add-output correction for the gap frame.
  ASSERT_EQ(result.corrections.size(), 1u);
  EXPECT_EQ(result.corrections[0].kind, CorrectionKind::kAddOutput);
  EXPECT_EQ(result.corrections[0].example_index, 2u);
  EXPECT_FALSE(result.corrections[0].support_records.empty());
}

TEST(ConsistencyEngine, LongGapIsNotFlicker) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(10);
  // Present 0,1, absent 2..5 (gap 4 s >= 3 s), present 6..9.
  std::vector<ConsistencyRecord> records;
  for (const std::size_t i : {0u, 1u, 6u, 7u, 8u, 9u}) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  const auto result = engine.Analyze(frames, records, 10);
  for (const double s : result.severities[0]) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(ConsistencyEngine, AppearFiresOnBriefEpisode) {
  const auto engine = TemporalEngine(3.5);
  auto frames = LinearFrames(8);
  // Absent 0..2, present 3,4, absent 5..7: the episode spans 3 s between
  // the bounding absences (t=2 to t=5), under the 3.5 s threshold.
  std::vector<ConsistencyRecord> records = {MakeRecord(3, 3.0, "ghost"),
                                            MakeRecord(4, 4.0, "ghost")};
  const auto result = engine.Analyze(frames, records, 8);
  const auto& appear = result.severities[1];
  EXPECT_DOUBLE_EQ(appear[3], 1.0);
  EXPECT_DOUBLE_EQ(appear[4], 1.0);
  EXPECT_DOUBLE_EQ(appear[2], 0.0);
  // Remove-output corrections for both episode records.
  ASSERT_EQ(result.corrections.size(), 2u);
  for (const auto& c : result.corrections) {
    EXPECT_EQ(c.kind, CorrectionKind::kRemoveOutput);
  }
}

TEST(ConsistencyEngine, LongEpisodeDoesNotAppear) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(10);
  std::vector<ConsistencyRecord> records;
  for (std::size_t i = 2; i <= 7; ++i) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  const auto result = engine.Analyze(frames, records, 10);
  for (const double s : result.severities[1]) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(ConsistencyEngine, BoundaryEpisodesNotFlagged) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(6);
  // Present only at the very start and the very end: their true extent is
  // unknown, so neither is flagged as a brief appearance.
  std::vector<ConsistencyRecord> records = {MakeRecord(0, 0.0, "a"),
                                            MakeRecord(5, 5.0, "b")};
  const auto result = engine.Analyze(frames, records, 6);
  for (const double s : result.severities[1]) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(ConsistencyEngine, FlickerGapOfTwoFrames) {
  const auto engine = TemporalEngine(5.0);
  auto frames = LinearFrames(8);
  std::vector<ConsistencyRecord> records;
  for (const std::size_t i : {0u, 1u, 4u, 5u, 6u, 7u}) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  const auto result = engine.Analyze(frames, records, 8);
  EXPECT_DOUBLE_EQ(result.severities[0][2], 1.0);
  EXPECT_DOUBLE_EQ(result.severities[0][3], 1.0);
  EXPECT_EQ(result.corrections.size(), 2u);
}

TEST(ConsistencyEngine, MultipleEntitiesIndependent) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(6);
  std::vector<ConsistencyRecord> records;
  // car-1 present everywhere; car-2 flickers at frame 2.
  for (std::size_t i = 0; i < 6; ++i) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  for (const std::size_t i : {0u, 1u, 3u, 4u, 5u}) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-2"));
  }
  const auto result = engine.Analyze(frames, records, 6);
  EXPECT_DOUBLE_EQ(result.severities[0][2], 1.0);  // only car-2's gap
}

TEST(ConsistencyEngine, SeverityCountsMultipleViolations) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(6);
  std::vector<ConsistencyRecord> records;
  // Two entities both flicker at frame 2 -> severity 2 there.
  for (const auto* id : {"car-1", "car-2"}) {
    for (const std::size_t i : {0u, 1u, 3u, 4u, 5u}) {
      records.push_back(MakeRecord(i, static_cast<double>(i), id));
    }
  }
  const auto result = engine.Analyze(frames, records, 6);
  EXPECT_DOUBLE_EQ(result.severities[0][2], 2.0);
}

TEST(ConsistencyEngine, RejectsOutOfRangeIndices) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(2);
  std::vector<ConsistencyRecord> records = {MakeRecord(5, 0.0, "x")};
  EXPECT_THROW(engine.Analyze(frames, records, 2), common::CheckError);
}

TEST(ConsistencyEngine, RecordWithoutFrameRejected) {
  const auto engine = TemporalEngine(3.0);
  std::vector<ConsistencyFrame> frames = {{0, 0.0, "g"}};
  // Record in a group that has frames, but at an example index that is not
  // on that group's timeline.
  std::vector<ConsistencyRecord> records = {MakeRecord(1, 1.0, "x")};
  EXPECT_THROW(engine.Analyze(frames, records, 2), common::CheckError);
}

TEST(ConsistencyEngine, RejectsOutOfRangeFrameIndex) {
  const auto engine = TemporalEngine(3.0);
  std::vector<ConsistencyFrame> frames = {{0, 0.0, "g"}, {7, 1.0, "g"}};
  std::vector<ConsistencyRecord> records = {MakeRecord(0, 0.0, "x")};
  EXPECT_THROW(engine.Analyze(frames, records, 2), common::CheckError);
}

TEST(ConsistencyEngine, RecordInGroupWithoutFramesRejected) {
  const auto engine = TemporalEngine(3.0);
  std::vector<ConsistencyFrame> frames = {{0, 0.0, "g"}, {1, 1.0, "g"}};
  std::vector<ConsistencyRecord> records = {MakeRecord(0, 0.0, "x"),
                                            MakeRecord(1, 1.0, "x", "h")};
  EXPECT_THROW(engine.Analyze(frames, records, 2), common::CheckError);
}

TEST(ConsistencyEngine, RecordOnAnotherGroupsFrameRejected) {
  // Example 0 is on g's timeline only; a record of group h at example 0
  // must not borrow g's position for it.
  const auto engine = TemporalEngine(3.0);
  std::vector<ConsistencyFrame> frames = {{0, 0.0, "g"}, {1, 1.0, "h"}};
  std::vector<ConsistencyRecord> records = {MakeRecord(0, 0.0, "x", "g"),
                                            MakeRecord(0, 0.0, "y", "h")};
  EXPECT_THROW(engine.Analyze(frames, records, 2), common::CheckError);
}

// Non-finite and signed-zero timestamps (a wire frame can carry any
// double). Timeline order is numeric `<`, -0.0 tying 0.0 and ties going by
// example index, with every NaN after every number, whatever the order
// the frames arrive in.
TEST(ConsistencyEngine, NonFiniteTimestampsOrderDeterministically) {
  const auto engine = TemporalEngine(2.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> times = {-inf, 0.0, -0.0, 1.0, inf, nan, -nan};
  std::vector<ConsistencyFrame> frames;
  for (std::size_t e = 0; e < times.size(); ++e) {
    frames.push_back({e, times[e], "g"});
  }
  // "a" is absent on example 2 only: a flicker if example 2 sits between
  // examples 1 and 3 (-0.0 ties 0.0, example index breaks the tie). "full"
  // is present on every finite frame: it would flicker if a NaN frame
  // sorted among them. "tail" is present on the later NaN frame only: on
  // the timeline's last frame it is no brief appearance.
  std::vector<ConsistencyRecord> records = {
      MakeRecord(3, 1.0, "a"), MakeRecord(1, 0.0, "a"),
      MakeRecord(6, nan, "tail")};
  for (std::size_t e = 0; e < 5; ++e) {
    records.push_back(MakeRecord(e, times[e], "full"));
  }
  common::Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    rng.Shuffle(frames);
    const auto result = engine.Analyze(frames, records, times.size());
    EXPECT_EQ(result.severities[0],
              (std::vector<double>{0, 0, 1, 0, 0, 0, 0}));
    EXPECT_EQ(result.severities[1], std::vector<double>(times.size(), 0.0));
    ASSERT_EQ(result.corrections.size(), 1u);
    const Correction& add = result.corrections[0];
    EXPECT_EQ(add.kind, CorrectionKind::kAddOutput);
    EXPECT_EQ(add.identifier, "a");
    EXPECT_EQ(add.example_index, 2u);
    EXPECT_TRUE(std::signbit(add.timestamp));
    EXPECT_EQ(add.support_records, (std::vector<std::size_t>{1, 0}));
  }
}

// ---- Differential test against the map-based reference ----

// The engine's algorithm as first written, on ordered maps; kept here as
// the reference the flat-array engine must match output for output. Its
// timeline sort needs timestamps free of NaN.
ConsistencyResult ReferenceAnalyze(
    const ConsistencyConfig& config,
    const std::vector<ConsistencyFrame>& frames,
    const std::vector<ConsistencyRecord>& records, std::size_t num_examples) {
  using EntityKey = std::pair<std::string, std::string>;
  ConsistencyResult result;
  const std::vector<std::string>& keys = config.attribute_keys;
  result.assertion_names = ConsistencyEngine(config).AssertionNames();
  result.severities.assign(result.assertion_names.size(),
                           std::vector<double>(num_examples, 0.0));
  for (const auto& record : records) {
    common::Check(record.example_index < num_examples, "record range");
  }
  std::map<EntityKey, std::vector<std::size_t>> entity_records;
  for (std::size_t r = 0; r < records.size(); ++r) {
    entity_records[{records[r].group, records[r].identifier}].push_back(r);
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (const auto& [entity, record_indices] : entity_records) {
      std::vector<std::pair<std::size_t, std::string>> values;
      for (const std::size_t r : record_indices) {
        for (const auto& [attr_key, attr_value] : records[r].attributes) {
          if (attr_key == keys[k]) values.emplace_back(r, attr_value);
        }
      }
      if (values.size() < 2) continue;
      std::map<std::string, std::size_t> counts;
      for (const auto& [_, value] : values) ++counts[value];
      std::string mode = values.front().second;
      std::size_t mode_count = 0;
      for (const auto& [r, value] : values) {
        if (counts[value] > mode_count) {
          mode_count = counts[value];
          mode = value;
        }
      }
      if (mode_count == values.size()) continue;
      for (const auto& [r, value] : values) {
        if (value == mode) continue;
        result.severities[k][records[r].example_index] += 1.0;
        Correction c;
        c.kind = CorrectionKind::kSetAttribute;
        c.group = records[r].group;
        c.identifier = records[r].identifier;
        c.example_index = records[r].example_index;
        c.timestamp = records[r].timestamp;
        c.output_index = records[r].output_index;
        c.attribute_key = keys[k];
        c.proposed_value = mode;
        result.corrections.push_back(std::move(c));
      }
    }
  }
  if (config.temporal_threshold <= 0.0) return result;

  const std::size_t flicker_col = keys.size();
  const std::size_t appear_col = keys.size() + 1;
  std::map<std::string, std::vector<std::pair<double, std::size_t>>> timelines;
  for (const auto& frame : frames) {
    common::Check(frame.example_index < num_examples, "frame range");
    timelines[frame.group].emplace_back(frame.timestamp, frame.example_index);
  }
  for (auto& [_, timeline] : timelines) {
    std::sort(timeline.begin(), timeline.end());
  }
  for (const auto& [entity, record_indices] : entity_records) {
    const auto it = timelines.find(entity.first);
    common::Check(it != timelines.end(), "group without frames");
    const auto& timeline = it->second;
    const std::size_t n = timeline.size();
    std::map<std::size_t, std::size_t> example_to_frame;
    for (std::size_t f = 0; f < n; ++f) {
      example_to_frame[timeline[f].second] = f;
    }
    std::vector<std::vector<std::size_t>> frame_records(n);
    for (const std::size_t r : record_indices) {
      const auto found = example_to_frame.find(records[r].example_index);
      common::Check(found != example_to_frame.end(), "missing frame");
      frame_records[found->second].push_back(r);
    }
    std::vector<std::pair<std::size_t, std::size_t>> episodes;
    for (std::size_t f = 0; f < n; ++f) {
      if (frame_records[f].empty()) continue;
      if (!episodes.empty() && episodes.back().second + 1 == f) {
        episodes.back().second = f;
      } else {
        episodes.emplace_back(f, f);
      }
    }
    for (std::size_t e = 0; e + 1 < episodes.size(); ++e) {
      const std::size_t last = episodes[e].second;
      const std::size_t next = episodes[e + 1].first;
      if (timeline[next].first - timeline[last].first >=
          config.temporal_threshold) {
        continue;
      }
      std::vector<std::size_t> support = frame_records[last];
      support.insert(support.end(), frame_records[next].begin(),
                     frame_records[next].end());
      for (std::size_t f = last + 1; f < next; ++f) {
        result.severities[flicker_col][timeline[f].second] += 1.0;
        Correction c;
        c.kind = CorrectionKind::kAddOutput;
        c.group = entity.first;
        c.identifier = entity.second;
        c.example_index = timeline[f].second;
        c.timestamp = timeline[f].first;
        c.support_records = support;
        result.corrections.push_back(std::move(c));
      }
    }
    for (const auto& [first, last] : episodes) {
      if (first == 0 || last + 1 >= n) continue;
      if (timeline[last + 1].first - timeline[first - 1].first >=
          config.temporal_threshold) {
        continue;
      }
      for (std::size_t f = first; f <= last; ++f) {
        result.severities[appear_col][timeline[f].second] += 1.0;
        for (const std::size_t r : frame_records[f]) {
          Correction c;
          c.kind = CorrectionKind::kRemoveOutput;
          c.group = entity.first;
          c.identifier = entity.second;
          c.example_index = records[r].example_index;
          c.timestamp = records[r].timestamp;
          c.output_index = records[r].output_index;
          result.corrections.push_back(std::move(c));
        }
      }
    }
  }
  return result;
}

struct RandomCase {
  ConsistencyConfig config;
  std::vector<ConsistencyFrame> frames;
  std::vector<ConsistencyRecord> records;
  std::size_t num_examples = 0;
};

// A valid random stream: interleaved groups, frames and records in shuffled
// order, duplicated example indices within a group, tied timestamps (some
// -0.0), repeated attribute keys on one record, tied modes, T = 0 and
// empty record sets among the cases. With `tricky_names` the groups and
// identifiers share prefixes, differ only in length, and hold bytes >= 0x80
// and embedded '\0', so the engine's entity order must be std::string order
// (unsigned bytes, shorter prefix first) to match the reference's maps.
RandomCase MakeRandomCase(std::uint64_t seed, bool tricky_names = false) {
  common::Rng rng(seed);
  const auto pick = [&](std::int64_t n) {
    return static_cast<std::size_t>(rng.UniformInt(0, n - 1));
  };
  RandomCase c;
  const double thresholds[] = {0.0, 0.5, 1.5, 3.0};
  c.config.temporal_threshold = thresholds[pick(4)];
  for (const char* key : {"k0", "k1"}) {
    if (rng.Bernoulli(0.6)) c.config.attribute_keys.push_back(key);
  }
  c.num_examples = pick(24);
  using namespace std::string_literals;
  const std::vector<std::string> groups =
      tricky_names ? std::vector{"g\xff"s, "g"s, "g\0"s, "\x80g"s, "g0"s}
                   : std::vector{"g0"s, "g1"s, "g2"s};
  const std::vector<std::string> identifiers =
      tricky_names ? std::vector{"a"s, "a\0"s, "ab"s, "\x80"s, "a\0b"s,
                                 "\xff"s, ""s}
                   : std::vector{"a"s, "b"s, "c"s, "d"s};
  const std::size_t num_groups =
      1 + pick(static_cast<std::int64_t>(groups.size()));
  for (std::size_t e = 0; e < c.num_examples; ++e) {
    const std::string& group = groups[pick(num_groups)];
    const double t = rng.Bernoulli(0.2) ? static_cast<double>(pick(4)) * 0.5
                                        : static_cast<double>(e) * 0.5;
    c.frames.push_back({e, t == 0.0 && rng.Bernoulli(0.5) ? -0.0 : t, group});
    if (rng.Bernoulli(0.1)) {  // the same example again, maybe later
      c.frames.push_back({e, t + static_cast<double>(pick(3)), group});
    }
  }
  const std::size_t num_records = rng.Bernoulli(0.1) ? 0 : pick(40);
  for (std::size_t i = 0; i < num_records && !c.frames.empty(); ++i) {
    const ConsistencyFrame& frame = c.frames[pick(
        static_cast<std::int64_t>(c.frames.size()))];
    ConsistencyRecord r = MakeRecord(
        frame.example_index, frame.timestamp,
        identifiers[pick(static_cast<std::int64_t>(identifiers.size()))],
        frame.group);
    r.output_index = static_cast<std::int64_t>(pick(3));
    for (std::size_t a = pick(4); a > 0; --a) {
      // "k9" is a key no config lists; "" is a value like any other.
      const char* keys[] = {"k0", "k1", "k9"};
      const char* attribute_values[] = {"", "x", "y", "z"};
      r.attributes.emplace_back(keys[pick(3)], attribute_values[pick(4)]);
    }
    c.records.push_back(std::move(r));
  }
  rng.Shuffle(c.frames);
  rng.Shuffle(c.records);
  return c;
}

void ExpectSameCorrections(const std::vector<Correction>& got,
                           const std::vector<Correction>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Correction& g = got[i];
    const Correction& w = want[i];
    EXPECT_EQ(g.kind, w.kind) << "correction " << i;
    EXPECT_EQ(g.group, w.group) << "correction " << i;
    EXPECT_EQ(g.identifier, w.identifier) << "correction " << i;
    EXPECT_EQ(g.example_index, w.example_index) << "correction " << i;
    EXPECT_EQ(g.timestamp, w.timestamp) << "correction " << i;
    EXPECT_EQ(g.output_index, w.output_index) << "correction " << i;
    EXPECT_EQ(g.attribute_key, w.attribute_key) << "correction " << i;
    EXPECT_EQ(g.proposed_value, w.proposed_value) << "correction " << i;
    EXPECT_EQ(g.support_records, w.support_records) << "correction " << i;
  }
}

TEST(ConsistencyEngine, MatchesMapBasedReferenceOnRandomStreams) {
  std::map<CorrectionKind, std::size_t> kinds_seen;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    for (const bool tricky_names : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (tricky_names ? " tricky names" : ""));
      const RandomCase c = MakeRandomCase(seed, tricky_names);
      const ConsistencyResult want =
          ReferenceAnalyze(c.config, c.frames, c.records, c.num_examples);
      const ConsistencyEngine engine(c.config);
      const ConsistencyResult got =
          engine.Analyze(c.frames, c.records, c.num_examples);
      EXPECT_EQ(got.assertion_names, want.assertion_names);
      EXPECT_EQ(got.severities, want.severities);
      ExpectSameCorrections(got.corrections, want.corrections);
      // The severity-only pass scores exactly as the full one.
      const ConsistencyResult scored =
          engine.Score(c.frames, c.records, c.num_examples);
      EXPECT_EQ(scored.assertion_names, want.assertion_names);
      EXPECT_EQ(scored.severities, want.severities);
      EXPECT_TRUE(scored.corrections.empty());
      for (const Correction& w : want.corrections) ++kinds_seen[w.kind];
    }
  }
  // The generator must exercise every correction kind.
  for (const auto kind :
       {CorrectionKind::kSetAttribute, CorrectionKind::kAddOutput,
        CorrectionKind::kRemoveOutput}) {
    EXPECT_GT(kinds_seen[kind], 100u);
  }
}

// Parameterized: threshold semantics — a gap of `gap` seconds fires iff
// gap < T.
class FlickerThreshold
    : public ::testing::TestWithParam<std::pair<double, bool>> {};

TEST_P(FlickerThreshold, GapFiresIffBelowThreshold) {
  const auto [threshold, should_fire] = GetParam();
  const auto engine = TemporalEngine(threshold);
  auto frames = LinearFrames(7);
  // Gap spans frames 2,3 -> absent from t=2 to t=4, duration 2 s
  // (measured last-seen -> next-seen).
  std::vector<ConsistencyRecord> records;
  for (const std::size_t i : {0u, 1u, 4u, 5u, 6u}) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  const auto result = engine.Analyze(frames, records, 7);
  const bool fired = result.severities[0][2] > 0.0;
  EXPECT_EQ(fired, should_fire);
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, FlickerThreshold,
    ::testing::Values(std::pair{1.0, false},   // gap 3 s >= 1 s
                      std::pair{3.0, false},   // gap 3 s >= 3 s
                      std::pair{3.01, true},   // gap 3 s < 3.01 s
                      std::pair{10.0, true}));

// ---- Adapter ----

struct ToyExample {
  double timestamp = 0.0;
  bool present = false;
};

ConsistencyExtraction ExtractToy(std::span<const ToyExample> examples) {
  ConsistencyExtraction extraction;
  for (std::size_t e = 0; e < examples.size(); ++e) {
    extraction.frames.push_back({e, examples[e].timestamp, "g"});
    if (examples[e].present) {
      ConsistencyRecord r;
      r.example_index = e;
      r.output_index = 0;
      r.timestamp = examples[e].timestamp;
      r.group = "g";
      r.identifier = "obj";
      extraction.records.push_back(std::move(r));
    }
  }
  return extraction;
}

TEST(ConsistencyAdapter, GeneratesSuiteColumns) {
  AssertionSuite<ToyExample> suite;
  ConsistencyConfig config;
  config.temporal_threshold = 3.0;
  auto analyzer = AddConsistencyAssertion<ToyExample>(
      suite, config, [](std::span<const ToyExample> ex) {
        return ExtractToy(ex);
      });
  EXPECT_EQ(suite.Names(), (std::vector<std::string>{"flicker", "appear"}));

  std::vector<ToyExample> stream;
  for (std::size_t i = 0; i < 6; ++i) {
    stream.push_back({static_cast<double>(i), i != 2});
  }
  const SeverityMatrix m = suite.CheckAll(stream);
  EXPECT_TRUE(m.Fired(2, 0));   // flicker at the gap
  EXPECT_FALSE(m.Fired(2, 1));  // not an appear
  EXPECT_EQ(analyzer->Corrections(stream).size(), 1u);
}

TEST(ConsistencyAdapter, NamePrefixApplied) {
  AssertionSuite<ToyExample> suite;
  ConsistencyConfig config;
  config.temporal_threshold = 3.0;
  AddConsistencyAssertion<ToyExample>(
      suite, config,
      [](std::span<const ToyExample> ex) { return ExtractToy(ex); },
      "news:");
  EXPECT_EQ(suite.Names(),
            (std::vector<std::string>{"news:flicker", "news:appear"}));
}

TEST(ConsistencyAdapter, EmptyConfigRejected) {
  AssertionSuite<ToyExample> suite;
  EXPECT_THROW(AddConsistencyAssertion<ToyExample>(
                   suite, ConsistencyConfig{},
                   [](std::span<const ToyExample> ex) {
                     return ExtractToy(ex);
                   }),
               common::CheckError);
}

TEST(ConsistencyAdapter, InvalidateForcesReanalysis) {
  ConsistencyConfig config;
  config.temporal_threshold = 3.0;
  ConsistencyAnalyzer<ToyExample> analyzer(
      config,
      [](std::span<const ToyExample> ex) { return ExtractToy(ex); });
  std::vector<ToyExample> stream;
  for (std::size_t i = 0; i < 6; ++i) {
    stream.push_back({static_cast<double>(i), i != 2});
  }
  const auto& first = analyzer.Analyze(stream);
  EXPECT_DOUBLE_EQ(first.severities[0][2], 1.0);
  // Mutate the stream in place (same pointer/size): without Invalidate the
  // cache would serve the stale result.
  stream[2].present = true;
  analyzer.Invalidate();
  const auto& second = analyzer.Analyze(stream);
  EXPECT_DOUBLE_EQ(second.severities[0][2], 0.0);
}

// The scoring path (suite CheckAll) and a later Corrections() on the same
// span share one extraction: the corrections, their order, their support
// records and LatestRecords() equal a fresh full analysis.
TEST(ConsistencyAdapter, CorrectionsAfterScoringReuseTheExtraction) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomCase c = MakeRandomCase(seed, seed % 2 == 0);
    if (c.config.attribute_keys.empty() &&
        c.config.temporal_threshold <= 0.0) {
      continue;  // generates no assertions
    }
    std::size_t extractions = 0;
    AssertionSuite<int> suite;
    auto analyzer = AddConsistencyAssertion<int>(
        suite, c.config, [&](std::span<const int>) {
          ++extractions;
          return ConsistencyExtraction{c.frames, c.records};
        });
    const ConsistencyResult want = ConsistencyEngine(c.config).Analyze(
        c.frames, c.records, c.num_examples);
    const std::vector<int> stream(c.num_examples, 0);

    const SeverityMatrix m = suite.CheckAll(stream);
    EXPECT_EQ(extractions, 1u);
    for (std::size_t a = 0; a < want.severities.size(); ++a) {
      for (std::size_t e = 0; e < c.num_examples; ++e) {
        EXPECT_EQ(m.At(e, a), want.severities[a][e]);
      }
    }
    ExpectSameCorrections(analyzer->Corrections(stream), want.corrections);
    EXPECT_EQ(extractions, 1u);
    const auto& records = analyzer->LatestRecords();
    ASSERT_EQ(records.size(), c.records.size());
    for (std::size_t r = 0; r < records.size(); ++r) {
      EXPECT_EQ(records[r].example_index, c.records[r].example_index);
      EXPECT_EQ(records[r].output_index, c.records[r].output_index);
      EXPECT_EQ(records[r].group, c.records[r].group);
      EXPECT_EQ(records[r].identifier, c.records[r].identifier);
    }
    // A second scoring pass keeps the corrections already built.
    suite.CheckAll(stream);
    EXPECT_EQ(analyzer->Analyze(stream).corrections.size(),
              want.corrections.size());
    EXPECT_EQ(extractions, 1u);

    analyzer->Invalidate();
    EXPECT_THROW(analyzer->LatestRecords(), common::CheckError);
    ExpectSameCorrections(analyzer->Corrections(stream), want.corrections);
    EXPECT_EQ(extractions, 2u);
  }
}

}  // namespace
}  // namespace omg::core
