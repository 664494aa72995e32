#include "core/consistency.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <numeric>
#include <span>
#include <string_view>
#include <tuple>

#include "common/check.hpp"

namespace omg::core {

using common::Check;

namespace {

// Lays the records out entity by entity into `by_entity` and returns the
// entities: the distinct (group, identifier) keys in string order, each
// holding its records in input order. Each record's key is interned to a
// dense id through a hash table, so only the distinct keys are compared as
// strings; a counting sort by key rank then places the records.
std::vector<std::span<const std::size_t>> GroupEntities(
    const std::vector<ConsistencyRecord>& records,
    std::vector<std::size_t>& by_entity) {
  constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);
  const std::size_t n = records.size();
  // Open addressing, at most half full: key ids by slot.
  const std::size_t mask = std::bit_ceil(std::max<std::size_t>(2 * n, 8)) - 1;
  std::vector<std::size_t> table(mask + 1, kEmpty);
  std::vector<std::size_t> key_of(n);
  std::vector<std::size_t> key_record;  // key id -> its first record
  const std::hash<std::string_view> hash;
  for (std::size_t r = 0; r < n; ++r) {
    const ConsistencyRecord& record = records[r];
    std::size_t slot =
        (hash(record.group) ^ (hash(record.identifier) * 0x9E3779B97F4A7C15u)) &
        mask;
    while (table[slot] != kEmpty) {
      const ConsistencyRecord& seen = records[key_record[table[slot]]];
      if (seen.identifier == record.identifier && seen.group == record.group) {
        break;
      }
      slot = (slot + 1) & mask;
    }
    if (table[slot] == kEmpty) {
      table[slot] = key_record.size();
      key_record.push_back(r);
    }
    key_of[r] = table[slot];
  }

  // Key ids in (group, identifier) order, then each key's first position.
  std::vector<std::size_t> by_key(key_record.size());
  std::iota(by_key.begin(), by_key.end(), std::size_t{0});
  std::ranges::sort(by_key, {}, [&](std::size_t k) {
    return std::tie(records[key_record[k]].group,
                    records[key_record[k]].identifier);
  });
  std::vector<std::size_t> begin_of(key_record.size(), 0);
  for (const std::size_t k : key_of) ++begin_of[k];
  std::vector<std::span<const std::size_t>> entities;
  entities.reserve(by_key.size());
  by_entity.resize(n);
  std::size_t begin = 0;
  for (const std::size_t k : by_key) {
    const std::size_t count = begin_of[k];
    begin_of[k] = begin;
    entities.emplace_back(by_entity.data() + begin, count);
    begin += count;
  }
  for (std::size_t r = 0; r < n; ++r) by_entity[begin_of[key_of[r]]++] = r;
  return entities;
}

}  // namespace

ConsistencyEngine::ConsistencyEngine(ConsistencyConfig config)
    : config_(std::move(config)) {}

std::vector<std::string> ConsistencyEngine::AssertionNames() const {
  std::vector<std::string> names;
  for (const auto& key : config_.attribute_keys) {
    names.push_back("consistent:" + key);
  }
  if (config_.temporal_threshold > 0.0) {
    names.push_back("flicker");
    names.push_back("appear");
  }
  return names;
}

ConsistencyResult ConsistencyEngine::Analyze(
    const std::vector<ConsistencyFrame>& frames,
    const std::vector<ConsistencyRecord>& records,
    std::size_t num_examples) const {
  return Run(frames, records, num_examples, /*with_corrections=*/true);
}

ConsistencyResult ConsistencyEngine::Score(
    const std::vector<ConsistencyFrame>& frames,
    const std::vector<ConsistencyRecord>& records,
    std::size_t num_examples) const {
  return Run(frames, records, num_examples, /*with_corrections=*/false);
}

ConsistencyResult ConsistencyEngine::Run(
    const std::vector<ConsistencyFrame>& frames,
    const std::vector<ConsistencyRecord>& records, std::size_t num_examples,
    bool with_corrections) const {
  ConsistencyResult result;

  // The configured attribute keys are authoritative: the generated
  // assertion set (and therefore the severity-matrix columns) must not
  // depend on which keys happen to appear in the data.
  const std::vector<std::string>& keys = config_.attribute_keys;
  result.assertion_names = AssertionNames();
  result.severities.assign(result.assertion_names.size(),
                           std::vector<double>(num_examples, 0.0));

  for (const auto& record : records) {
    Check(record.example_index < num_examples,
          "record example_index out of range");
  }

  std::vector<std::size_t> by_entity;
  const std::vector<std::span<const std::size_t>> entities =
      GroupEntities(records, by_entity);

  // ---- Attribute consistency ("consistent:<key>"). ----
  // For each entity and key take the most common value (mode; ties broken
  // by first occurrence) and flag + correct the minority records.
  std::vector<std::pair<std::size_t, std::string_view>> values;  // (rec, val)
  std::vector<std::string_view> sorted;  // `values` sorted, to count each
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (const auto& entity : entities) {
      values.clear();
      for (const std::size_t r : entity) {
        for (const auto& [attr_key, attr_value] : records[r].attributes) {
          if (attr_key == keys[k]) values.emplace_back(r, attr_value);
        }
      }
      if (values.size() < 2) continue;
      sorted.clear();
      for (const auto& [_, value] : values) sorted.push_back(value);
      std::ranges::sort(sorted);
      std::string_view mode;
      std::size_t mode_count = 0;
      for (const auto& [r, value] : values) {
        if (mode_count > 0 && value == mode) continue;  // counted already
        const auto count = std::ranges::equal_range(sorted, value).size();
        if (count > mode_count) {
          mode_count = count;
          mode = value;
        }
      }
      if (mode_count == values.size()) continue;  // all consistent
      for (const auto& [r, value] : values) {
        if (value == mode) continue;
        result.severities[k][records[r].example_index] += 1.0;
        if (!with_corrections) continue;
        Correction correction;
        correction.kind = CorrectionKind::kSetAttribute;
        correction.group = records[r].group;
        correction.identifier = records[r].identifier;
        correction.example_index = records[r].example_index;
        correction.timestamp = records[r].timestamp;
        correction.output_index = records[r].output_index;
        correction.attribute_key = keys[k];
        correction.proposed_value = mode;
        result.corrections.push_back(std::move(correction));
      }
    }
  }

  if (config_.temporal_threshold <= 0.0) return result;

  // ---- Temporal consistency (flicker / appear). ----
  const std::size_t flicker_col = keys.size();
  const std::size_t appear_col = keys.size() + 1;

  // Timelines: the frames' stable sort by (group, timestamp, example index)
  // holds each group's as one contiguous range. NaN timestamps (from the
  // wire) sort after every number: `<` on NaN is no strict weak order.
  for (const auto& frame : frames) {
    Check(frame.example_index < num_examples,
          "frame example_index out of range");
  }
  std::vector<std::size_t> by_time(frames.size());
  std::iota(by_time.begin(), by_time.end(), std::size_t{0});
  std::ranges::stable_sort(by_time, {}, [&](std::size_t f) {
    const double t = frames[f].timestamp;
    return std::tuple<const std::string&, bool, double, std::size_t>(
        frames[f].group, std::isnan(t), std::isnan(t) ? 0.0 : t,
        frames[f].example_index);
  });
  std::span<const std::size_t> timeline;  // the current group's frames
  const auto frame_at = [&](std::size_t f) -> const ConsistencyFrame& {
    return frames[timeline[f]];
  };
  // Example -> last position on the current group's timeline. Entries of
  // earlier groups are not reset: lookups check the example is there.
  std::vector<std::size_t> frame_of(num_examples, 0);
  std::vector<std::pair<std::size_t, std::size_t>> present;  // (frame, rec)
  std::vector<std::pair<std::size_t, std::size_t>> episodes;  // first, last

  for (const auto& entity : entities) {
    const std::string& group = records[entity.front()].group;
    if (timeline.empty() || group != frame_at(0).group) {
      timeline = std::ranges::equal_range(
          by_time, group, {},
          [&](std::size_t f) -> const std::string& { return frames[f].group; });
      Check(!timeline.empty(),
            "records reference group with no frames: " + group);
      for (std::size_t f = 0; f < timeline.size(); ++f) {
        frame_of[frame_at(f).example_index] = f;
      }
    }

    // The entity's (frame, record) pairs, by frame and then input order.
    present.clear();
    for (const std::size_t r : entity) {
      const std::size_t f = frame_of[records[r].example_index];
      Check(f < timeline.size() &&
                frame_at(f).example_index == records[r].example_index,
            "record example missing from frame timeline");
      present.emplace_back(f, r);
    }
    std::sort(present.begin(), present.end());
    const auto records_at = [&](std::size_t f) {
      return std::ranges::equal_range(
          present, f, {}, &std::pair<std::size_t, std::size_t>::first);
    };

    // Episodes: maximal runs of consecutive frames with the entity present.
    episodes.clear();
    for (const auto& [f, r] : present) {
      if (!episodes.empty() && f <= episodes.back().second + 1) {
        episodes.back().second = f;
      } else {
        episodes.emplace_back(f, f);
      }
    }

    // `flicker`: a gap between two episodes shorter than T means the
    // identifier disappeared and reappeared within a T-second window.
    for (std::size_t e = 0; e + 1 < episodes.size(); ++e) {
      const std::size_t gap_begin = episodes[e].second + 1;
      const std::size_t gap_end = episodes[e + 1].first;  // exclusive
      const double gap_duration =
          frame_at(gap_end).timestamp - frame_at(gap_begin - 1).timestamp;
      if (gap_duration >= config_.temporal_threshold) continue;
      // Severity on every gap frame; one add-correction per gap frame,
      // supported by the neighbouring occurrences.
      std::vector<std::size_t> support;
      if (with_corrections) {
        for (const std::size_t f : {gap_begin - 1, gap_end}) {
          for (const auto& [_, r] : records_at(f)) support.push_back(r);
        }
      }
      for (std::size_t f = gap_begin; f < gap_end; ++f) {
        result.severities[flicker_col][frame_at(f).example_index] += 1.0;
        if (!with_corrections) continue;
        Correction correction;
        correction.kind = CorrectionKind::kAddOutput;
        correction.group = group;
        correction.identifier = records[entity.front()].identifier;
        correction.example_index = frame_at(f).example_index;
        correction.timestamp = frame_at(f).timestamp;
        correction.support_records = support;
        result.corrections.push_back(std::move(correction));
      }
    }

    // `appear`: an episode shorter than T bounded by absence on both sides
    // (appear + disappear within a T-second window). Episodes touching the
    // stream boundary are not flagged — their true extent is unknown.
    for (const auto& [first, last] : episodes) {
      if (first == 0 || last + 1 >= timeline.size()) continue;
      // Duration measured absence-to-absence: the window containing both
      // the appear and the disappear transition.
      const double duration =
          frame_at(last + 1).timestamp - frame_at(first - 1).timestamp;
      if (duration >= config_.temporal_threshold) continue;
      for (std::size_t f = first; f <= last; ++f) {
        result.severities[appear_col][frame_at(f).example_index] += 1.0;
        if (!with_corrections) continue;
        for (const auto& [_, r] : records_at(f)) {
          Correction correction;
          correction.kind = CorrectionKind::kRemoveOutput;
          correction.group = group;
          correction.identifier = records[entity.front()].identifier;
          correction.example_index = records[r].example_index;
          correction.timestamp = records[r].timestamp;
          correction.output_index = records[r].output_index;
          result.corrections.push_back(std::move(correction));
        }
      }
    }
  }
  return result;
}

}  // namespace omg::core
