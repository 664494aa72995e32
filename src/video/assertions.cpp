#include "video/assertions.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <string>
#include <string_view>

namespace omg::video {

double MultiboxSeverity(std::span<const geometry::Detection> detections,
                        double iou) {
  const std::size_t n = detections.size();
  double triples = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (geometry::Iou(detections[i].box, detections[j].box) <= iou) {
        continue;
      }
      for (std::size_t k = j + 1; k < n; ++k) {
        if (geometry::Iou(detections[i].box, detections[k].box) > iou &&
            geometry::Iou(detections[j].box, detections[k].box) > iou) {
          triples += 1.0;
        }
      }
    }
  }
  return triples;
}

core::ConsistencyExtraction ExtractVideoRecords(
    std::span<const VideoExample> examples,
    const geometry::TrackerConfig& tracker_config) {
  core::ConsistencyExtraction extraction;
  extraction.frames.reserve(examples.size());
  std::size_t num_records = 0;
  for (const auto& example : examples) {
    num_records += example.detections.size();
  }
  extraction.records.resize(num_records);
  // The identifier "track-<id>" is written in place; with one class there
  // are no attributes (the configured key list is empty, §4.1).
  constexpr std::string_view kPrefix = "track-";
  char identifier[kPrefix.size() + 20];
  std::ranges::copy(kPrefix, identifier);
  geometry::IouTracker tracker(tracker_config);
  auto record = extraction.records.begin();
  for (std::size_t e = 0; e < examples.size(); ++e) {
    extraction.frames.push_back(
        core::ConsistencyFrame{e, examples[e].timestamp, "video"});
    const auto ids = tracker.Associate(examples[e].detections);
    for (std::size_t d = 0; d < ids.size(); ++d, ++record) {
      record->example_index = e;
      record->output_index = static_cast<std::int64_t>(d);
      record->timestamp = examples[e].timestamp;
      record->group = "video";
      const auto end = std::to_chars(identifier + kPrefix.size(),
                                     std::end(identifier), ids[d]).ptr;
      record->identifier.assign(identifier, end);
    }
  }
  return extraction;
}

VideoSuite BuildVideoSuite(const VideoAssertionConfig& config) {
  VideoSuite built;
  built.suite.AddPointwise(
      "multibox", [iou = config.multibox_iou](const VideoExample& example) {
        return MultiboxSeverity(example.detections, iou);
      });

  core::ConsistencyConfig consistency;
  consistency.temporal_threshold = config.temporal_threshold;
  // No attribute keys: with one class the generated columns are exactly
  // {flicker, appear}.
  built.consistency = core::AddConsistencyAssertion<VideoExample>(
      built.suite, consistency,
      [tracker = config.tracker](std::span<const VideoExample> examples) {
        return ExtractVideoRecords(examples, tracker);
      });
  built.multibox_index = 0;
  built.flicker_index = built.suite.IndexOf("flicker");
  built.appear_index = built.suite.IndexOf("appear");
  return built;
}

}  // namespace omg::video
