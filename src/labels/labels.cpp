#include "labels/labels.hpp"

#include <map>

#include "common/check.hpp"
#include "core/consistency.hpp"

namespace omg::labels {

using common::Check;

AnnotatorSim::AnnotatorSim(AnnotatorConfig config, std::uint64_t seed)
    : config_(std::move(config)), rng_(seed) {
  Check(config_.classes.size() == config_.class_priors.size(),
        "classes/priors size mismatch");
  Check(config_.classes.size() >= 2, "need at least two classes");
}

std::string AnnotatorSim::SampleClass() {
  return config_.classes[rng_.Categorical(config_.class_priors)];
}

std::string AnnotatorSim::TrueClassOf(std::int64_t truth_id) {
  const auto it = true_class_.find(truth_id);
  if (it != true_class_.end()) return it->second;
  const std::string sampled = SampleClass();
  true_class_[truth_id] = sampled;
  return sampled;
}

std::vector<LabeledFrame> AnnotatorSim::LabelFrames(
    std::span<const video::Frame> frames) {
  std::vector<LabeledFrame> out;
  out.reserve(frames.size());
  for (const auto& frame : frames) {
    LabeledFrame labeled;
    labeled.frame_index = frame.index;
    labeled.timestamp = frame.timestamp;
    for (std::size_t t = 0; t < frame.truths.size(); ++t) {
      HumanLabel label;
      label.box = frame.truths[t].box;
      label.truth_id = frame.truth_ids[t];
      label.true_class = TrueClassOf(label.truth_id);

      // Consistent confusion: decided once per object, applied always.
      auto consistent = consistent_label_.find(label.truth_id);
      if (consistent == consistent_label_.end()) {
        std::string assigned = label.true_class;
        if (rng_.Bernoulli(config_.consistent_confusion_rate)) {
          do {
            assigned = config_.classes[static_cast<std::size_t>(
                rng_.UniformInt(
                    0,
                    static_cast<std::int64_t>(config_.classes.size()) - 1))];
          } while (assigned == label.true_class);
        }
        consistent =
            consistent_label_.emplace(label.truth_id, assigned).first;
      }
      label.labeled_class = consistent->second;

      // Random per-frame slip on top.
      if (rng_.Bernoulli(config_.random_error_rate)) {
        std::string slipped;
        do {
          slipped = config_.classes[static_cast<std::size_t>(
              rng_.UniformInt(
                  0,
                  static_cast<std::int64_t>(config_.classes.size()) - 1))];
        } while (slipped == label.labeled_class);
        label.labeled_class = slipped;
      }
      labeled.labels.push_back(std::move(label));
    }
    out.push_back(std::move(labeled));
  }
  return out;
}

LabelValidationReport ValidateLabels(
    std::span<const LabeledFrame> frames,
    const geometry::TrackerConfig& tracker_config) {
  LabelValidationReport report;

  // Track the labeled boxes across frames; the human plays the role of the
  // "ML model" whose outputs the assertion checks (§2.3).
  geometry::IouTracker tracker(tracker_config);
  std::vector<core::ConsistencyFrame> cframes;
  std::vector<core::ConsistencyRecord> records;
  std::vector<bool> record_is_error;
  for (std::size_t e = 0; e < frames.size(); ++e) {
    cframes.push_back(
        core::ConsistencyFrame{e, frames[e].timestamp, "video"});
    std::vector<geometry::Detection> detections;
    for (const auto& label : frames[e].labels) {
      geometry::Detection det;
      det.box = label.box;
      det.label = label.labeled_class;
      det.confidence = 1.0;  // human labels carry full confidence
      detections.push_back(std::move(det));
    }
    // The tracker matches on geometry only, so a class change does not
    // break the track (that is exactly what we want to catch).
    const auto track_ids = tracker.Associate(detections);
    for (std::size_t d = 0; d < track_ids.size(); ++d) {
      core::ConsistencyRecord record;
      record.example_index = e;
      record.output_index = static_cast<std::int64_t>(d);
      record.timestamp = frames[e].timestamp;
      record.group = "video";
      record.identifier = "track-" + std::to_string(track_ids[d]);
      record.attributes.emplace_back("class",
                                     frames[e].labels[d].labeled_class);
      records.push_back(std::move(record));
      record_is_error.push_back(frames[e].labels[d].labeled_class !=
                                frames[e].labels[d].true_class);
      ++report.total_labels;
      if (record_is_error.back()) ++report.errors;
    }
  }

  core::ConsistencyConfig config;
  config.attribute_keys = {"class"};
  const core::ConsistencyEngine engine(config);
  const core::ConsistencyResult result =
      engine.Analyze(cframes, records, frames.size());

  // A caught error is an erroneous label that received a set-attribute
  // correction proposing a different class.
  for (const auto& correction : result.corrections) {
    if (correction.kind != core::CorrectionKind::kSetAttribute) continue;
    for (std::size_t r = 0; r < records.size(); ++r) {
      if (records[r].example_index == correction.example_index &&
          records[r].output_index == correction.output_index &&
          record_is_error[r]) {
        ++report.errors_caught;
        break;
      }
    }
  }
  return report;
}

}  // namespace omg::labels
