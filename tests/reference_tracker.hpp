// The greedy IoU tracker as first written: it allocates its candidate and
// match buffers on every frame and keeps each track's label.
// Kept as the reference that `geometry::IouTracker` (test_geometry.cpp) and
// the video extractor built on it (test_video.cpp) must match id for id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/tracker.hpp"

namespace omg::testing {

class ReferenceIouTracker {
 public:
  explicit ReferenceIouTracker(geometry::TrackerConfig config)
      : config_(config) {}

  // Each detection's track id, in detection order.
  std::vector<std::int64_t> Update(
      std::span<const geometry::Detection> detections) {
    struct Candidate {
      std::size_t track_index;
      std::size_t det_index;
      double iou;
    };
    std::vector<Candidate> candidates;
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
      for (std::size_t d = 0; d < detections.size(); ++d) {
        const double iou = geometry::Iou(tracks_[t].last_box, detections[d].box);
        if (iou >= config_.min_iou) candidates.push_back({t, d, iou});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.iou > b.iou;
              });

    std::vector<bool> track_matched(tracks_.size(), false);
    std::vector<std::int64_t> det_track(detections.size(), -1);
    for (const auto& c : candidates) {
      if (track_matched[c.track_index] || det_track[c.det_index] != -1) {
        continue;
      }
      track_matched[c.track_index] = true;
      det_track[c.det_index] = tracks_[c.track_index].id;
      tracks_[c.track_index].last_box = detections[c.det_index].box;
      tracks_[c.track_index].label = detections[c.det_index].label;
      tracks_[c.track_index].frames_since_match = 0;
    }

    for (std::size_t d = 0; d < detections.size(); ++d) {
      if (det_track[d] == -1) {
        tracks_.push_back(Track{next_track_id_, detections[d].box,
                                detections[d].label, 0});
        det_track[d] = next_track_id_;
        ++next_track_id_;
      }
    }

    for (std::size_t t = 0; t < track_matched.size(); ++t) {
      if (!track_matched[t]) ++tracks_[t].frames_since_match;
    }
    std::erase_if(tracks_, [this](const Track& track) {
      return track.frames_since_match > config_.max_coast_frames;
    });
    return det_track;
  }

  std::int64_t TrackCount() const { return next_track_id_; }

  void Reset() {
    tracks_.clear();
    next_track_id_ = 0;
  }

 private:
  struct Track {
    std::int64_t id;
    geometry::Box2D last_box;
    std::string label;
    std::size_t frames_since_match;
  };

  geometry::TrackerConfig config_;
  std::vector<Track> tracks_;
  std::int64_t next_track_id_ = 0;
};

}  // namespace omg::testing
