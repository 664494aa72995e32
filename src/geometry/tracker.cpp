#include "geometry/tracker.hpp"

#include <algorithm>

namespace omg::geometry {

IouTracker::IouTracker(TrackerConfig config) : config_(config) {}

std::span<const std::int64_t> IouTracker::Associate(
    std::span<const Detection> detections) {
  candidates_.clear();
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    for (std::size_t d = 0; d < detections.size(); ++d) {
      const double iou = Iou(tracks_[t].last_box, detections[d].box);
      if (iou >= config_.min_iou) candidates_.push_back({t, d, iou});
    }
  }
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.iou > b.iou;
            });

  track_matched_.assign(tracks_.size(), 0);
  det_track_.assign(detections.size(), -1);
  for (const auto& c : candidates_) {
    if (track_matched_[c.track_index] || det_track_[c.det_index] != -1) {
      continue;
    }
    track_matched_[c.track_index] = 1;
    det_track_[c.det_index] = tracks_[c.track_index].id;
    tracks_[c.track_index].last_box = detections[c.det_index].box;
    tracks_[c.track_index].frames_since_match = 0;
  }

  // Age unmatched tracks, then unmatched detections start new tracks.
  for (std::size_t t = 0; t < track_matched_.size(); ++t) {
    if (!track_matched_[t]) ++tracks_[t].frames_since_match;
  }
  for (std::size_t d = 0; d < detections.size(); ++d) {
    if (det_track_[d] != -1) continue;
    tracks_.push_back(Track{next_track_id_, detections[d].box, 0});
    det_track_[d] = next_track_id_++;
  }

  // Retire the stale tracks.
  std::erase_if(tracks_, [this](const Track& track) {
    return track.frames_since_match > config_.max_coast_frames;
  });
  return det_track_;
}

void IouTracker::Reset() {
  tracks_.clear();
  next_track_id_ = 0;
}

}  // namespace omg::geometry
