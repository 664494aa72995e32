// Greedy IoU tracker used to assign identifiers to detections across frames.
//
// The paper's consistency API (§4.1, "Video analytics for traffic cameras")
// lacks a globally unique identifier per object, so it assigns a new
// identifier to each box that appears and keeps that identifier while the box
// persists. This tracker implements that association: detections in a new
// frame are greedily matched to live tracks by IoU, unmatched detections
// start new tracks, and tracks unmatched for `max_coast_frames` frames are
// retired.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.hpp"

namespace omg::geometry {

/// Configuration for the IoU tracker.
struct TrackerConfig {
  /// Minimum IoU for a detection to continue an existing track.
  double min_iou = 0.3;
  /// A track survives this many consecutive unmatched frames before retiring.
  std::size_t max_coast_frames = 2;
};

/// Greedy frame-to-frame IoU tracker.
class IouTracker {
 public:
  explicit IouTracker(TrackerConfig config = {});

  /// Associates one frame's detections with live tracks and returns each
  /// detection's track id, in detection order. Call once per frame, in
  /// order. The ids stay valid until the next call on this tracker; the
  /// tracker reuses its buffers across frames.
  std::span<const std::int64_t> Associate(
      std::span<const Detection> detections);

  /// Number of tracks ever created.
  std::int64_t TrackCount() const { return next_track_id_; }

  /// Resets all state (e.g. between videos).
  void Reset();

 private:
  struct Track {
    std::int64_t id;
    Box2D last_box;
    std::size_t frames_since_match;
  };
  // A (track, detection) pair above the matching threshold.
  struct Candidate {
    std::size_t track_index;
    std::size_t det_index;
    double iou;
  };

  TrackerConfig config_;
  std::vector<Track> tracks_;
  std::int64_t next_track_id_ = 0;
  // Per-frame scratch, kept to reuse its capacity.
  std::vector<Candidate> candidates_;
  std::vector<char> track_matched_;
  std::vector<std::int64_t> det_track_;
};

}  // namespace omg::geometry
