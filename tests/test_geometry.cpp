#include <gtest/gtest.h>

#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "geometry/box.hpp"
#include "geometry/tracker.hpp"
#include "reference_tracker.hpp"

namespace omg::geometry {
namespace {

Box2D MakeBox(double x, double y, double w, double h) {
  return Box2D{x, y, x + w, y + h};
}

TEST(Box2D, AreaAndValidity) {
  EXPECT_DOUBLE_EQ(MakeBox(0, 0, 2, 3).Area(), 6.0);
  EXPECT_FALSE(Box2D{}.Valid());
  EXPECT_DOUBLE_EQ((Box2D{5, 5, 5, 5}).Area(), 0.0);
  EXPECT_DOUBLE_EQ((Box2D{5, 5, 4, 6}).Area(), 0.0);  // inverted
}

TEST(Box2D, Center) {
  const Box2D b = MakeBox(0, 0, 4, 2);
  EXPECT_DOUBLE_EQ(b.CenterX(), 2.0);
  EXPECT_DOUBLE_EQ(b.CenterY(), 1.0);
}

TEST(Box2D, Translated) {
  const Box2D b = MakeBox(1, 1, 2, 2).Translated(3, -1);
  EXPECT_DOUBLE_EQ(b.x_min, 4.0);
  EXPECT_DOUBLE_EQ(b.y_min, 0.0);
}

TEST(Box2D, UnionContainsBoth) {
  const Box2D u = MakeBox(0, 0, 1, 1).Union(MakeBox(5, 5, 1, 1));
  EXPECT_DOUBLE_EQ(u.x_min, 0.0);
  EXPECT_DOUBLE_EQ(u.x_max, 6.0);
}

TEST(Iou, IdenticalBoxesIsOne) {
  const Box2D b = MakeBox(1, 2, 3, 4);
  EXPECT_DOUBLE_EQ(Iou(b, b), 1.0);
}

TEST(Iou, DisjointBoxesIsZero) {
  EXPECT_DOUBLE_EQ(Iou(MakeBox(0, 0, 1, 1), MakeBox(2, 2, 1, 1)), 0.0);
}

TEST(Iou, TouchingBoxesIsZero) {
  EXPECT_DOUBLE_EQ(Iou(MakeBox(0, 0, 1, 1), MakeBox(1, 0, 1, 1)), 0.0);
}

TEST(Iou, HalfOverlapHandComputed) {
  // Boxes of area 4, intersection 2 -> IoU = 2/6.
  EXPECT_NEAR(Iou(MakeBox(0, 0, 2, 2), MakeBox(1, 0, 2, 2)), 2.0 / 6.0,
              1e-12);
}

TEST(Iou, SymmetricAndBounded) {
  common::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const Box2D a = MakeBox(rng.Uniform(0, 10), rng.Uniform(0, 10),
                            rng.Uniform(0.1, 5), rng.Uniform(0.1, 5));
    const Box2D b = MakeBox(rng.Uniform(0, 10), rng.Uniform(0, 10),
                            rng.Uniform(0.1, 5), rng.Uniform(0.1, 5));
    const double iou = Iou(a, b);
    EXPECT_DOUBLE_EQ(iou, Iou(b, a));
    EXPECT_GE(iou, 0.0);
    EXPECT_LE(iou, 1.0);
  }
}

TEST(Coverage, ContainedBoxFullyCovered) {
  EXPECT_DOUBLE_EQ(Coverage(MakeBox(1, 1, 1, 1), MakeBox(0, 0, 4, 4)), 1.0);
  EXPECT_DOUBLE_EQ(Coverage(MakeBox(0, 0, 4, 4), MakeBox(1, 1, 1, 1)),
                   1.0 / 16.0);
}

TEST(MeanBox, AveragesCoordinates) {
  const std::vector<Box2D> boxes = {MakeBox(0, 0, 2, 2), MakeBox(2, 2, 2, 2)};
  const Box2D mean = MeanBox(boxes);
  EXPECT_DOUBLE_EQ(mean.x_min, 1.0);
  EXPECT_DOUBLE_EQ(mean.x_max, 3.0);
}

TEST(Camera, CenterProjectsToImageCenter) {
  Camera camera;
  double u, v;
  camera.Project(0.0, 0.0, 10.0, u, v);
  EXPECT_DOUBLE_EQ(u, camera.image_width / 2.0);
  EXPECT_DOUBLE_EQ(v, camera.image_height / 2.0);
}

TEST(Camera, FartherObjectsProjectSmaller) {
  Camera camera;
  Box3D near{0, 0, 10, 2, 2, 4};
  Box3D far{0, 0, 40, 2, 2, 4};
  const Box2D near2 = camera.ProjectBox(near);
  const Box2D far2 = camera.ProjectBox(far);
  EXPECT_GT(near2.Area(), far2.Area());
  EXPECT_GT(far2.Area(), 0.0);
}

TEST(Camera, ObjectBehindCameraIsInvalid) {
  Camera camera;
  EXPECT_FALSE(camera.ProjectBox(Box3D{0, 0, -5, 2, 2, 4}).Valid());
}

TEST(Camera, OffscreenObjectIsInvalid) {
  Camera camera;
  EXPECT_FALSE(camera.ProjectBox(Box3D{1000, 0, 10, 2, 2, 4}).Valid());
}

TEST(Camera, LateralOffsetMovesProjection) {
  Camera camera;
  const Box2D left = camera.ProjectBox(Box3D{-3, 0, 15, 2, 2, 4});
  const Box2D right = camera.ProjectBox(Box3D{3, 0, 15, 2, 2, 4});
  EXPECT_LT(left.CenterX(), right.CenterX());
}

TEST(Camera, ProjectRequiresPositiveDepth) {
  Camera camera;
  double u, v;
  EXPECT_THROW(camera.Project(0, 0, 0.0, u, v), common::CheckError);
}

TEST(Nms, KeepsHighestConfidence) {
  std::vector<Detection> dets;
  dets.push_back({MakeBox(0, 0, 2, 2), "car", 0.6, 0});
  dets.push_back({MakeBox(0.1, 0, 2, 2), "car", 0.9, 1});
  const auto kept = Nms(std::move(dets), 0.5);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0].confidence, 0.9);
}

TEST(Nms, KeepsDisjointBoxes) {
  std::vector<Detection> dets;
  dets.push_back({MakeBox(0, 0, 2, 2), "car", 0.6, 0});
  dets.push_back({MakeBox(10, 10, 2, 2), "car", 0.9, 1});
  EXPECT_EQ(Nms(std::move(dets), 0.5).size(), 2u);
}

TEST(Nms, DifferentLabelsNotSuppressed) {
  std::vector<Detection> dets;
  dets.push_back({MakeBox(0, 0, 2, 2), "car", 0.6, 0});
  dets.push_back({MakeBox(0, 0, 2, 2), "person", 0.9, 1});
  EXPECT_EQ(Nms(std::move(dets), 0.5).size(), 2u);
}

TEST(Nms, OutputSortedByConfidence) {
  std::vector<Detection> dets;
  dets.push_back({MakeBox(0, 0, 2, 2), "car", 0.3, 0});
  dets.push_back({MakeBox(10, 0, 2, 2), "car", 0.9, 1});
  dets.push_back({MakeBox(20, 0, 2, 2), "car", 0.6, 2});
  const auto kept = Nms(std::move(dets), 0.5);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_GE(kept[0].confidence, kept[1].confidence);
  EXPECT_GE(kept[1].confidence, kept[2].confidence);
}

// One frame's track ids, copied out of the tracker's reused buffer.
std::vector<std::int64_t> Track(IouTracker& tracker,
                                std::span<const Detection> detections) {
  const auto ids = tracker.Associate(detections);
  return {ids.begin(), ids.end()};
}

TEST(Tracker, PersistsIdAcrossOverlappingFrames) {
  IouTracker tracker;
  std::vector<Detection> frame1 = {{MakeBox(0, 0, 10, 10), "car", 0.9, 0}};
  std::vector<Detection> frame2 = {{MakeBox(1, 0, 10, 10), "car", 0.9, 0}};
  const auto t1 = Track(tracker, frame1);
  const auto t2 = Track(tracker, frame2);
  ASSERT_EQ(t1.size(), 1u);
  ASSERT_EQ(t2.size(), 1u);
  EXPECT_EQ(t1[0], t2[0]);
}

TEST(Tracker, NewObjectGetsNewId) {
  IouTracker tracker;
  std::vector<Detection> frame1 = {{MakeBox(0, 0, 10, 10), "car", 0.9, 0}};
  std::vector<Detection> frame2 = {
      {MakeBox(1, 0, 10, 10), "car", 0.9, 0},
      {MakeBox(100, 100, 10, 10), "car", 0.9, 1}};
  Track(tracker, frame1);
  const auto t2 = Track(tracker, frame2);
  ASSERT_EQ(t2.size(), 2u);
  EXPECT_NE(t2[0], t2[1]);
}

TEST(Tracker, CoastsThroughShortGap) {
  IouTracker tracker(TrackerConfig{0.3, 2});
  std::vector<Detection> present = {{MakeBox(0, 0, 10, 10), "car", 0.9, 0}};
  std::vector<Detection> empty;
  const auto t1 = Track(tracker, present);
  Track(tracker, empty);  // one-frame gap
  const auto t3 = Track(tracker, present);
  EXPECT_EQ(t1[0], t3[0]);
}

TEST(Tracker, RetiresAfterLongGap) {
  IouTracker tracker(TrackerConfig{0.3, 1});
  std::vector<Detection> present = {{MakeBox(0, 0, 10, 10), "car", 0.9, 0}};
  std::vector<Detection> empty;
  const auto t1 = Track(tracker, present);
  Track(tracker, empty);
  Track(tracker, empty);
  Track(tracker, empty);
  const auto t5 = Track(tracker, present);
  EXPECT_NE(t1[0], t5[0]);
}

TEST(Tracker, GreedyPrefersHigherIou) {
  IouTracker tracker;
  std::vector<Detection> frame1 = {{MakeBox(0, 0, 10, 10), "car", 0.9, 0},
                                   {MakeBox(20, 0, 10, 10), "car", 0.9, 1}};
  const auto t1 = Track(tracker, frame1);
  // Both detections move slightly; association must follow geometry.
  std::vector<Detection> frame2 = {{MakeBox(21, 0, 10, 10), "car", 0.9, 1},
                                   {MakeBox(1, 0, 10, 10), "car", 0.9, 0}};
  const auto t2 = Track(tracker, frame2);
  EXPECT_EQ(t2[0], t1[1]);
  EXPECT_EQ(t2[1], t1[0]);
}

TEST(Tracker, ResetClearsState) {
  IouTracker tracker;
  std::vector<Detection> present = {{MakeBox(0, 0, 10, 10), "car", 0.9, 0}};
  Track(tracker, present);
  tracker.Reset();
  EXPECT_EQ(tracker.TrackCount(), 0);
  const auto t = Track(tracker, present);
  EXPECT_EQ(t[0], 0);
}

// Random frame sequences with exact IoU ties (duplicated boxes), zero-area,
// NaN and infinite boxes, empty frames, tracks coasting past
// max_coast_frames, and resets: Associate() hands out the same ids as the
// reference tracker, frame by frame.
TEST(Tracker, MatchesReferenceOnRandomSequences) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const Box2D odd_boxes[] = {
      {5, 5, 5, 5},           {5, 5, 5, 9},        {kNaN, 0, 10, 10},
      {0, 0, kNaN, kNaN},     {0, 0, kInf, kInf},  {-kInf, -kInf, kInf, kInf},
      {-kInf, 0, 10, 10},     {0, 0, -kInf, 10}};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(seed);
    const double min_ious[] = {0.0, 0.2, 0.3, 0.6};
    const TrackerConfig config{
        min_ious[rng.UniformInt(0, 3)],
        static_cast<std::size_t>(rng.UniformInt(0, 3))};
    IouTracker tracker(config);
    testing::ReferenceIouTracker reference(config);
    // Objects drifting right; boxes snap to a 4-px grid so ties repeat.
    std::vector<Box2D> objects;
    for (int i = rng.UniformInt(1, 6); i > 0; --i) {
      objects.push_back(MakeBox(4.0 * rng.UniformInt(0, 20),
                                4.0 * rng.UniformInt(0, 10),
                                4.0 * rng.UniformInt(1, 5),
                                4.0 * rng.UniformInt(1, 5)));
    }
    for (int frame = 0; frame < 40; ++frame) {
      if (rng.Bernoulli(0.03)) {
        tracker.Reset();
        reference.Reset();
      }
      std::vector<Detection> detections;
      // Gaps of several empty frames outlast max_coast_frames.
      if (!rng.Bernoulli(0.2)) {
        for (auto& box : objects) {
          box = box.Translated(4.0 * rng.UniformInt(0, 2), 0.0);
          if (rng.Bernoulli(0.8)) detections.push_back({box, "car", 0.9, 0});
        }
        for (int extra = rng.UniformInt(0, 3); extra > 0; --extra) {
          if (rng.Bernoulli(0.5) && !detections.empty()) {
            const auto i = rng.UniformInt(
                0, static_cast<std::int64_t>(detections.size()) - 1);
            detections.push_back(detections[static_cast<std::size_t>(i)]);
          } else {
            detections.push_back(
                {odd_boxes[rng.UniformInt(0, 7)], "blob", 0.5, -1});
          }
        }
        rng.Shuffle(detections);
      }
      const std::vector<std::int64_t> want = reference.Update(detections);
      EXPECT_EQ(Track(tracker, detections), want) << "frame " << frame;
      EXPECT_EQ(tracker.TrackCount(), reference.TrackCount());
    }
  }
}

// Property sweep: NMS output never contains two same-label boxes above the
// suppression threshold.
class NmsProperty : public ::testing::TestWithParam<double> {};

TEST_P(NmsProperty, NoResidualOverlap) {
  const double threshold = GetParam();
  common::Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Detection> dets;
    for (int i = 0; i < 25; ++i) {
      dets.push_back({MakeBox(rng.Uniform(0, 50), rng.Uniform(0, 50),
                              rng.Uniform(5, 15), rng.Uniform(5, 15)),
                      "car", rng.Uniform(), i});
    }
    const auto kept = Nms(std::move(dets), threshold);
    for (std::size_t i = 0; i < kept.size(); ++i) {
      for (std::size_t j = i + 1; j < kept.size(); ++j) {
        EXPECT_LE(Iou(kept[i].box, kept[j].box), threshold);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, NmsProperty,
                         ::testing::Values(0.3, 0.5, 0.7));

}  // namespace
}  // namespace omg::geometry
