// Declarative-config + facade registration of the night-street assertions.
//
// Registers the video suite's building blocks with a
// config::AssertionFactory so scenario files (configs/*.conf) can
// instantiate them by name; `[video.multibox, video.consistency]` in that
// order reproduces BuildVideoSuite exactly (tested in tests/test_config.cpp).
// The DomainTraits specialization below makes VideoExample servable through
// the type-erased serve::Monitor facade, and RegisterVideoDomain exposes the
// factory as the facade's "video" domain.
#pragma once

#include <string>
#include <string_view>

#include "config/assertion_factory.hpp"
#include "serve/any_example.hpp"
#include "serve/domain_registry.hpp"
#include "video/assertions.hpp"

namespace omg::serve {

/// Facade identity of VideoExample: domain tag "video"; the severity hint
/// is the frame's detection count (a cheap crowding proxy an upstream
/// producer could compute without scoring).
template <>
struct DomainTraits<video::VideoExample> {
  static constexpr std::string_view kDomain = "video";
  static double SeverityHint(const video::VideoExample& example);
  static std::string DebugString(const video::VideoExample& example);
};

}  // namespace omg::serve

namespace omg::config {
struct SuiteSpec;
}  // namespace omg::config

namespace omg::video {

/// The one parse of the video parameters: `[assertion video.multibox]`
/// and `[assertion video.consistency]` sections into `config`. The factory
/// builders and VideoConfigFromSuite both read through these.
void ReadMultiboxParams(const config::SpecSection& params,
                        VideoAssertionConfig& config);
void ReadConsistencyParams(const config::SpecSection& params,
                           VideoAssertionConfig& config);

/// The VideoAssertionConfig a declarative video suite describes: what
/// BuildVideoSuite needs to score exactly like the factory-built suite
/// (the improvement loop's correction suite, say).
VideoAssertionConfig VideoConfigFromSuite(const config::SuiteSpec& suite);

/// Registers the night-street assertions:
///   * `video.multibox`    { iou }  — the custom triple-overlap assertion
///   * `video.consistency` { temporal_threshold, tracker_iou,
///                           tracker_max_misses } — the consistency source
///     generating `flicker` and `appear` (§4), with its invalidation hook
void RegisterVideoAssertions(config::AssertionFactory<VideoExample>& factory);

/// Registers the "video" domain with the facade registry: erased builders
/// over RegisterVideoAssertions (event names qualified "video/...").
void RegisterVideoDomain(serve::DomainRegistry& registry);

}  // namespace omg::video
