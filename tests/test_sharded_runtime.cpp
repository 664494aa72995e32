// The serving engine: equivalence with batch scoring and the per-example
// reference monitor, bounded-queue admission policies, per-shard metrics,
// registration failures, and concurrent Observe/Flush/hot-swap and blocked
// producers (the TSan job runs this binary).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/assertion.hpp"
#include "core/monitor.hpp"
#include "loop/model_registry.hpp"
#include "nn/mlp.hpp"
#include "runtime/admission.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/sharded_service.hpp"

namespace omg::runtime {
namespace {

struct Tick {
  double value = 0.0;
};

std::vector<Tick> MakeStream(std::uint64_t seed, std::size_t n) {
  common::Rng rng(seed);
  std::vector<Tick> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream.push_back(Tick{rng.Uniform(-2.0, 2.0)});
  }
  return stream;
}

void PopulateSuite(core::AssertionSuite<Tick>& suite) {
  suite.AddPointwise("positive",
                     [](const Tick& t) { return t.value > 1.0 ? t.value : 0.0; });
  suite.AddFunction(
      "rising",
      [](std::span<const Tick> stream) {
        std::vector<double> severities(stream.size(), 0.0);
        for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
          if (stream[i + 1].value > stream[i].value + 1.5) severities[i] = 1.0;
        }
        return severities;
      },
      /*temporal_radius=*/1);
}

using Firing = std::tuple<std::size_t, std::string, double>;

std::vector<Firing> SettledBatchFirings(std::span<const Tick> stream,
                                        std::size_t settle_lag) {
  core::AssertionSuite<Tick> suite;
  PopulateSuite(suite);
  const core::SeverityMatrix matrix = suite.CheckAll(stream);
  const auto names = suite.Names();
  std::vector<Firing> firings;
  if (stream.size() <= settle_lag) return firings;
  for (std::size_t e = 0; e + settle_lag < stream.size(); ++e) {
    for (std::size_t a = 0; a < names.size(); ++a) {
      if (matrix.Fired(e, a)) firings.emplace_back(e, names[a], matrix.At(e, a));
    }
  }
  return firings;
}

/// The per-example reference: the paper's StreamingMonitor fed one example
/// at a time.
std::vector<Firing> ReferenceFirings(const std::vector<Tick>& stream,
                                     std::size_t window,
                                     std::size_t settle_lag) {
  core::AssertionSuite<Tick> suite;
  PopulateSuite(suite);
  core::StreamingMonitor<Tick> monitor(suite, window, settle_lag);
  std::vector<Firing> firings;
  for (const Tick& tick : stream) {
    for (const core::MonitorEvent& event : monitor.Observe(tick)) {
      firings.emplace_back(event.example_index, event.assertion,
                           event.severity);
    }
  }
  return firings;
}

ShardedMonitorService<Tick>::SuiteBundle MakeBundle() {
  auto suite = std::make_shared<core::AssertionSuite<Tick>>();
  PopulateSuite(*suite);
  return {suite, {}};
}

std::vector<Firing> StreamFirings(
    const std::vector<CollectingSink::OwnedEvent>& events,
    std::string_view stream) {
  std::vector<Firing> firings;
  for (const auto& event : events) {
    if (event.stream == stream) {
      firings.emplace_back(event.example_index, event.assertion,
                           event.severity);
    }
  }
  return firings;
}

/// Rendezvous for stalling a shard worker inside an assertion: the worker
/// announces arrival and waits until the test releases it.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool arrived = false;
  bool released = false;
  std::size_t arrivals = 0;  ///< Arrive calls so far

  void Arrive() {
    std::unique_lock<std::mutex> lock(mutex);
    arrived = true;
    ++arrivals;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  }
  void AwaitArrival() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return arrived; });
  }
  std::size_t Arrivals() {
    std::lock_guard<std::mutex> lock(mutex);
    return arrivals;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
};

/// A service whose single shard worker stalls on the value 42 — everything
/// the admission tests queue behind it stays queued until Release().
struct GatedService {
  explicit GatedService(ShardedRuntimeConfig config)
      : gate(std::make_shared<Gate>()),
        sink(std::make_shared<CountingSink>()),
        service(config, [gate = gate] {
          auto suite = std::make_shared<core::AssertionSuite<Tick>>();
          suite->AddPointwise("always", [gate](const Tick& t) {
            if (t.value == 42.0) gate->Arrive();
            return 1.0;  // every scored example emits exactly one event
          });
          return ShardedMonitorService<Tick>::SuiteBundle{suite, {}};
        }) {
    service.AddSink(sink);
    id = service.RegisterStream("only");
  }

  /// Submits the stalling batch and waits until the worker is inside it
  /// (so the queue is empty and admission sees only later batches).
  void StallWorker() {
    service.ObserveBatch(id, {Tick{42.0}});
    gate->AwaitArrival();
  }

  std::shared_ptr<Gate> gate;
  std::shared_ptr<CountingSink> sink;
  ShardedMonitorService<Tick> service;
  StreamId id;
};

ShardedRuntimeConfig SmallQueueConfig(AdmissionPolicy policy) {
  ShardedRuntimeConfig config;
  config.shards = 1;
  config.window = 8;
  config.settle_lag = 0;  // verdicts emit immediately: events == examples
  config.queue_capacity = 2;
  config.admission = policy;
  config.shed_floor = 1.0;
  return config;
}

// ------------------------------------------------------------- equivalence ---

TEST(ShardedService, StreamingEqualsBatchAcrossShardCountsAndBatchSizes) {
  const std::size_t n = 160;
  const std::size_t kStreams = 5;
  const std::size_t settle_lag = 4;

  std::vector<std::vector<Tick>> streams;
  std::vector<std::vector<Firing>> expected;
  for (std::size_t s = 0; s < kStreams; ++s) {
    streams.push_back(MakeStream(100 + s, n));
    expected.push_back(SettledBatchFirings(streams[s], settle_lag));
  }

  for (const std::size_t shards : {1ul, 2ul, 4ul}) {
    for (const std::size_t batch_size : {1ul, 17ul, 64ul}) {
      ShardedRuntimeConfig config;
      config.shards = shards;
      config.window = 32;
      config.settle_lag = settle_lag;
      ShardedMonitorService<Tick> service(config, MakeBundle);
      auto sink = std::make_shared<CollectingSink>();
      service.AddSink(sink);

      std::vector<StreamId> ids;
      for (std::size_t s = 0; s < kStreams; ++s) {
        ids.push_back(service.RegisterStream("stream-" + std::to_string(s)));
      }
      for (std::size_t begin = 0; begin < n; begin += batch_size) {
        const std::size_t count = std::min(batch_size, n - begin);
        for (std::size_t s = 0; s < kStreams; ++s) {
          EXPECT_TRUE(service.ObserveBatch(
              ids[s], std::vector<Tick>(streams[s].begin() + begin,
                                        streams[s].begin() + begin + count)));
        }
      }
      service.Flush();
      EXPECT_TRUE(service.Errors().empty());

      const auto events = sink->Events();
      for (std::size_t s = 0; s < kStreams; ++s) {
        EXPECT_EQ(StreamFirings(events, "stream-" + std::to_string(s)),
                  expected[s])
            << "shards=" << shards << " batch=" << batch_size;
      }
      const MetricsSnapshot snapshot = service.Metrics();
      EXPECT_EQ(snapshot.examples_seen, n * kStreams);
      EXPECT_EQ(snapshot.events, events.size());
      // Per-shard accounting covers exactly the ingested traffic.
      ASSERT_EQ(snapshot.shards.size(), shards);
      std::size_t shard_examples = 0;
      std::size_t shard_batches = 0;
      for (const ShardMetrics& shard : snapshot.shards) {
        shard_examples += shard.examples;
        shard_batches += shard.batches;
        EXPECT_EQ(shard.latency.count(), shard.batches);
        EXPECT_EQ(shard.dropped_examples, 0u);
        EXPECT_EQ(shard.shed_examples, 0u);
        EXPECT_LE(shard.queue_depth_peak, config.queue_capacity);
      }
      EXPECT_EQ(shard_examples, n * kStreams);
      EXPECT_GE(shard_batches, shards == 1 ? 1u : 2u);
    }
  }
}

// -------------------------------------------------------- admission: block ---

TEST(ShardedService, BlockPolicyBlocksProducerUntilSpaceFrees) {
  GatedService gated(SmallQueueConfig(AdmissionPolicy::kBlock));
  gated.StallWorker();
  // Queue is empty (the stalling batch was popped); fill it to capacity.
  EXPECT_TRUE(gated.service.ObserveBatch(gated.id, {Tick{1.0}, Tick{2.0}}));

  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    EXPECT_TRUE(gated.service.ObserveBatch(gated.id, {Tick{3.0}}));
    admitted = true;
  });
  // The producer must be blocked: the queue is at capacity.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());

  gated.gate->Release();
  producer.join();
  EXPECT_TRUE(admitted.load());
  gated.service.Flush();

  const MetricsSnapshot snapshot = gated.service.Metrics();
  EXPECT_EQ(snapshot.examples_seen, 4u);  // nothing lost
  EXPECT_EQ(gated.sink->count(), 4u);
  ASSERT_EQ(snapshot.shards.size(), 1u);
  EXPECT_EQ(snapshot.shards[0].dropped_examples, 0u);
  EXPECT_EQ(snapshot.shards[0].shed_examples, 0u);
  EXPECT_EQ(snapshot.shards[0].queue_depth_peak, 2u);
}

// -------------------------------------------------- admission: drop-oldest ---

TEST(ShardedService, DropOldestEvictsQueueHeadAndCountsIt) {
  GatedService gated(SmallQueueConfig(AdmissionPolicy::kDropOldest));
  gated.StallWorker();
  EXPECT_TRUE(gated.service.ObserveBatch(gated.id, {Tick{1.0}, Tick{2.0}}));
  // Queue full: admitting this drops the 2-example batch ahead of it.
  EXPECT_TRUE(gated.service.ObserveBatch(gated.id, {Tick{3.0}}));

  gated.gate->Release();
  gated.service.Flush();

  const MetricsSnapshot snapshot = gated.service.Metrics();
  ASSERT_EQ(snapshot.shards.size(), 1u);
  EXPECT_EQ(snapshot.shards[0].dropped_batches, 1u);
  EXPECT_EQ(snapshot.shards[0].dropped_examples, 2u);
  EXPECT_EQ(snapshot.shards[0].shed_examples, 0u);
  // Only the stalling example and the last batch were scored, and the drop
  // counters reconcile against what the sink saw: offered = scored + lost.
  EXPECT_EQ(snapshot.examples_seen, 2u);
  EXPECT_EQ(gated.sink->count(), 2u);
  EXPECT_EQ(snapshot.examples_seen + snapshot.TotalDroppedExamples(), 4u);
}

// ------------------------------------------- admission: shed-below-severity ---

TEST(ShardedService, ShedBelowSeverityShedsUnimportantAdmitsImportant) {
  GatedService gated(SmallQueueConfig(AdmissionPolicy::kShedBelowSeverity));
  gated.StallWorker();
  // Fills the queue while it has room — the hint is irrelevant below
  // capacity (shedding is an overload response, not a filter).
  EXPECT_TRUE(gated.service.ObserveBatch(gated.id, {Tick{1.0}, Tick{2.0}},
                                         /*severity_hint=*/0.5));
  // Queue full + below-floor hint: shed, producer not blocked.
  EXPECT_FALSE(gated.service.ObserveBatch(gated.id, {Tick{3.0}},
                                          /*severity_hint=*/0.2));
  // Queue full + at/above-floor hint: admitted by evicting the queued
  // below-floor batch.
  EXPECT_TRUE(gated.service.ObserveBatch(gated.id, {Tick{4.0}},
                                         /*severity_hint=*/3.0));

  gated.gate->Release();
  gated.service.Flush();

  const MetricsSnapshot snapshot = gated.service.Metrics();
  ASSERT_EQ(snapshot.shards.size(), 1u);
  EXPECT_EQ(snapshot.shards[0].shed_batches, 1u);
  EXPECT_EQ(snapshot.shards[0].shed_examples, 1u);
  EXPECT_EQ(snapshot.shards[0].dropped_batches, 1u);
  EXPECT_EQ(snapshot.shards[0].dropped_examples, 2u);
  // Scored: the stalling example + the important batch.
  EXPECT_EQ(snapshot.examples_seen, 2u);
  EXPECT_EQ(gated.sink->count(), 2u);
  EXPECT_EQ(snapshot.examples_seen + snapshot.TotalDroppedExamples() +
                snapshot.TotalShedExamples(),
            5u);
}

TEST(ShardedService, ThrowingAssertionPoisonsBatchAndIsCounted) {
  ShardedRuntimeConfig config;
  config.shards = 2;
  config.window = 8;
  config.settle_lag = 1;
  ShardedMonitorService<Tick> service(config, [] {
    auto suite = std::make_shared<core::AssertionSuite<Tick>>();
    suite->AddPointwise("explode", [](const Tick& t) {
      common::Check(t.value < 9.0, "boom");
      return 0.0;
    });
    return ShardedMonitorService<Tick>::SuiteBundle{suite, {}};
  });
  const StreamId bad = service.RegisterStream("bad");
  const StreamId good = service.RegisterStream("good");
  service.ObserveBatch(bad, {Tick{1.0}, Tick{10.0}});
  service.ObserveBatch(good, {Tick{1.0}, Tick{2.0}, Tick{3.0}});
  service.Flush();

  const auto errors = service.Errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("bad"), std::string::npos);
  const MetricsSnapshot snapshot = service.Metrics();
  EXPECT_EQ(snapshot.streams.at(good).examples_seen, 3u);
  // The poisoned batch lands in the errored counters, so the accounting
  // identity offered == scored + shed + dropped + errored still holds.
  EXPECT_EQ(snapshot.TotalErroredExamples(), 2u);
  EXPECT_EQ(snapshot.examples_seen + snapshot.TotalShedExamples() +
                snapshot.TotalDroppedExamples() +
                snapshot.TotalErroredExamples(),
            5u);
}

// ----------------------------------------------------------------- metrics ---

TEST(ShardedService, LatencyHistogramTracksBatchesAndQuantilesAreOrdered) {
  ShardedRuntimeConfig config;
  config.shards = 2;
  config.window = 16;
  config.settle_lag = 2;
  ShardedMonitorService<Tick> service(config, MakeBundle);
  const StreamId a = service.RegisterStream("a");
  const StreamId b = service.RegisterStream("b");
  const auto stream = MakeStream(7, 200);
  for (std::size_t begin = 0; begin < 200; begin += 20) {
    std::vector<Tick> batch(stream.begin() + begin, stream.begin() + begin + 20);
    service.ObserveBatch(a, batch);
    service.ObserveBatch(b, std::move(batch));
  }
  service.Flush();

  const MetricsSnapshot snapshot = service.Metrics();
  ASSERT_EQ(snapshot.shards.size(), 2u);
  for (const ShardMetrics& shard : snapshot.shards) {
    EXPECT_EQ(shard.latency.count(), shard.batches);
    EXPECT_GT(shard.latency.count(), 0u);
    const double p50 = shard.latency.Quantile(0.50);
    const double p95 = shard.latency.Quantile(0.95);
    const double p99 = shard.latency.Quantile(0.99);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, shard.latency.max_seconds());
    EXPECT_GE(p50, shard.latency.min_seconds());
  }
  const LatencyHistogram merged = snapshot.MergedLatency();
  EXPECT_EQ(merged.count(),
            snapshot.shards[0].batches + snapshot.shards[1].batches);
}

TEST(LatencyHistogramTest, QuantilesResolveOnSyntheticDistribution) {
  // A known mix spanning three octaves. The original octave-only buckets
  // could not separate p95 from p99 here — both overshot inside a coarse
  // tail bucket and clamped to max; the 1/8-octave sub-buckets pin each
  // quantile to its own mode within ~12.5% relative error.
  LatencyHistogram histogram;
  for (int i = 0; i < 50; ++i) histogram.Record(0.001);  // ranks 1..50
  for (int i = 0; i < 45; ++i) histogram.Record(0.008);  // ranks 51..95
  for (int i = 0; i < 4; ++i) histogram.Record(0.032);   // ranks 96..99
  histogram.Record(0.128);                               // rank 100

  const double p50 = histogram.Quantile(0.50);
  const double p95 = histogram.Quantile(0.95);
  const double p99 = histogram.Quantile(0.99);
  EXPECT_NEAR(p50, 0.001, 0.001 * 0.13);
  EXPECT_NEAR(p95, 0.008, 0.008 * 0.13);
  EXPECT_NEAR(p99, 0.032, 0.032 * 0.13);
  // The regression this pins: distinct tail modes must yield distinct
  // quantiles, none stuck at the distribution max.
  EXPECT_LT(p50, p95);
  EXPECT_LT(p95, p99);
  EXPECT_LT(p99, histogram.max_seconds());
  EXPECT_NEAR(histogram.Quantile(1.0), 0.128, 0.128 * 0.13);
  EXPECT_EQ(histogram.min_seconds(), 0.001);
  EXPECT_EQ(histogram.max_seconds(), 0.128);
}

// ------------------------------------------------- admission: latency SLO ---

TEST(ShardedService, LatencyTargetShedsProjectedOverloadAdmitsImportant) {
  ShardedRuntimeConfig config;
  config.shards = 1;
  config.window = 8;
  config.settle_lag = 0;
  config.queue_capacity = 1024;
  config.admission = AdmissionPolicy::kLatencyTarget;
  config.shed_floor = 0.5;
  // Any queued work projects past a 1ns-scale target once the shard has
  // measured its service rate — so post-warmup, below-floor work sheds.
  config.latency_target_ms = 1e-6;
  ShardedMonitorService<Tick> service(config, MakeBundle);
  const StreamId id = service.RegisterStream("only");

  // Before the first scored batch there is no rate estimate: everything
  // is admitted, whatever its severity.
  EXPECT_TRUE(service.ObserveBatch(id, {Tick{0.1}, Tick{0.2}},
                                   /*severity_hint=*/0.0));
  service.Flush();

  // Now the EWMA is primed; a below-floor batch projects over target and
  // sheds, an at-floor batch bypasses the estimate entirely.
  EXPECT_FALSE(service.ObserveBatch(id, {Tick{0.3}, Tick{0.4}, Tick{0.5}},
                                    /*severity_hint=*/0.0));
  EXPECT_TRUE(service.ObserveBatch(id, {Tick{0.6}},
                                   /*severity_hint=*/0.5));
  service.Flush();

  const MetricsSnapshot snapshot = service.Metrics();
  EXPECT_EQ(snapshot.examples_seen, 3u);
  EXPECT_EQ(snapshot.TotalShedExamples(), 3u);
  EXPECT_EQ(snapshot.TotalDroppedExamples(), 0u);
  EXPECT_EQ(snapshot.examples_seen + snapshot.TotalShedExamples() +
                snapshot.TotalDroppedExamples() +
                snapshot.TotalErroredExamples(),
            6u);
}

TEST(ShardedService, LatencyTargetGenerousSloAdmitsEverything) {
  ShardedRuntimeConfig config;
  config.shards = 1;
  config.window = 8;
  config.settle_lag = 0;
  config.queue_capacity = 1024;
  config.admission = AdmissionPolicy::kLatencyTarget;
  config.shed_floor = 0.5;
  config.latency_target_ms = 60'000.0;  // a minute: nothing projects past
  ShardedMonitorService<Tick> service(config, MakeBundle);
  const StreamId id = service.RegisterStream("only");
  for (int round = 0; round < 20; ++round) {
    EXPECT_TRUE(service.ObserveBatch(id, {Tick{0.1}, Tick{0.2}},
                                     /*severity_hint=*/0.0));
  }
  service.Flush();
  const MetricsSnapshot snapshot = service.Metrics();
  EXPECT_EQ(snapshot.examples_seen, 40u);
  EXPECT_EQ(snapshot.TotalShedExamples(), 0u);
}

// -------------------------------------------------------------- validation ---

TEST(ShardedService, ValidatesConfigAndInputs) {
  const auto make = MakeBundle;
  ShardedRuntimeConfig bad;
  bad.shards = 0;
  try {
    ShardedMonitorService<Tick> service(bad, make);
    FAIL() << "shards == 0 must be rejected";
  } catch (const common::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("shards must be >= 1"),
              std::string::npos);
  }
  bad = {};
  bad.queue_capacity = 0;
  EXPECT_THROW(ShardedMonitorService<Tick>(bad, make), common::CheckError);
  bad = {};
  bad.settle_lag = bad.window;
  EXPECT_THROW(ShardedMonitorService<Tick>(bad, make), common::CheckError);
  bad = {};
  bad.shed_floor = -1.0;
  EXPECT_THROW(ShardedMonitorService<Tick>(bad, make), common::CheckError);
  bad = {};
  bad.window = 0;
  bad.settle_lag = 0;
  try {
    ShardedMonitorService<Tick> service(bad, make);
    FAIL() << "window == 0 must be rejected";
  } catch (const common::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("window must be >= 1"),
              std::string::npos);
  }

  ShardedRuntimeConfig config;
  config.queue_capacity = 4;
  ShardedMonitorService<Tick> service(config, make);
  EXPECT_THROW(service.Observe(0, Tick{}), common::CheckError);
  EXPECT_THROW(service.AddSink(nullptr), common::CheckError);
  const StreamId id = service.RegisterStream("s");
  EXPECT_THROW(service.ObserveBatch(id, std::vector<Tick>(5)),
               common::CheckError);  // batch larger than the queue
}

TEST(ShardedService, RejectsReRegisteringAStreamName) {
  ShardedRuntimeConfig config;
  config.shards = 2;
  ShardedMonitorService<Tick> service(config, MakeBundle);
  const StreamId id = service.RegisterStream("cam-0");
  EXPECT_THROW(service.RegisterStream("cam-0"), common::CheckError);
  // The failed registration must not corrupt the service: the original
  // stream still ingests, and new names still register.
  const StreamId other = service.RegisterStream("cam-1");
  EXPECT_NE(id, other);
  service.ObserveBatch(id, {Tick{0.1}, Tick{0.2}});
  service.ObserveBatch(other, {Tick{0.3}});
  service.Flush();
  EXPECT_TRUE(service.Errors().empty());
  EXPECT_EQ(service.Metrics().streams.at(id).examples_seen, 2u);
  EXPECT_EQ(service.Metrics().streams.at(other).examples_seen, 1u);
}

TEST(ShardedService, RejectedBundleLeavesNoTrace) {
  // A bundle is vetted and its scorer built before the registry or the
  // metrics see the stream name, so a rejected registration leaves nothing
  // behind: later streams get consistent ids and score normally.
  ShardedRuntimeConfig config;
  config.shards = 2;
  config.window = 32;
  config.settle_lag = 4;
  ShardedMonitorService<Tick> service(config, MakeBundle);
  EXPECT_THROW(service.RegisterStream("null-suite", {}), common::CheckError);
  auto throwing = MakeBundle();
  throwing.scorer = [](const StreamScorerParams&)
      -> std::unique_ptr<StreamScorer<Tick>> {
    common::Check(false, "scorer factory failed");
    return nullptr;
  };
  EXPECT_THROW(service.RegisterStream("throwing-scorer", throwing),
               common::CheckError);
  auto null_scorer = MakeBundle();
  null_scorer.scorer = [](const StreamScorerParams&) {
    return std::unique_ptr<StreamScorer<Tick>>();
  };
  EXPECT_THROW(service.RegisterStream("null-scorer", null_scorer),
               common::CheckError);
  EXPECT_EQ(service.registry().size(), 0u);
  EXPECT_TRUE(service.Metrics().streams.empty());

  auto sink = std::make_shared<CollectingSink>();
  service.AddSink(sink);
  const StreamId good = service.RegisterStream("good");
  const StreamId retry = service.RegisterStream("null-suite");  // name free
  EXPECT_EQ(good, 0u);
  EXPECT_EQ(retry, 1u);
  const auto stream = MakeStream(7, 60);
  service.ObserveBatch(good, stream);
  service.ObserveBatch(retry, stream);
  service.Flush();
  EXPECT_TRUE(service.Errors().empty());
  const auto events = sink->Events();
  EXPECT_EQ(StreamFirings(events, "good"), SettledBatchFirings(stream, 4));
  EXPECT_EQ(StreamFirings(events, "null-suite"),
            SettledBatchFirings(stream, 4));
  EXPECT_EQ(service.Metrics().examples_seen, 120u);
}

TEST(AdmissionPolicyNames, RoundTrip) {
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kBlock, AdmissionPolicy::kDropOldest,
        AdmissionPolicy::kShedBelowSeverity}) {
    EXPECT_EQ(ParseAdmissionPolicy(AdmissionPolicyName(policy)), policy);
  }
  EXPECT_THROW(ParseAdmissionPolicy("nope"), common::CheckError);
}

// ---------------------------------------------- concurrency (TSan coverage) ---

TEST(ShardedService, ConcurrentObserveFlushAndHotSwapAreSafe) {
  // Producers observe while the main thread flushes and a trainer thread
  // hot-swaps model versions the per-stream suites read — the sharded
  // analogue of the improvement loop's serve-while-retraining regime.
  auto registry = std::make_shared<loop::ModelRegistry>();
  {
    common::Rng rng(3);
    registry->Publish(nn::Mlp({1, {}, 2}, rng));
  }

  ShardedRuntimeConfig config;
  config.shards = 4;
  config.window = 16;
  config.settle_lag = 2;
  config.queue_capacity = 64;
  config.admission = AdmissionPolicy::kShedBelowSeverity;
  config.shed_floor = 0.5;
  ShardedMonitorService<Tick> service(config, [registry] {
    auto suite = std::make_shared<core::AssertionSuite<Tick>>();
    suite->AddPointwise("uncertain", [registry](const Tick& t) {
      const loop::ModelHandle handle = registry->Current();
      const double features[] = {t.value};
      const double confidence = handle.model->Confidence(features);
      return confidence < 0.75 ? 1.0 - confidence : 0.0;
    });
    return ShardedMonitorService<Tick>::SuiteBundle{suite, {}};
  });
  auto counting = std::make_shared<CountingSink>();
  service.AddSink(counting);

  const std::size_t kStreams = 8;
  std::vector<StreamId> ids;
  for (std::size_t s = 0; s < kStreams; ++s) {
    ids.push_back(service.RegisterStream("hot-" + std::to_string(s)));
  }

  std::atomic<bool> stop_swapping{false};
  std::thread trainer([&] {
    common::Rng rng(17);
    while (!stop_swapping.load()) {
      registry->Publish(nn::Mlp({1, {}, 2}, rng));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      const auto stream = MakeStream(900 + p, 600);
      for (std::size_t begin = 0; begin < 600; begin += 20) {
        for (std::size_t s = p; s < kStreams; s += 2) {
          service.ObserveBatch(
              ids[s],
              std::vector<Tick>(stream.begin() + begin,
                                stream.begin() + begin + 20),
              /*severity_hint=*/begin % 3 == 0 ? 1.0 : 0.1);
        }
      }
    });
  }
  for (int i = 0; i < 10; ++i) service.Flush();
  for (auto& producer : producers) producer.join();
  service.Flush();
  stop_swapping = true;
  trainer.join();

  EXPECT_TRUE(service.Errors().empty());
  const MetricsSnapshot snapshot = service.Metrics();
  // Everything admitted was scored exactly once, and losses reconcile with
  // the offered total.
  std::size_t scored = 0;
  for (const ShardMetrics& shard : snapshot.shards) {
    scored += shard.examples;
    EXPECT_LE(shard.queue_depth_peak, config.queue_capacity);
  }
  EXPECT_EQ(scored, snapshot.examples_seen);
  EXPECT_EQ(snapshot.examples_seen + snapshot.TotalShedExamples() +
                snapshot.TotalDroppedExamples(),
            2 * (600 / 20) * (kStreams / 2) * 20);
  EXPECT_EQ(snapshot.events, counting->count());
}

TEST(ShardedService, BlockedConcurrentProducersMatchTheReference) {
  // Four producers feed eight streams under kBlock with queues two batches
  // deep. Each stream's flags must equal the per-example reference
  // monitor's: blocking admission, concurrent producers and stealing change
  // scheduling, never verdicts. Without stealing, a gate holds every shard
  // worker on its first batch until each producer sits in ObserveBatch on
  // a full queue, so producers provably block; with stealing the same
  // traffic runs unheld.
  const std::size_t n = 400;
  const std::size_t kStreams = 8;
  const std::size_t kProducers = 4;
  const std::size_t kShards = 4;
  const std::size_t kBatch = 25;
  const std::size_t window = 32;
  const std::size_t settle_lag = 4;
  std::vector<std::vector<Tick>> streams;
  std::vector<std::vector<Firing>> expected;
  for (std::size_t s = 0; s < kStreams; ++s) {
    streams.push_back(MakeStream(500 + s, n));
    expected.push_back(ReferenceFirings(streams[s], window, settle_lag));
    ASSERT_EQ(expected.back(), SettledBatchFirings(streams[s], settle_lag));
  }

  for (const bool stealing : {false, true}) {
    ShardedRuntimeConfig config;
    config.shards = kShards;
    config.window = window;
    config.settle_lag = settle_lag;
    config.queue_capacity = 2 * kBatch;
    config.admission = AdmissionPolicy::kBlock;
    config.stealing = stealing;
    auto gate = std::make_shared<Gate>();
    if (stealing) gate->Release();
    ShardedMonitorService<Tick> service(config, [gate] {
      auto suite = std::make_shared<core::AssertionSuite<Tick>>();
      PopulateSuite(*suite);
      suite->AddPointwise("gate", [gate](const Tick&) {
        gate->Arrive();  // returns at once after Release()
        return 0.0;      // never fires
      });
      return ShardedMonitorService<Tick>::SuiteBundle{suite, {}};
    });
    auto counting = std::make_shared<CountingSink>();
    auto collecting = std::make_shared<CollectingSink>();
    service.AddSink(counting);
    service.AddSink(collecting);
    std::vector<StreamId> ids;
    for (std::size_t s = 0; s < kStreams; ++s) {
      ids.push_back(service.RegisterStream("p-" + std::to_string(s)));
    }

    // Per producer: inside ObserveBatch, and into which shard; per shard:
    // examples whose ObserveBatch returned.
    std::array<std::atomic<bool>, kProducers> observing{};
    std::array<std::atomic<std::size_t>, kProducers> target{};
    std::array<std::atomic<std::size_t>, kShards> admitted{};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t begin = 0; begin < n; begin += kBatch) {
          for (const std::size_t s : {2 * p, 2 * p + 1}) {
            target[p] = s % kShards;
            observing[p] = true;
            service.ObserveBatch(
                ids[s], std::vector<Tick>(streams[s].begin() + begin,
                                          streams[s].begin() + begin + kBatch));
            observing[p] = false;
            admitted[s % kShards] += kBatch;
          }
        }
      });
    }
    if (!stealing) {
      // Once every worker holds exactly one batch at the gate, a shard's
      // queue holds admitted - kBatch examples and only grows, so it has no
      // room for another batch once admitted > capacity; a producer
      // observing into such a shard is blocked. `admitted` may lag, which
      // only delays the verdict.
      const auto all_blocked = [&] {
        if (gate->Arrivals() < kShards) return false;
        for (std::size_t p = 0; p < kProducers; ++p) {
          if (!observing[p] || admitted[target[p]] <= config.queue_capacity) {
            return false;
          }
        }
        return true;
      };
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      bool blocked = false;
      while (!(blocked = all_blocked()) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      gate->Release();
      EXPECT_TRUE(blocked) << "producers never blocked on a full queue";
    }
    for (auto& producer : producers) producer.join();
    service.Flush();
    EXPECT_TRUE(service.Errors().empty());

    const MetricsSnapshot snapshot = service.Metrics();
    EXPECT_EQ(snapshot.examples_seen, n * kStreams);
    EXPECT_EQ(snapshot.TotalShedExamples() + snapshot.TotalDroppedExamples(),
              0u);
    for (const ShardMetrics& shard : snapshot.shards) {
      EXPECT_LE(shard.queue_depth_peak, config.queue_capacity);
    }
    EXPECT_EQ(counting->count(), snapshot.events);
    const auto events = collecting->Events();
    std::size_t total = 0;
    for (std::size_t s = 0; s < kStreams; ++s) {
      const auto got = StreamFirings(events, "p-" + std::to_string(s));
      EXPECT_EQ(got, expected[s]) << "stealing=" << stealing << " stream=" << s;
      total += got.size();
    }
    EXPECT_EQ(total, snapshot.events);
  }
}

}  // namespace
}  // namespace omg::runtime
