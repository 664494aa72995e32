// Tests for the benchmark's measurement rules (perfbench/src/ledger.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "ledger.hpp"

namespace perfbench {
namespace {

TEST(TriggerBatch, IsTheBatchCarryingIndexPlusSettleLag) {
  // Batches of 32, settle lag 8, a 320-example stream (10 batches).
  EXPECT_EQ(TriggerBatch(0, 8, 320, 32), 0u);    // example 8: batch 0
  EXPECT_EQ(TriggerBatch(23, 8, 320, 32), 0u);   // example 31: batch 0
  EXPECT_EQ(TriggerBatch(24, 8, 320, 32), 1u);   // example 32: batch 1
  EXPECT_EQ(TriggerBatch(100, 8, 320, 32), 3u);  // example 108: batch 3
}

TEST(TriggerBatch, ClipsAtTheStreamsLastBatch) {
  // Example 315 + 8 = 323 is past the end: the verdict settles with the
  // last batch the stream ever sends.
  EXPECT_EQ(TriggerBatch(315, 8, 320, 32), 9u);
  EXPECT_EQ(TriggerBatch(319, 8, 320, 32), 9u);
}

TEST(TriggerBatch, ZeroSettleLagIsTheExamplesOwnBatch) {
  EXPECT_EQ(TriggerBatch(0, 0, 128, 64), 0u);
  EXPECT_EQ(TriggerBatch(63, 0, 128, 64), 0u);
  EXPECT_EQ(TriggerBatch(64, 0, 128, 64), 1u);
}

TEST(QuantileOf, CarriesItsSampleCount) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  const Quantile p50 = QuantileOf(values, 0.50);
  const Quantile p99 = QuantileOf(values, 0.99);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p99.samples, 100u);
  EXPECT_DOUBLE_EQ(p50.value, 50.0);  // nearest rank
  EXPECT_DOUBLE_EQ(p99.value, 99.0);
  EXPECT_DOUBLE_EQ(QuantileOf(values, 1.0).value, 100.0);
  EXPECT_DOUBLE_EQ(QuantileOf(values, 0.0).value, 1.0);
}

TEST(QuantileOf, EmptyInputHasNoSamples) {
  const Quantile q = QuantileOf({}, 0.99);
  EXPECT_EQ(q.samples, 0u);
  EXPECT_DOUBLE_EQ(q.value, 0.0);
}

TEST(UnstolenSamples, LeavesOutStolenWindowsAndTheOneAfter) {
  const std::vector<std::vector<double>> windows = {
      {1.0, 1.0}, {9.0}, {8.0}, {2.0, 2.0}, {3.0}};
  const std::vector<double> stolen = {0.0, 10.0, 0.0, 0.0, 0.0};
  bool clean_only = false;
  std::size_t clean_windows = 0;
  const std::vector<double> samples =
      UnstolenSamples(windows, stolen, 0.5, clean_only, clean_windows);
  EXPECT_TRUE(clean_only);
  EXPECT_EQ(clean_windows, 3u);  // windows 0, 3 and 4
  EXPECT_EQ(samples, (std::vector<double>{1.0, 1.0, 2.0, 2.0, 3.0}));
  const Quantile p50 = QuantileOf(samples, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 2.0);
  EXPECT_EQ(p50.samples, 5u);
}

TEST(UnstolenSamples, UsesEverySampleWhenTooFewWindowsAreClean) {
  const std::vector<std::vector<double>> windows = {{1.0}, {2.0}, {3.0}};
  const std::vector<double> stolen = {10.0, 0.0, 10.0};
  bool clean_only = true;
  std::size_t clean_windows = 7;
  const std::vector<double> samples =
      UnstolenSamples(windows, stolen, 0.2, clean_only, clean_windows);
  EXPECT_FALSE(clean_only);
  EXPECT_EQ(clean_windows, 0u);
  EXPECT_EQ(samples.size(), 3u);
}

TEST(StolenMs, SumsOnlyTheNamedProcessors) {
  const std::vector<double> before = {0.0, 10.0, 20.0, 30.0};
  const std::vector<double> after = {10.0, 10.0, 40.0, 30.0};
  EXPECT_DOUBLE_EQ(StolenMs(before, after, {1, 3}), 0.0);
  EXPECT_DOUBLE_EQ(StolenMs(before, after, {0, 2}), 30.0);
  EXPECT_DOUBLE_EQ(StolenMs(before, after, {7}), 0.0);  // unknown processor
  EXPECT_FALSE(StealMsPerCpu().empty());
}

/// Burns about `ns` of this thread's CPU.
void Burn(std::uint64_t ns) {
  const std::uint64_t start = ThreadCpuNs();
  volatile std::uint64_t sink = 0;
  while (ThreadCpuNs() - start < ns) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
}

TEST(ServingCpuNs, SubtractsTheGeneratorThreadsCpu) {
  constexpr std::uint64_t kGenerator = 200'000'000;  // 200 ms
  constexpr std::uint64_t kServing = 100'000'000;    // 100 ms
  const std::uint64_t before = ProcessCpuNs();
  std::uint64_t generator_ns = 0;
  std::thread generator([&] {
    const std::uint64_t start = ThreadCpuNs();
    Burn(kGenerator);
    generator_ns = ThreadCpuNs() - start;
  });
  Burn(kServing);
  generator.join();
  const std::uint64_t after = ProcessCpuNs();

  EXPECT_GE(generator_ns, kGenerator);
  const std::uint64_t serving = ServingCpuNs(before, after, generator_ns);
  // The serving share is this thread's burn, not the generator's: well
  // under the generator's 200 ms even with clock and scheduling slack.
  EXPECT_GE(serving, kServing);
  EXPECT_LT(serving, kServing + kServing / 2);
}

TEST(ServingCpuNs, ClampsAtZero) {
  EXPECT_EQ(ServingCpuNs(100, 150, 80), 0u);
  EXPECT_EQ(ServingCpuNs(150, 100, 0), 0u);
  EXPECT_EQ(ServingCpuNs(100, 400, 100), 200u);
}

TEST(PeakRss, ResetDropsAnEarlierPeak) {
  if (!ResetPeakRss()) GTEST_SKIP() << "kernel refuses /proc/self/clear_refs";
  constexpr std::size_t kBytes = 96u << 20;
  {
    auto buffer = std::make_unique<char[]>(kBytes);
    std::memset(buffer.get(), 1, kBytes);  // touch every page
    EXPECT_GE(PeakRssMb(), CurrentRssMb() - 1.0);
    EXPECT_GE(PeakRssMb(), 90.0);
  }
  const double peak_with_buffer = PeakRssMb();
  ASSERT_TRUE(ResetPeakRss());
  // The buffer is gone; the new peak starts from today's RSS.
  EXPECT_LT(PeakRssMb(), peak_with_buffer - 64.0);
  EXPECT_LE(PeakRssMb(), CurrentRssMb() + 8.0);
}

TEST(FlagDigest, IsOrderSensitiveAndCounts) {
  FlagDigest a;
  a.Add(1, "video/flicker", 1.0);
  a.Add(2, "video/multibox", 2.0);
  FlagDigest b;
  b.Add(2, "video/multibox", 2.0);
  b.Add(1, "video/flicker", 1.0);
  EXPECT_EQ(a.count, 2u);
  EXPECT_FALSE(a == b);
  FlagDigest c;
  c.Add(1, "video/flicker", 1.0);
  c.Add(2, "video/multibox", 2.0);
  EXPECT_TRUE(a == c);
}

TEST(SelfTimes, SubtractsChildrenCoveredOnce) {
  std::vector<Span> spans = {
      {"setup", 0, 100, -1, 1, -1},
      {"config.load", 10, 30, 0, 1, -1},
      {"config.build", 20, 60, 0, 1, -1},  // overlaps config.load
      {"inner", 40, 50, 2, 1, -1},
  };
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50u);  // 100 - union[10, 60)
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 30u);  // 40 - inner's 10
  EXPECT_EQ(self[3], 10u);
  EXPECT_EQ(SelfTimesNamed(spans, "config.build"), std::vector<double>{30.0});
}

TEST(SpanLog, NestsAndStaysEmptyWhenDisabled) {
  SpanLog log(true, 7);
  const std::int64_t outer = log.Begin("outer");
  const std::int64_t inner = log.Begin("inner", 3);
  log.End(inner);
  log.Add("measured", 5, 9, 4);
  log.End(outer);
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[1].parent, outer);
  EXPECT_EQ(log.spans()[1].batch_id, 3);
  EXPECT_EQ(log.spans()[2].parent, outer);
  EXPECT_EQ(log.spans()[2].run_id, 7u);

  SpanLog off(false, 7);
  EXPECT_EQ(off.Begin("outer"), -1);
  off.Add("measured", 1, 2);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
