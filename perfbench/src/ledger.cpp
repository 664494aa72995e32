#include "ledger.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace perfbench {

namespace {

std::uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The "<key>: <n> kB" line of /proc/self/status, in MiB.
double StatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t key_length = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_length, key) == 0 && line.size() > key_length &&
        line[key_length] == ':') {
      return std::stod(line.substr(key_length + 1)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

std::uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

Quantile QuantileOf(std::vector<double> values, double q) {
  if (values.empty()) return {};
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return {values[rank - 1], values.size()};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<double> UnstolenSamples(
    const std::vector<std::vector<double>>& windows,
    const std::vector<double>& stolen_ms, double min_clean_share,
    bool& clean_only, std::size_t& clean_windows) {
  std::vector<double> clean;
  std::vector<double> all;
  clean_windows = 0;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    all.insert(all.end(), windows[k].begin(), windows[k].end());
    const bool stolen = k >= stolen_ms.size() || stolen_ms[k] != 0.0 ||
                        (k > 0 && stolen_ms[k - 1] != 0.0);
    if (stolen) continue;
    ++clean_windows;
    clean.insert(clean.end(), windows[k].begin(), windows[k].end());
  }
  clean_only = !windows.empty() &&
               static_cast<double>(clean_windows) >=
                   min_clean_share * static_cast<double>(windows.size());
  return clean_only ? clean : all;
}

std::size_t TriggerBatch(std::size_t example_index, std::size_t settle_lag,
                         std::size_t stream_length, std::size_t batch) {
  const std::size_t last = stream_length == 0 ? 0 : stream_length - 1;
  return std::min(example_index + settle_lag, last) / batch;
}

std::uint64_t ServingCpuNs(std::uint64_t process_before_ns,
                           std::uint64_t process_after_ns,
                           std::uint64_t benchmark_ns) {
  const std::uint64_t process =
      process_after_ns > process_before_ns
          ? process_after_ns - process_before_ns
          : 0;
  return process > benchmark_ns ? process - benchmark_ns : 0;
}

std::vector<double> StealMsPerCpu() {
  std::vector<double> steal;
  const long ticks_per_second = sysconf(_SC_CLK_TCK);
  if (ticks_per_second <= 0) return steal;
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    // "cpu<N> user nice system idle iowait irq softirq steal ..."
    if (line.compare(0, 3, "cpu") != 0 || line.size() < 4 ||
        line[3] < '0' || line[3] > '9') {
      continue;
    }
    std::istringstream fields(line.substr(3));
    std::size_t cpu = 0;
    std::uint64_t values[8] = {};
    fields >> cpu;
    for (std::uint64_t& value : values) fields >> value;
    if (!fields) continue;
    if (steal.size() <= cpu) steal.resize(cpu + 1, 0.0);
    steal[cpu] = static_cast<double>(values[7]) * 1000.0 /
                 static_cast<double>(ticks_per_second);
  }
  return steal;
}

double StolenMs(const std::vector<double>& before,
                const std::vector<double>& after,
                const std::vector<int>& cpus) {
  double stolen = 0.0;
  for (int cpu : cpus) {
    const auto index = static_cast<std::size_t>(cpu);
    if (index < before.size() && index < after.size()) {
      stolen += after[index] - before[index];
    }
  }
  return stolen;
}

bool ResetPeakRss() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool wrote = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && wrote;
}

double PeakRssMb() { return StatusMb("VmHWM"); }

double CurrentRssMb() { return StatusMb("VmRSS"); }

void FlagDigest::Add(std::size_t example_index, std::string_view assertion,
                     double severity) {
  auto mix = [this](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  };
  const std::uint64_t index = example_index;
  std::uint64_t severity_bits = 0;
  std::memcpy(&severity_bits, &severity, sizeof(severity_bits));
  mix(&index, sizeof(index));
  mix(assertion.data(), assertion.size());
  mix(&severity_bits, sizeof(severity_bits));
  ++count;
}

std::int64_t SpanLog::Begin(const char* name, std::int64_t batch_id) {
  if (!enabled_) return -1;
  const auto index = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({name, NowNs(), 0, open_.empty() ? -1 : open_.back(),
                    run_id_, batch_id});
  open_.push_back(index);
  return index;
}

void SpanLog::End(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Add(const char* name, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::int64_t batch_id) {
  if (!enabled_) return;
  spans_.push_back({name, start_ns, end_ns,
                    open_.empty() ? -1 : open_.back(), run_id_, batch_id});
}

std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size()) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::uint64_t duration =
        span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 0;
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    // Union of the children's intervals, clipped to the parent's.
    std::uint64_t covered = 0;
    std::uint64_t cursor = span.start_ns;
    for (auto [start, end] : intervals) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = duration > covered ? duration - covered : 0;
  }
  return self;
}

std::vector<double> SelfTimesNamed(const std::vector<Span>& spans,
                                   std::string_view name) {
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  std::vector<double> named;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) named.push_back(static_cast<double>(self[i]));
  }
  return named;
}

void AppendSpansJsonl(const std::vector<Span>& spans, std::string_view log,
                      std::string& out) {
  char line[320];
  const std::string log_name(log);
  for (const Span& span : spans) {
    std::snprintf(line, sizeof(line),
                  "{\"log\":\"%s\",\"name\":\"%s\",\"start_ns\":%llu,"
                  "\"end_ns\":%llu,\"parent\":%lld,\"run\":%llu,"
                  "\"batch\":%lld}\n",
                  log_name.c_str(), span.name,
                  static_cast<unsigned long long>(span.start_ns),
                  static_cast<unsigned long long>(span.end_ns),
                  static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.run_id),
                  static_cast<long long>(span.batch_id));
    out += line;
  }
}

}  // namespace perfbench
