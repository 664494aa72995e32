// Measurement primitives of the open-loop benchmark: quantiles that carry
// their sample count, flag-latency attribution, CPU and peak-RSS
// accounting, the flag digest, and the span log of traced runs.
//
// Everything here is independent of the workloads (workloads.hpp) so the
// benchmark's own tests can pin each rule on small inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic wall clock (steady_clock), nanoseconds.
std::uint64_t NowNs();
/// Process CPU time (user + sys, all threads), nanoseconds.
std::uint64_t ProcessCpuNs();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), nanoseconds.
std::uint64_t ThreadCpuNs();

/// A quantile and the number of samples it was taken from. A percentile
/// is only meaningful next to its count (p99 of 50 samples is the
/// maximum), so the two travel together.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank quantile `q` in [0, 1] of `values` (taken by value: the
/// call sorts its copy). Empty input gives {0, 0}.
Quantile QuantileOf(std::vector<double> values, double q);

/// Median of `values`; 0 for empty input.
double Median(std::vector<double> values);

/// The latency samples to take quantiles over, pooled from the time
/// windows `windows` (samples grouped by when their batch was due) that
/// the hypervisor stole no time in: `stolen_ms[k] == 0` for the window and
/// for the one before it, whose stall would still be draining. A stolen
/// processor stalls whatever runs on it for milliseconds, which says how
/// busy the host was, not how fast the system is. When fewer than
/// `min_clean_share` of the windows qualify, every sample is used.
/// `clean_only` says which happened; `clean_windows` counts the windows
/// that qualified.
std::vector<double> UnstolenSamples(
    const std::vector<std::vector<double>>& windows,
    const std::vector<double>& stolen_ms, double min_clean_share,
    bool& clean_only, std::size_t& clean_windows);

/// Which batch's arrival settles the verdict on `example_index`: the
/// runtime emits the verdict once example `example_index + settle_lag` has
/// been observed, so the trigger is the batch carrying that example,
/// clipped to the stream's last batch (`stream_length` examples in batches
/// of `batch`). Flag latency is measured from that batch's due time, so it
/// counts queueing and transport but not the settle window itself.
std::size_t TriggerBatch(std::size_t example_index, std::size_t settle_lag,
                         std::size_t stream_length, std::size_t batch);

/// CPU the system under test spent in a timed window: the process's CPU
/// delta minus `benchmark_ns`, the CPU the benchmark's own threads (the
/// load generator) spent over the same window, clamped at 0 against clock
/// granularity.
std::uint64_t ServingCpuNs(std::uint64_t process_before_ns,
                           std::uint64_t process_after_ns,
                           std::uint64_t benchmark_ns);

/// Per-processor steal counters from /proc/stat, indexed by processor
/// number, in milliseconds: CPU time the hypervisor took from that
/// processor. The kernel reports them in clock ticks (10 ms at 100 Hz), so a
/// delta of 0 means less than a tick was stolen across the interval.
std::vector<double> StealMsPerCpu();

/// Milliseconds stolen from any of `cpus` between two StealMsPerCpu reads.
double StolenMs(const std::vector<double>& before,
                const std::vector<double>& after, const std::vector<int>& cpus);

/// Resets the kernel's peak-RSS counter (VmHWM) to the current RSS by
/// writing "5" to /proc/self/clear_refs. Returns false when the kernel
/// refuses (then the peak includes everything since process start).
bool ResetPeakRss();
/// VmHWM of this process, MiB (0 when /proc is unreadable).
double PeakRssMb();
/// VmRSS of this process, MiB (0 when /proc is unreadable).
double CurrentRssMb();

/// Order-sensitive digest of one stream's flags (FNV-1a 64 over example
/// index, qualified assertion name and severity bits) plus their count.
struct FlagDigest {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::size_t count = 0;

  void Add(std::size_t example_index, std::string_view assertion,
           double severity);
  bool operator==(const FlagDigest& other) const = default;
};

/// One timed call into a layer, recorded by the benchmark around the
/// public function it calls. `parent` indexes the enclosing span in the
/// same log (-1 at top level); `batch_id` is the schedule slot, or -1.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t run_id = 0;
  std::int64_t batch_id = -1;
};

/// Append-only span log owned by one thread. Disabled logs record nothing
/// and cost one branch per call, which is how untraced runs stay untraced.
class SpanLog {
 public:
  SpanLog(bool enabled, std::uint64_t run_id)
      : enabled_(enabled), run_id_(run_id) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled). Close it with
  /// End(). Nested Begin calls take the innermost open span as parent.
  std::int64_t Begin(const char* name, std::int64_t batch_id = -1);
  void End(std::int64_t index);

  /// Records a closed span measured by the caller.
  void Add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::int64_t batch_id = -1);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// Self time of every span: its duration minus the part of that interval
/// covered by its direct children (overlapping children counted once).
std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Self times (nanoseconds) of the spans named `name`, in log order.
std::vector<double> SelfTimesNamed(const std::vector<Span>& spans,
                                   std::string_view name);

/// Appends `spans` to `out` as JSON lines, one object per span. `log`
/// names the span log (parent indices are local to one log).
void AppendSpansJsonl(const std::vector<Span>& spans, std::string_view log,
                      std::string& out);

}  // namespace perfbench
