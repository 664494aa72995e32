// Admission control for the sharded serving fast path.
//
// Every shard of a ShardedMonitorService ingests through a *bounded* MPSC
// queue; what happens when that queue is full is the admission policy. The
// three policies cover the deployment modes the paper's serving story needs:
// lossless backpressure for offline replay (Block), freshest-data-wins for
// live dashboards (DropOldest), and severity-aware load shedding for the
// improvement loop, which only ever acts on high-severity evidence anyway
// (ShedBelowSeverity). Overload therefore degrades by an explicit, counted
// policy instead of by unbounded queue growth.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

namespace omg::obs {
class Tracer;
}  // namespace omg::obs

namespace omg::runtime {

/// What a full ingestion queue does with an incoming batch.
enum class AdmissionPolicy {
  /// Producer blocks until the shard worker frees space (lossless
  /// backpressure; throughput is clamped to the shard's scoring rate).
  kBlock,
  /// The oldest queued batches are dropped (and counted) to admit the new
  /// one — bounded staleness for live monitoring.
  kDropOldest,
  /// Incoming batches whose severity hint is below the configured floor are
  /// shed (and counted); batches at or above the floor displace queued
  /// below-floor work first and block only if the whole queue is important.
  kShedBelowSeverity,
  /// Sheds to hold a latency SLO instead of a queue bound: a below-floor
  /// batch is refused (and counted as shed) whenever the shard's estimated
  /// completion latency — queued examples times the worker's EWMA service
  /// time per example — would exceed `latency_target_ms`. Batches at or
  /// above the shed floor bypass the SLO check (important evidence is never
  /// shed); the queue capacity remains a hard bound enforced by blocking.
  kLatencyTarget,
};

/// Human-readable policy name ("block", "drop_oldest", "shed_below_severity",
/// "latency_target").
std::string_view AdmissionPolicyName(AdmissionPolicy policy);

/// Parses a policy name accepted by AdmissionPolicyName; throws CheckError
/// on anything else.
AdmissionPolicy ParseAdmissionPolicy(std::string_view name);

/// Configuration of a ShardedMonitorService.
struct ShardedRuntimeConfig {
  /// Number of shards; each shard owns a dedicated worker thread, its
  /// streams' evaluators, and its slice of the metrics registry.
  std::size_t shards = 4;
  /// Sliding-window length per stream (examples assertions can see).
  std::size_t window = 64;
  /// How far behind the stream head an example must be before its verdict
  /// is emitted; must exceed every bounded assertion's temporal radius for
  /// verdicts to be final, and stay below `window` so a verdict settles
  /// inside the window.
  std::size_t settle_lag = 8;
  /// Maximum examples queued per shard (summed over queued batches). A
  /// single batch larger than this is rejected outright.
  std::size_t queue_capacity = 4096;
  /// Full-queue behavior.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Severity-hint floor used by kShedBelowSeverity and kLatencyTarget:
  /// batches observed with a hint below this value are shed when the queue
  /// is full (kShedBelowSeverity) or when the latency SLO is projected to
  /// be missed (kLatencyTarget).
  double shed_floor = 1.0;
  /// kLatencyTarget's SLO: the estimated observe-to-flag completion latency
  /// (milliseconds) a below-floor batch may push the shard to before it is
  /// shed. Ignored by the other policies.
  double latency_target_ms = 50.0;
  /// Work stealing between shard workers: a worker whose own queue is empty
  /// takes whole stream-batch groups from the deepest neighbour's queue
  /// (half of its queued examples, oldest streams first). Per-stream FIFO
  /// order and exclusive evaluator ownership are preserved — scoring
  /// results are bit-identical with stealing on or off; only scheduling
  /// (and therefore tail latency under imbalance) changes.
  bool stealing = true;
  /// Optional trace sink: when set, shard workers emit dequeue/evaluate
  /// events on their lanes and admission losses / flushes land on the
  /// control lane (see obs/tracer.hpp). Must have at least `shards` shard
  /// lanes; null disables tracing entirely.
  std::shared_ptr<obs::Tracer> tracer = nullptr;

  /// Throws CheckError on invalid combinations (0 shards would never drain
  /// and deadlock Flush; settle_lag >= window could never settle; a
  /// 0-capacity queue could never admit anything).
  void Validate() const;
};

}  // namespace omg::runtime
