#include "runtime/metrics.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace omg::runtime {

namespace {

double RateOf(const std::map<std::string, AssertionMetrics>& assertions,
              const std::string& assertion, std::size_t examples) {
  const auto it = assertions.find(assertion);
  if (it == assertions.end() || examples == 0) return 0.0;
  return static_cast<double>(it->second.fires) /
         static_cast<double>(examples);
}

}  // namespace

double StreamMetrics::FlaggedRate(const std::string& assertion) const {
  return RateOf(assertions, assertion, examples_seen);
}

double MetricsSnapshot::FlaggedRate(const std::string& assertion) const {
  return RateOf(assertions, assertion, examples_seen);
}

double ShardMetrics::BusyFraction() const {
  const std::uint64_t measured = busy_ns + idle_ns + steal_ns;
  if (measured == 0) return 0.0;
  return static_cast<double>(busy_ns + steal_ns) /
         static_cast<double>(measured);
}

double ShardMetrics::MeanQueueWaitSeconds() const {
  const std::size_t dequeued = batches + errored_batches;
  if (dequeued == 0) return 0.0;
  return static_cast<double>(queue_wait_ns) * 1e-9 /
         static_cast<double>(dequeued);
}

double ShardMetrics::MeanServiceSeconds() const {
  const std::size_t dequeued = batches + errored_batches;
  if (dequeued == 0) return 0.0;
  return static_cast<double>(busy_ns) * 1e-9 /
         static_cast<double>(dequeued);
}

std::size_t MetricsSnapshot::TotalDroppedExamples() const {
  std::size_t total = 0;
  for (const ShardMetrics& shard : shards) total += shard.dropped_examples;
  return total;
}

std::size_t MetricsSnapshot::TotalShedExamples() const {
  std::size_t total = 0;
  for (const ShardMetrics& shard : shards) total += shard.shed_examples;
  return total;
}

std::size_t MetricsSnapshot::TotalErroredExamples() const {
  std::size_t total = 0;
  for (const ShardMetrics& shard : shards) total += shard.errored_examples;
  return total;
}

LatencyHistogram MetricsSnapshot::MergedLatency() const {
  LatencyHistogram merged;
  for (const ShardMetrics& shard : shards) merged.Merge(shard.latency);
  return merged;
}

MetricsRegistry::MetricsRegistry(std::size_t shards) {
  common::Check(shards >= 1, "metrics registry needs at least one shard");
  cells_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    cells_.push_back(std::make_unique<Cell>());
    cells_.back()->shard.shard = i;
  }
}

MetricsRegistry::Cell& MetricsRegistry::CellOf(StreamId id) {
  return *cells_[id % cells_.size()];
}

MetricsRegistry::Cell& MetricsRegistry::ShardCell(std::size_t shard) {
  common::CheckIndex(static_cast<std::ptrdiff_t>(shard), 0,
                     static_cast<std::ptrdiff_t>(cells_.size()),
                     "metrics shard index");
  return *cells_[shard];
}

void MetricsRegistry::RegisterStream(StreamId id, std::string_view name) {
  Cell& cell = CellOf(id);
  MutexLock lock(cell.mutex);
  StreamMetrics& stream = cell.streams[id];
  if (stream.stream.empty()) {
    stream.stream_id = id;
    stream.stream = std::string(name);
  } else {
    common::Check(stream.stream == name,
                  "stream id registered twice with different names");
  }
}

namespace {

/// Folds one batch into a stream's aggregates; caller holds the cell lock.
void FoldBatch(StreamMetrics& stream, std::size_t examples,
               std::span<const StreamEvent> events) {
  stream.examples_seen += examples;
  stream.events += events.size();
  for (const StreamEvent& event : events) {
    AssertionMetrics& slot = stream.assertions[std::string(event.assertion)];
    ++slot.fires;
    slot.sum_severity += event.severity;
    if (event.severity > slot.max_severity) slot.max_severity = event.severity;
  }
}

}  // namespace

void MetricsRegistry::RecordScoredBatch(StreamId id, std::size_t shard,
                                        std::size_t examples,
                                        std::span<const StreamEvent> events,
                                        double latency_seconds,
                                        std::uint64_t queue_wait_ns,
                                        std::uint64_t busy_ns,
                                        std::uint64_t idle_ns) {
  Cell& cell = ShardCell(shard);
  common::Check(&cell == &CellOf(id),
                "stream is not pinned to the given metrics shard");
  MutexLock lock(cell.mutex);
  const auto it = cell.streams.find(id);
  common::Check(it != cell.streams.end(), "metrics stream id not registered");
  FoldBatch(it->second, examples, events);
  ++cell.shard.batches;
  cell.shard.examples += examples;
  cell.shard.events += events.size();
  cell.shard.latency.Record(latency_seconds);
  cell.shard.queue_wait_ns += queue_wait_ns;
  cell.shard.busy_ns += busy_ns;
  cell.shard.idle_ns += idle_ns;
}

void MetricsRegistry::RecordError(std::size_t shard, std::size_t batches,
                                  std::size_t examples,
                                  std::uint64_t queue_wait_ns,
                                  std::uint64_t busy_ns,
                                  std::uint64_t idle_ns) {
  Cell& cell = ShardCell(shard);
  MutexLock lock(cell.mutex);
  cell.shard.errored_batches += batches;
  cell.shard.errored_examples += examples;
  cell.shard.queue_wait_ns += queue_wait_ns;
  cell.shard.busy_ns += busy_ns;
  cell.shard.idle_ns += idle_ns;
}

void MetricsRegistry::RecordLoss(std::size_t shard, std::size_t batches,
                                 std::size_t examples, LossKind kind) {
  Cell& cell = ShardCell(shard);
  MutexLock lock(cell.mutex);
  if (kind == LossKind::kDropped) {
    cell.shard.dropped_batches += batches;
    cell.shard.dropped_examples += examples;
  } else {
    cell.shard.shed_batches += batches;
    cell.shard.shed_examples += examples;
  }
}

void MetricsRegistry::RecordSteal(std::size_t victim_shard, std::size_t batches,
                                  std::size_t examples) {
  Cell& cell = ShardCell(victim_shard);
  MutexLock lock(cell.mutex);
  cell.shard.stolen_batches += batches;
  cell.shard.stolen_examples += examples;
}

void MetricsRegistry::RecordStealWork(std::size_t thief_shard,
                                      std::uint64_t steal_ns,
                                      std::uint64_t idle_ns) {
  Cell& cell = ShardCell(thief_shard);
  MutexLock lock(cell.mutex);
  cell.shard.steal_ns += steal_ns;
  cell.shard.idle_ns += idle_ns;
}

void MetricsRegistry::RecordQueueDepth(std::size_t shard, std::size_t depth) {
  Cell& cell = ShardCell(shard);
  MutexLock lock(cell.mutex);
  cell.shard.queue_depth = depth;
  cell.shard.queue_depth_peak = std::max(cell.shard.queue_depth_peak, depth);
}

void MetricsRegistry::RecordNamed(const std::string& key,
                                  std::uint64_t delta) {
  MutexLock lock(named_mutex_);
  named_[key] += delta;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  StreamId max_id = 0;
  bool any_stream = false;
  std::vector<StreamMetrics> collected;
  for (const auto& cell : cells_) {
    MutexLock lock(cell->mutex);
    for (const auto& [id, stream] : cell->streams) {
      collected.push_back(stream);
      max_id = std::max(max_id, id);
      any_stream = true;
    }
    snapshot.shards.push_back(cell->shard);
  }
  if (any_stream) snapshot.streams.resize(max_id + 1);
  for (StreamMetrics& stream : collected) {
    const StreamId id = stream.stream_id;
    snapshot.streams[id] = std::move(stream);
  }
  for (const StreamMetrics& stream : snapshot.streams) {
    snapshot.examples_seen += stream.examples_seen;
    snapshot.events += stream.events;
    for (const auto& [name, slot] : stream.assertions) {
      AssertionMetrics& total = snapshot.assertions[name];
      total.fires += slot.fires;
      total.sum_severity += slot.sum_severity;
      if (slot.max_severity > total.max_severity) {
        total.max_severity = slot.max_severity;
      }
    }
  }
  {
    MutexLock lock(named_mutex_);
    snapshot.named = named_;
  }
  return snapshot;
}

}  // namespace omg::runtime
