#include "serve/monitor.hpp"

#include <algorithm>
#include <exception>
#include <ostream>

#include "common/check.hpp"
#include "obs/trace_json.hpp"

namespace omg::serve {

std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidConfig: return "invalid_config";
    case ErrorCode::kInvalidHandle: return "invalid_handle";
    case ErrorCode::kWrongDomain: return "wrong_domain";
    case ErrorCode::kDuplicateStream: return "duplicate_stream";
    case ErrorCode::kInvalidSuite: return "invalid_suite";
    case ErrorCode::kBatchTooLarge: return "batch_too_large";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kTruncatedFrame: return "truncated_frame";
    case ErrorCode::kBadMagic: return "bad_magic";
    case ErrorCode::kBadVersion: return "bad_version";
    case ErrorCode::kOversizedFrame: return "oversized_frame";
    case ErrorCode::kCrcMismatch: return "crc_mismatch";
    case ErrorCode::kUnknownFrameType: return "unknown_frame_type";
    case ErrorCode::kUnknownDomain: return "unknown_domain";
    case ErrorCode::kMalformedPayload: return "malformed_payload";
    case ErrorCode::kUnknownTenant: return "unknown_tenant";
    case ErrorCode::kAuthFailed: return "auth_failed";
    case ErrorCode::kNotAuthenticated: return "not_authenticated";
    case ErrorCode::kUnknownStream: return "unknown_stream";
    case ErrorCode::kQuotaExceeded: return "quota_exceeded";
    case ErrorCode::kIoError: return "io_error";
    case ErrorCode::kInvariantViolated: return "invariant_violated";
  }
  return "?";
}

bool EventFilter::Matches(const runtime::StreamEvent& event) const {
  if (event.severity < min_severity) return false;
  if (!stream.empty() && event.stream != stream) return false;
  if (!domain.empty() && DomainOfQualifiedName(event.assertion) != domain) {
    return false;
  }
  if (!assertion.empty() && event.assertion != assertion &&
      UnqualifiedName(event.assertion) != assertion) {
    return false;
  }
  return true;
}

/// The Monitor's single service-level sink: fans every runtime event out to
/// the current subscription set, read through an atomic raw-pointer
/// snapshot so Consume (called per event on the shard workers) costs one
/// acquire load — not the internal spinlock an atomic<shared_ptr> load
/// takes. Writers swap in a rebuilt snapshot and *retire* the old one
/// instead of freeing it (readers hold no reference): retired snapshots
/// (and the sinks they reference) live until the dispatcher — i.e. the
/// Monitor — dies, which bounds memory by the subscribe-call count, not
/// the event rate.
class EventDispatcher final : public runtime::EventSink {
 public:
  std::uint64_t Add(EventFilter filter,
                    std::shared_ptr<runtime::EventSink> sink) {
    MutexLock lock(mutex_);
    const std::uint64_t id = next_id_++;
    auto entries = std::make_unique<std::vector<Entry>>(Current());
    // Pass-all filters (the common "give me everything" subscription) skip
    // Matches entirely — Consume runs once per event on the shard workers.
    const bool pass_all = filter.domain.empty() && filter.stream.empty() &&
                          filter.assertion.empty() &&
                          filter.min_severity <= 0.0;
    entries->push_back({id, pass_all, std::move(filter), std::move(sink)});
    Publish(std::move(entries));
    return id;
  }

  /// True when `id` was present (first Remove wins).
  bool Remove(std::uint64_t id) {
    MutexLock lock(mutex_);
    auto entries = std::make_unique<std::vector<Entry>>(Current());
    const auto it = std::find_if(
        entries->begin(), entries->end(),
        [id](const Entry& entry) { return entry.id == id; });
    if (it == entries->end()) return false;
    entries->erase(it);
    Publish(std::move(entries));
    return true;
  }

  bool Contains(std::uint64_t id) const {
    const std::vector<Entry>* entries =
        current_.load(std::memory_order_acquire);
    if (entries == nullptr) return false;
    return std::any_of(entries->begin(), entries->end(),
                       [id](const Entry& entry) { return entry.id == id; });
  }

  void Consume(const runtime::StreamEvent& event) override {
    const std::vector<Entry>* entries =
        current_.load(std::memory_order_acquire);
    if (entries == nullptr) return;
    for (const Entry& entry : *entries) {
      if (entry.pass_all || entry.filter.Matches(event)) {
        entry.sink->Consume(event);
      }
    }
  }

  void Flush() override {
    const std::vector<Entry>* entries =
        current_.load(std::memory_order_acquire);
    if (entries == nullptr) return;
    for (const Entry& entry : *entries) entry.sink->Flush();
  }

 private:
  struct Entry {
    std::uint64_t id;
    bool pass_all;
    EventFilter filter;
    std::shared_ptr<runtime::EventSink> sink;
  };

  const std::vector<Entry>& Current() const OMG_REQUIRES(mutex_) {
    static const std::vector<Entry> kEmpty;
    const std::vector<Entry>* entries =
        current_.load(std::memory_order_relaxed);
    return entries != nullptr ? *entries : kEmpty;
  }

  void Publish(std::unique_ptr<const std::vector<Entry>> entries)
      OMG_REQUIRES(mutex_) {
    current_.store(entries.get(), std::memory_order_release);
    snapshots_.push_back(std::move(entries));  // retire, never free early
  }

  Mutex mutex_;  ///< serialises Add/Remove (writers)
  std::uint64_t next_id_ OMG_GUARDED_BY(mutex_) = 1;
  std::atomic<const std::vector<Entry>*> current_{nullptr};
  std::vector<std::unique_ptr<const std::vector<Entry>>> snapshots_
      OMG_GUARDED_BY(mutex_);
};

bool Subscription::active() const {
  const auto dispatcher = dispatcher_.lock();
  return id_ != 0 && dispatcher != nullptr && dispatcher->Contains(id_);
}

void Subscription::Unsubscribe() {
  if (id_ == 0) return;
  if (const auto dispatcher = dispatcher_.lock()) dispatcher->Remove(id_);
  id_ = 0;
  dispatcher_.reset();
}

// ---------------------------------------------------------------- builder ---

Monitor::Builder& Monitor::Builder::Shards(std::size_t shards) {
  config_.shards = shards;
  return *this;
}

Monitor::Builder& Monitor::Builder::Window(std::size_t window) {
  config_.window = window;
  return *this;
}

Monitor::Builder& Monitor::Builder::SettleLag(std::size_t settle_lag) {
  config_.settle_lag = settle_lag;
  return *this;
}

Monitor::Builder& Monitor::Builder::QueueCapacity(std::size_t capacity) {
  config_.queue_capacity = capacity;
  return *this;
}

Monitor::Builder& Monitor::Builder::Admission(
    runtime::AdmissionPolicy policy) {
  config_.admission = policy;
  return *this;
}

Monitor::Builder& Monitor::Builder::ShedFloor(double floor) {
  config_.shed_floor = floor;
  return *this;
}

Monitor::Builder& Monitor::Builder::Stealing(bool stealing) {
  config_.stealing = stealing;
  return *this;
}

Monitor::Builder& Monitor::Builder::LatencyTargetMs(double target_ms) {
  config_.latency_target_ms = target_ms;
  return *this;
}

Monitor::Builder& Monitor::Builder::Trace(obs::TracerOptions options) {
  trace_ = options;
  return *this;
}

Monitor::Builder& Monitor::Builder::Runtime(
    const runtime::ShardedRuntimeConfig& config) {
  config_ = config;
  return *this;
}

Result<std::unique_ptr<Monitor>> Monitor::Builder::Build() const {
  try {
    config_.Validate();
  } catch (const common::CheckError& error) {
    return Error{ErrorCode::kInvalidConfig, error.what()};
  }
  runtime::ShardedRuntimeConfig config = config_;
  if (trace_.has_value()) {
    if (trace_->ring_capacity < 1 || trace_->sample_every < 1) {
      return Error{ErrorCode::kInvalidConfig,
                   "tracer needs ring_capacity >= 1 and sample_every >= 1"};
    }
    obs::TracerOptions options = *trace_;
    options.shard_lanes = config.shards;  // one lane per shard worker
    config.tracer = std::make_shared<obs::Tracer>(options);
  }
  return std::unique_ptr<Monitor>(new Monitor(config));
}

// ---------------------------------------------------------------- monitor ---

Monitor::Monitor(const runtime::ShardedRuntimeConfig& config)
    : dispatcher_(std::make_shared<EventDispatcher>()) {
  // No service-level suite factory: streams are heterogeneous, so each
  // RegisterStream hands the service an already-built (and vetted) bundle.
  service_ =
      std::make_unique<runtime::ShardedMonitorService<AnyExample>>(config);
  service_->AddSink(dispatcher_);
}

Monitor::~Monitor() = default;

Result<StreamHandle> Monitor::RegisterStream(std::string_view domain,
                                             AnySuiteFactory suite_factory,
                                             StreamOptions options) {
  if (domain.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "RegisterStream: domain must be non-empty"};
  }
  if (domain.find('/') != std::string_view::npos) {
    return Error{ErrorCode::kInvalidArgument,
                 "RegisterStream: domain '" + std::string(domain) +
                     "' must not contain '/'"};
  }
  if (!suite_factory) {
    return Error{ErrorCode::kInvalidArgument,
                 "RegisterStream: null suite factory"};
  }

  // Build (and vet) the stream's suite before touching the service, so a
  // throwing factory cannot leave the engine's registry half-updated.
  AnySuiteBundle bundle;
  try {
    bundle = suite_factory();
  } catch (const std::exception& error) {
    return Error{ErrorCode::kInvalidSuite,
                 std::string("suite factory threw: ") + error.what()};
  }
  if (bundle.suite == nullptr || bundle.suite->empty()) {
    return Error{ErrorCode::kInvalidSuite,
                 "suite factory produced " +
                     std::string(bundle.suite == nullptr ? "no suite"
                                                         : "an empty suite")};
  }
  for (const std::string& name : bundle.suite->Names()) {
    if (DomainOfQualifiedName(name) != domain) {
      return Error{ErrorCode::kWrongDomain,
                   "assertion '" + name + "' is not qualified under '" +
                       std::string(domain) +
                       "/' (erase the suite with EraseSuiteFactory)"};
    }
  }

  MutexLock lock(registration_mutex_);
  std::string name = std::move(options.name);
  if (name.empty()) {
    name = std::string(domain) + "-" +
           std::to_string(service_->registry().size());
  }
  if (service_->registry().Contains(name)) {
    return Error{ErrorCode::kDuplicateStream,
                 "stream '" + name + "' is already registered"};
  }

  // Intern the domain tag (stable storage for handle/info string_views).
  std::string_view interned;
  for (const std::string& existing : domains_) {
    if (existing == domain) {
      interned = existing;
      break;
    }
  }
  if (interned.empty()) interned = domains_.emplace_back(domain);

  const runtime::StreamId id =
      service_->RegisterStream(std::move(name), std::move(bundle));

  auto info = std::make_shared<std::vector<StreamInfo>>(
      stream_info_.load() ? *stream_info_.load()
                          : std::vector<StreamInfo>{});
  common::Check(info->size() == id, "stream info out of sync");
  info->push_back({interned, options.severity_hint});
  stream_info_.store(
      std::shared_ptr<const std::vector<StreamInfo>>(std::move(info)));
  return StreamHandle(this, id, interned, service_->registry().Name(id));
}

Result<Monitor::StreamInfo> Monitor::Resolve(
    const StreamHandle& handle) const {
  if (handle.owner_ != this) {
    return Error{ErrorCode::kInvalidHandle,
                 handle.owner_ == nullptr
                     ? "default-constructed stream handle"
                     : "stream handle issued by a different Monitor"};
  }
  const auto info = stream_info_.load();
  if (!info || handle.id_ >= info->size()) {
    return Error{ErrorCode::kInvalidHandle,
                 "stream handle id out of range"};
  }
  return (*info)[handle.id_];
}

Result<ObserveOutcome> Monitor::Observe(
    const StreamHandle& handle, AnyExample example,
    std::optional<double> severity_hint) {
  std::vector<AnyExample> batch;
  batch.push_back(std::move(example));
  return ObserveBatch(handle, std::move(batch), severity_hint);
}

Result<ObserveOutcome> Monitor::ObserveBatch(
    const StreamHandle& handle, std::vector<AnyExample> batch,
    std::optional<double> severity_hint) {
  const Result<StreamInfo> info = Resolve(handle);
  if (!info.ok()) return info.error();
  if (batch.empty()) return ObserveOutcome::kAdmitted;
  if (batch.size() > service_->config().queue_capacity) {
    return Error{ErrorCode::kBatchTooLarge,
                 "batch of " + std::to_string(batch.size()) +
                     " examples exceeds the shard queue capacity (" +
                     std::to_string(service_->config().queue_capacity) +
                     "); split it"};
  }
  // Validate domains with one pointer compare per example (batches are
  // almost always type-homogeneous); the string compare only runs for
  // examples of a different payload type, which may still share the
  // stream's domain tag.
  const void* likely_key = batch.front().TypeKey();
  const bool front_matches =
      batch.front().domain() == info.value().domain;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].TypeKey() == likely_key ? front_matches
                                         : batch[i].domain() ==
                                               info.value().domain) {
      continue;
    }
    return Error{
        ErrorCode::kWrongDomain,
        "batch[" + std::to_string(i) + "] is a '" +
            std::string(batch[i].has_value() ? batch[i].domain()
                                             : "<empty>") +
            "' example but stream '" + std::string(handle.name()) +
            "' serves domain '" + std::string(info.value().domain) +
            "': " + batch[i].DebugString()};
  }
  const double hint =
      severity_hint.value_or(info.value().severity_hint);
  const bool admitted =
      service_->ObserveBatch(handle.id_, std::move(batch), hint);
  return admitted ? ObserveOutcome::kAdmitted : ObserveOutcome::kShed;
}

Subscription Monitor::Subscribe(EventFilter filter,
                                std::shared_ptr<runtime::EventSink> sink) {
  if (sink == nullptr) return Subscription{};
  const std::uint64_t id =
      dispatcher_->Add(std::move(filter), std::move(sink));
  return Subscription(dispatcher_, id);
}

void Monitor::Flush() { service_->Flush(); }

runtime::MetricsSnapshot Monitor::Metrics() const {
  return service_->Metrics();
}

void Monitor::RecordNamedMetric(const std::string& key, std::uint64_t delta) {
  service_->metrics_registry().RecordNamed(key, delta);
}

std::vector<std::string> Monitor::Errors() const {
  return service_->Errors();
}

const runtime::ShardedRuntimeConfig& Monitor::config() const {
  return service_->config();
}

const runtime::StreamRegistry& Monitor::streams() const {
  return service_->registry();
}

std::shared_ptr<obs::Tracer> Monitor::tracer() const {
  return service_->config().tracer;
}

std::vector<std::string> Monitor::StreamLabels() const {
  std::vector<std::string> labels;
  const auto info = stream_info_.load();
  if (!info) return labels;
  labels.reserve(info->size());
  for (std::size_t id = 0; id < info->size(); ++id) {
    labels.push_back(std::string((*info)[id].domain) + "/" +
                     std::string(service_->registry().Name(id)));
  }
  return labels;
}

void Monitor::WriteChromeTrace(std::ostream& out) {
  obs::TraceSnapshot snapshot;
  if (const auto tracer = service_->config().tracer) {
    snapshot = tracer->Drain();
  }
  obs::WriteChromeTrace(snapshot, out, StreamLabels());
}

}  // namespace omg::serve
