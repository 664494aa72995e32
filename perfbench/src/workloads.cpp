#include "workloads.hpp"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "av/factory.hpp"
#include "common/example_gen.hpp"
#include "common/rng.hpp"
#include "config/monitor_loader.hpp"
#include "config/scenario.hpp"
#include "core/monitor.hpp"
#include "ecg/factory.hpp"
#include "ledger.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "runtime/metrics.hpp"
#include "serve/domains.hpp"
#include "serve/monitor.hpp"
#include "tvnews/factory.hpp"
#include "video/factory.hpp"

namespace perfbench {

namespace {

using omg::serve::AnyExample;

enum class Transport { kInProcess, kUds };

/// One workload: the monitor its config declares plus the traffic the
/// benchmark offers it. Why each workload and rate was chosen is recorded
/// in perfbench/NOTES.md.
struct WorkloadDef {
  const char* name;
  /// Scenario file under the config directory.
  const char* config;
  Transport transport;
  /// Offered examples per second per domain, split evenly over the
  /// domain's streams. Arrivals are paced: batch k of a stream is due at a
  /// fixed offset plus k batch intervals, whether or not the system kept
  /// up.
  std::vector<std::pair<std::string, double>> domain_rate_eps;
  /// Inputs from common::MakeSyntheticExample instead of the model-backed
  /// scenario generators.
  bool synthetic;
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> workloads = {
      // A third of the two shards' capacity. Video carries half the traffic
      // and most of the flags, so the median flag sits inside the video
      // mode of the latency distribution rather than in the gap between
      // the fast (AV/ECG) and slow (video) domains, where a small shift in
      // the flag mix would move it.
      {"inproc_mixed",
       "inproc_mixed.conf",
       Transport::kInProcess,
       {{"video", 24000}, {"av", 8000}, {"ecg", 8000}, {"tvnews", 8000}},
       false},
      // About a third of the single handler thread's ~800k ex/s knee.
      {"uds_av",
       "uds_av.conf",
       Transport::kUds,
       {{"av", 250000}},
       true},
  };
  return workloads;
}

/// Distinct examples generated per stream; the schedule cycles through
/// them, so input generation and memory stay bounded at any run length.
constexpr std::size_t kPoolExamples = 8192;

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One flag's latency and the schedule window of its trigger batch.
struct LatencySample {
  float ms;
  std::uint32_t window;
};

/// One stream's inputs, schedule and reference flags.
struct StreamPlan {
  omg::config::StreamSpec spec;
  double rate_eps = 0.0;
  /// Batches offered in the timed window.
  std::size_t batches = 0;
  /// Distinct examples, cycled in whole batches. They exist only in the
  /// preparing process (see Prepare).
  std::vector<AnyExample> pool;
  /// The pool's batches as DATA payloads: what the generator offers.
  std::vector<std::vector<std::uint8_t>> frames;
  const omg::net::PayloadCodec* codec = nullptr;
  /// Due time of each offered batch, nanoseconds after the first due time.
  std::vector<std::uint64_t> due_offset_ns;
  /// The single-thread core reference over the offered sequence.
  omg::config::SuiteSpec suite;
  FlagDigest reference;
  std::uint64_t reference_ns = 0;
  std::size_t reference_examples = 0;
  /// The sink's latency samples for this stream (every kLatencyStride-th
  /// event), sized and touched before the peak-RSS reset.
  std::vector<LatencySample> latency;

  std::size_t batch() const { return spec.batch; }
  std::size_t length() const { return batches * spec.batch; }
  std::size_t pool_batches() const { return frames.size(); }
  std::size_t PoolOffset(std::size_t k) const {
    return (k % pool_batches()) * spec.batch;
  }
};

/// One entry of the merged arrival schedule.
struct Slot {
  std::uint64_t due_offset_ns;
  std::uint32_t stream;
  std::uint32_t batch;
};

/// Set-ups are timed in kSetupProcesses forked copies of the benchmark
/// process, half before serving and half after, kSetups back to back in
/// each; setup_s is the fastest. A set-up takes a fraction of a
/// millisecond, so a stolen or preempted processor inflates whole runs of
/// them, and the fastest is the set-up's own cost. But a burst of set-ups
/// in one process tends to run entirely fast or entirely slow (by up to
/// half); bursts in separate copies do not share that, so the fastest of
/// several is steadier (perfbench/NOTES.md).
constexpr std::size_t kSetupProcesses = 8;
constexpr std::size_t kSetups = 50;

/// Flag latencies are grouped into windows of this many nanoseconds of the
/// schedule, and the time stolen from the benchmark's processors is read
/// at every window boundary (see UnstolenSamples). Short windows leave
/// clean windows to measure even when the host steals a tenth of the time.
constexpr std::uint64_t kLatencyWindowNs = 20'000'000ULL;
/// Quantiles use only unstolen windows when at least this share of the
/// windows is unstolen.
constexpr double kMinUnstolenShare = 0.1;
/// Every this many events of a stream, one has its latency recorded. An
/// event's latency says nothing about its rank in the stream, so the
/// subsample keeps the distribution; it keeps the buffer, which is resident
/// through serving, to an eighth of the flag count.
constexpr std::size_t kLatencyStride = 8;

/// Processors this process may run on, ascending.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Confines the calling thread (and threads it starts later) to `cpus`.
bool PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

// ------------------------------------------------------------- inputs ---

void GenerateInputs(const WorkloadDef& def,
                    const omg::config::ScenarioSpec& scenario,
                    std::uint64_t seed, std::vector<StreamPlan>& plans) {
  omg::config::ScenarioSpec seeded = scenario;
  for (std::size_t i = 0; i < seeded.streams.size(); ++i) {
    seeded.streams[i].examples = kPoolExamples;
    seeded.streams[i].seed = Mix(seed ^ Mix(scenario.streams[i].seed + i));
  }
  omg::common::TrafficMap traffic;
  if (!def.synthetic) {
    // The generators pretrain each domain's model (detector, classifier)
    // from the domain's first stream seed. A leading one-batch stream with
    // the config's own seed pins the model, so --seed varies the world the
    // model sees but not the model: a retrained detector changes how many
    // boxes reach the consistency assertions, and with it the cost of an
    // example by up to a third.
    omg::config::ScenarioSpec generated = seeded;
    for (const std::string& domain : scenario.Domains()) {
      for (const omg::config::StreamSpec& stream : scenario.streams) {
        if (stream.domain != domain) continue;
        omg::config::StreamSpec model = stream;
        model.name = "model-" + domain;
        model.examples = stream.batch;
        generated.streams.insert(generated.streams.begin(), model);
        break;
      }
    }
    traffic = omg::common::GenerateScenarioTraffic(generated);
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    StreamPlan& plan = plans[i];
    if (def.synthetic) {
      omg::common::Rng rng(seeded.streams[i].seed);
      plan.pool.reserve(kPoolExamples);
      for (std::size_t j = 0; j < kPoolExamples; ++j) {
        const auto index =
            static_cast<std::size_t>(rng.UniformInt(0, 1 << 30));
        plan.pool.push_back(
            omg::common::MakeSyntheticExample(plan.spec.domain, index)
                .value());
      }
    } else {
      plan.pool = std::move(traffic.at(plan.spec.name));
    }
    plan.pool.resize(std::min(plan.pool.size(), kPoolExamples) /
                     plan.batch() * plan.batch());
    if (plan.pool.empty()) {
      throw std::runtime_error("stream " + plan.spec.name +
                               " generated less than one batch");
    }
  }
}

void EncodeFrames(std::vector<StreamPlan>& plans) {
  for (StreamPlan& plan : plans) {
    for (std::size_t first = 0; first < plan.pool.size();
         first += plan.batch()) {
      plan.frames.push_back(omg::net::EncodeBatch(
          *plan.codec, std::span<const AnyExample>(plan.pool.data() + first,
                                                   plan.batch())));
    }
  }
}

/// Paced arrivals: each stream sends a batch every batch/rate seconds.
/// The streams of one domain share a rate and are spread evenly over the
/// interval; domains are offset from each other by a fraction of a slot.
std::vector<Slot> BuildSchedule(std::vector<StreamPlan>& plans,
                                const std::vector<std::string>& domains,
                                double seconds) {
  std::vector<Slot> schedule;
  for (std::size_t s = 0; s < plans.size(); ++s) {
    StreamPlan& plan = plans[s];
    std::size_t in_domain = 0;
    std::size_t domain_streams = 0;
    for (std::size_t t = 0; t < plans.size(); ++t) {
      if (plans[t].spec.domain != plan.spec.domain) continue;
      if (t < s) ++in_domain;
      ++domain_streams;
    }
    const auto domain_index = static_cast<std::size_t>(
        std::find(domains.begin(), domains.end(), plan.spec.domain) -
        domains.begin());
    const double phase =
        (static_cast<double>(in_domain) +
         static_cast<double>(domain_index) /
             static_cast<double>(domains.size())) /
        static_cast<double>(domain_streams);
    const double interval_ns =
        static_cast<double>(plan.batch()) / plan.rate_eps * 1e9;
    const double offered = plan.rate_eps * seconds;
    plan.batches = std::max<std::size_t>(
        1, static_cast<std::size_t>(offered / static_cast<double>(
                                                  plan.batch())));
    plan.due_offset_ns.resize(plan.batches);
    for (std::size_t k = 0; k < plan.batches; ++k) {
      plan.due_offset_ns[k] = static_cast<std::uint64_t>(
          (phase + static_cast<double>(k)) * interval_ns);
      schedule.push_back({plan.due_offset_ns[k],
                          static_cast<std::uint32_t>(s),
                          static_cast<std::uint32_t>(k)});
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Slot& a, const Slot& b) {
              return a.due_offset_ns != b.due_offset_ns
                         ? a.due_offset_ns < b.due_offset_ns
                         : a.stream < b.stream;
            });
  return schedule;
}

// ---------------------------------------------------------- reference ---

template <typename Example>
void RunReference(const omg::config::AssertionFactory<Example>& factory,
                  std::size_t window, std::size_t settle_lag,
                  std::size_t batches, StreamPlan& plan, SpanLog& log) {
  auto bundle = omg::config::BuildSuiteBundle(factory, plan.suite);
  omg::core::StreamingMonitor<Example> monitor(*bundle.suite, window,
                                               settle_lag, bundle.invalidate);
  std::vector<Example> typed;
  typed.reserve(plan.pool.size());
  for (const AnyExample& example : plan.pool) {
    typed.push_back(example.Get<Example>());
  }
  const std::string prefix = plan.spec.domain + "/";
  std::string qualified;
  for (std::size_t k = 0; k < batches; ++k) {
    const auto first =
        typed.begin() + static_cast<std::ptrdiff_t>(plan.PoolOffset(k));
    std::vector<Example> batch(
        first, first + static_cast<std::ptrdiff_t>(plan.batch()));
    const std::uint64_t start = NowNs();
    const std::vector<omg::core::MonitorEvent> events =
        monitor.ObserveBatch(std::move(batch));
    const std::uint64_t end = NowNs();
    log.Add("core.score", start, end, static_cast<std::int64_t>(k));
    plan.reference_ns += end - start;
    for (const omg::core::MonitorEvent& event : events) {
      qualified = prefix;
      qualified += event.assertion;
      plan.reference.Add(event.example_index, qualified, event.severity);
    }
  }
  plan.reference_examples = batches * plan.batch();
}

void ReferenceFor(StreamPlan& plan, std::size_t window,
                  std::size_t settle_lag, std::size_t batches,
                  SpanLog& log) {
  const std::string& domain = plan.spec.domain;
  if (domain == "video") {
    omg::config::AssertionFactory<omg::video::VideoExample> factory;
    omg::video::RegisterVideoAssertions(factory);
    RunReference(factory, window, settle_lag, batches, plan, log);
  } else if (domain == "av") {
    omg::config::AssertionFactory<omg::av::AvExample> factory;
    omg::av::RegisterAvAssertions(factory);
    RunReference(factory, window, settle_lag, batches, plan, log);
  } else if (domain == "ecg") {
    omg::config::AssertionFactory<omg::ecg::EcgExample> factory;
    omg::ecg::RegisterEcgAssertions(factory);
    RunReference(factory, window, settle_lag, batches, plan, log);
  } else if (domain == "tvnews") {
    omg::config::AssertionFactory<omg::tvnews::NewsFrame> factory;
    omg::tvnews::RegisterNewsAssertions(factory);
    RunReference(factory, window, settle_lag, batches, plan, log);
  } else {
    throw std::runtime_error("no reference suite for domain " + domain);
  }
}

/// Runs every stream's reference on `threads` threads, one stream per
/// thread at a time; each reference itself is single-threaded.
std::vector<SpanLog> RunReferences(std::vector<StreamPlan>& plans,
                                   const omg::config::RuntimeSpec& runtime,
                                   std::size_t threads, bool trace,
                                   std::uint64_t run_id) {
  std::atomic<std::size_t> next{0};
  std::vector<SpanLog> logs;
  for (std::size_t t = 0; t < threads; ++t) logs.emplace_back(trace, run_id);
  std::vector<std::exception_ptr> failures(threads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (std::size_t i = next++; i < plans.size(); i = next++) {
          StreamPlan& plan = plans[i];
          ReferenceFor(plan, runtime.window, runtime.settle_lag,
                       plan.batches, logs[t]);
        }
      } catch (...) {
        failures[t] = std::current_exception();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
  return logs;
}

// ------------------------------------------------------------ prepare ---

void PutBytes(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

template <typename T>
void Put(std::string& out, T value) {
  PutBytes(out, &value, sizeof(value));
}

/// Reads back what PutBytes/Put wrote.
class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  void Bytes(void* data, std::size_t size) {
    if (size > in_.size() - pos_) {
      throw std::runtime_error("truncated data from the preparing process");
    }
    std::memcpy(data, in_.data() + pos_, size);
    pos_ += size;
  }

  template <typename T>
  T Get() {
    T value{};
    Bytes(&value, sizeof(value));
    return value;
  }

 private:
  std::string_view in_;
  std::size_t pos_ = 0;
};

/// What serving needs from the preparing process: per plan its frames and
/// the reference's digest and timing, then the reference's spans.
std::string SerializePrepared(const std::vector<StreamPlan>& plans,
                              const std::vector<SpanLog>& logs) {
  std::string out;
  for (const StreamPlan& plan : plans) {
    Put<std::uint64_t>(out, plan.frames.size());
    for (const std::vector<std::uint8_t>& frame : plan.frames) {
      Put<std::uint64_t>(out, frame.size());
      PutBytes(out, frame.data(), frame.size());
    }
    Put<std::uint64_t>(out, plan.reference.hash);
    Put<std::uint64_t>(out, plan.reference.count);
    Put<std::uint64_t>(out, plan.reference_ns);
    Put<std::uint64_t>(out, plan.reference_examples);
  }
  Put<std::uint64_t>(out, logs.size());
  for (const SpanLog& log : logs) {
    Put<std::uint64_t>(out, log.spans().size());
    for (const Span& span : log.spans()) {
      Put<std::uint64_t>(out, span.start_ns);
      Put<std::uint64_t>(out, span.end_ns);
      Put<std::int64_t>(out, span.batch_id);
    }
  }
  return out;
}

std::vector<SpanLog> DeserializePrepared(std::string_view in, bool trace,
                                         std::uint64_t run_id,
                                         std::vector<StreamPlan>& plans) {
  Reader reader(in);
  for (StreamPlan& plan : plans) {
    plan.frames.resize(reader.Get<std::uint64_t>());
    for (std::vector<std::uint8_t>& frame : plan.frames) {
      frame.resize(reader.Get<std::uint64_t>());
      reader.Bytes(frame.data(), frame.size());
    }
    plan.reference.hash = reader.Get<std::uint64_t>();
    plan.reference.count = reader.Get<std::uint64_t>();
    plan.reference_ns = reader.Get<std::uint64_t>();
    plan.reference_examples = reader.Get<std::uint64_t>();
  }
  std::vector<SpanLog> logs(reader.Get<std::uint64_t>(),
                            SpanLog(trace, run_id));
  for (SpanLog& log : logs) {
    const auto spans = reader.Get<std::uint64_t>();
    for (std::uint64_t i = 0; i < spans; ++i) {
      const auto start = reader.Get<std::uint64_t>();
      const auto end = reader.Get<std::uint64_t>();
      log.Add("core.score", start, end, reader.Get<std::int64_t>());
    }
  }
  return logs;
}

void WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t wrote = write(fd, data.data(), data.size());
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return;
    data.remove_prefix(static_cast<std::size_t>(wrote));
  }
}

/// Reads `size` bytes, or fewer if the writer closed early.
std::string ReadAll(int fd, std::size_t size) {
  std::string data(size, '\0');
  std::size_t got = 0;
  while (got < size) {
    const ssize_t read_now = read(fd, data.data() + got, size - got);
    if (read_now < 0 && errno == EINTR) continue;
    if (read_now <= 0) break;
    got += static_cast<std::size_t>(read_now);
  }
  data.resize(got);
  return data;
}

/// Runs `work` in a forked copy of this process, which must have no other
/// threads, waits for the copy to exit, and returns what `work` returned.
/// An exception in the copy is rethrown here with its message.
std::string RunInChild(const std::function<std::string()>& work) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork() failed");
  }
  if (child == 0) {
    close(fds[0]);
    char status = 0;
    std::string payload;
    try {
      payload = work();
    } catch (const std::exception& error) {
      status = 1;
      payload = error.what();
    } catch (...) {
      status = 1;
      payload = "unknown error";
    }
    std::string header(1, status);
    Put<std::uint64_t>(header, payload.size());
    WriteAll(fds[1], header);
    WriteAll(fds[1], payload);
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  const std::string header = ReadAll(fds[0], 1 + sizeof(std::uint64_t));
  std::string payload;
  if (header.size() == 1 + sizeof(std::uint64_t)) {
    std::uint64_t size = 0;
    std::memcpy(&size, header.data() + 1, sizeof(size));
    payload = ReadAll(fds[0], size);
  }
  close(fds[0]);
  int wait_status = 0;
  while (waitpid(child, &wait_status, 0) < 0 && errno == EINTR) {
  }
  if (header.size() != 1 + sizeof(std::uint64_t) ||
      !WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
    throw std::runtime_error("a child process of the benchmark failed");
  }
  if (header[0] != 0) throw std::runtime_error(payload);
  return payload;
}

/// Generates the inputs, encodes them as frames and runs the reference in
/// a child process, which sends back only the frames and the reference's
/// digest and timing. The serving process's heap then holds no memory that
/// input generation or the reference freed: the allocator would hand that
/// memory, already resident, to the program, and the peak-RSS counter would
/// not see the program's growth. Returns the reference's span logs.
std::vector<SpanLog> Prepare(const WorkloadDef& def,
                             const omg::config::ScenarioSpec& scenario,
                             std::uint64_t seed, std::size_t threads,
                             bool trace, std::uint64_t run_id,
                             std::vector<StreamPlan>& plans) {
  const std::string payload = RunInChild([&] {
    GenerateInputs(def, scenario, seed, plans);
    EncodeFrames(plans);
    return SerializePrepared(
        plans,
        RunReferences(plans, scenario.runtime, threads, trace, run_id));
  });
  return DeserializePrepared(payload, trace, run_id, plans);
}

// --------------------------------------------------------------- sink ---

/// The benchmark's subscribed sink: per-stream flag digest and the flag
/// latency of every kLatencyStride-th event. Shard workers
/// deliver one stream's events serially (never concurrently), so each
/// stream's slot is written by one thread at a time; slots are
/// cache-line aligned so streams on different shards do not false-share.
class BenchSink final : public omg::runtime::EventSink {
 public:
  struct alignas(64) Stream {
    StreamPlan* plan = nullptr;
    FlagDigest digest;
  };

  BenchSink(std::size_t settle_lag, std::vector<Stream> streams)
      : settle_lag_(settle_lag), streams_(std::move(streams)) {}

  /// Sets the schedule's first due time; call before the first batch.
  void Arm(std::uint64_t t0_ns) {
    t0_ns_.store(t0_ns, std::memory_order_release);
  }

  void Consume(const omg::runtime::StreamEvent& event) override {
    const std::uint64_t now = NowNs();
    if (event.stream_id >= streams_.size() ||
        streams_[event.stream_id].plan == nullptr) {
      unknown_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Stream& stream = streams_[event.stream_id];
    stream.digest.Add(event.example_index, event.assertion, event.severity);
    StreamPlan& plan = *stream.plan;
    const std::size_t trigger = TriggerBatch(
        event.example_index, settle_lag_, plan.length(), plan.batch());
    if (trigger >= plan.due_offset_ns.size()) {
      unknown_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if ((stream.digest.count - 1) % kLatencyStride != 0) return;
    const std::uint64_t offset = plan.due_offset_ns[trigger];
    const std::uint64_t due =
        t0_ns_.load(std::memory_order_acquire) + offset;
    plan.latency.push_back(
        {now > due ? static_cast<float>(static_cast<double>(now - due) / 1e6)
                   : 0.0f,
         static_cast<std::uint32_t>(offset / kLatencyWindowNs)});
  }

  const std::vector<Stream>& streams() const { return streams_; }
  std::uint64_t unknown() const {
    return unknown_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t settle_lag_;
  std::vector<Stream> streams_;
  std::atomic<std::uint64_t> t0_ns_{0};
  std::atomic<std::uint64_t> unknown_{0};
};

// -------------------------------------------------------------- setup ---

/// One set-up monitor (and, on wire workloads, its server and client).
/// Members are destroyed in reverse order: subscription, client, server,
/// then the monitor they all point into.
struct Hosted {
  omg::config::ScenarioMonitor scenario;
  std::unique_ptr<omg::net::IngestServer> server;
  omg::net::ClientConnection client;
  /// Per plan: the stream's handle and (wire workloads) binding id.
  std::vector<omg::serve::StreamHandle> handles;
  std::vector<std::uint64_t> bindings;
  std::shared_ptr<BenchSink> sink;
  omg::serve::Subscription subscription;
};

template <typename T>
T Unwrap(omg::serve::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + ": " + result.error().message);
  }
  return std::move(result.value());
}

/// Wall times of one set-up and of its config steps, in seconds.
struct SetupTimes {
  double total = 0.0;
  double load = 0.0;
  double build = 0.0;
};

/// Config load + monitor build + stream registration + Subscribe, and on
/// wire workloads IngestServer::Start + connect/HELLO/BIND. Returns the
/// hosted monitor; `times` receives the set-up's wall times.
std::unique_ptr<Hosted> SetUp(const WorkloadDef& def,
                              const std::string& config_path,
                              const std::string& socket_path,
                              const omg::serve::DomainRegistry& domains,
                              std::vector<StreamPlan>& plans, SpanLog& log,
                              SetupTimes& times) {
  const std::uint64_t start = NowNs();
  const std::int64_t setup_span = log.Begin("setup");
  auto hosted = std::make_unique<Hosted>();

  std::int64_t span = log.Begin("config.load");
  const omg::config::ScenarioSpec spec =
      omg::config::ConfigLoader::LoadFile(config_path);
  log.End(span);
  const std::uint64_t loaded = NowNs();

  span = log.Begin("config.build");
  hosted->scenario = omg::config::BuildScenarioMonitor(spec, domains);
  log.End(span);
  const std::uint64_t built = NowNs();

  span = log.Begin("serve.subscribe");
  std::vector<BenchSink::Stream> slots;
  hosted->handles.resize(plans.size());
  for (const omg::config::BoundStream& bound : hosted->scenario.streams) {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (plans[i].spec.name != bound.spec.name) continue;
      hosted->handles[i] = bound.handle;
      const std::size_t id = bound.handle.id();
      if (slots.size() <= id) slots.resize(id + 1);
      slots[id].plan = &plans[i];
      plans[i].latency.clear();
    }
  }
  hosted->sink = std::make_shared<BenchSink>(spec.runtime.settle_lag,
                                             std::move(slots));
  hosted->subscription =
      hosted->scenario.monitor->Subscribe({}, hosted->sink);
  log.End(span);

  if (def.transport == Transport::kUds) {
    span = log.Begin("net.start");
    omg::net::IngestServerOptions options;
    options.uds_path = socket_path;
    options.handler_threads = spec.server.handler_threads;
    options.max_frame_bytes = spec.server.max_frame_bytes;
    hosted->server = std::make_unique<omg::net::IngestServer>(
        options, *hosted->scenario.monitor, domains);
    for (const omg::config::BoundStream& bound : hosted->scenario.streams) {
      hosted->server->ExposeStream(bound.handle);
    }
    Unwrap(hosted->server->Start(), "IngestServer::Start");
    log.End(span);

    span = log.Begin("net.connect");
    hosted->client = Unwrap(
        omg::net::ClientConnection::ConnectUds(socket_path), "ConnectUds");
    Unwrap(hosted->client.Hello("perfbench", ""), "HELLO");
    for (const StreamPlan& plan : plans) {
      hosted->bindings.push_back(Unwrap(
          hosted->client.BindStream(plan.spec.domain, plan.spec.name),
          "BIND " + plan.spec.name));
    }
    log.End(span);
  }
  log.End(setup_span);
  times.total = static_cast<double>(NowNs() - start) / 1e9;
  times.load = static_cast<double>(loaded - start) / 1e9;
  times.build = static_cast<double>(built - loaded) / 1e9;
  return hosted;
}

// ---------------------------------------------------------- generator ---

struct GeneratorResult {
  /// CPU the generator thread spent outside calls into the system under
  /// test: pacing, decoding or sending frames.
  std::uint64_t cpu_ns = 0;
  /// How late each batch was offered; capacity reserved by the caller.
  std::vector<double>* lag_ms = nullptr;
  std::vector<std::uint64_t> offered_per_plan;
  std::uint64_t offered = 0;
  std::vector<std::string> errors;
  SpanLog log{false, 0};
};

void SleepUntil(std::uint64_t due_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due_ns / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(due_ns % 1'000'000'000ULL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// The open-loop load generator: offers every scheduled batch at its due
/// time (late if the previous call blocked, never skipped). In-process
/// workloads decode the batch's frame before waiting, so the decode is
/// not in the measured latency; wire workloads send the frame.
/// In process, Monitor::ObserveBatch runs on this thread; the CPU it takes
/// is the program's, so it is left out of `result.cpu_ns`.
void Generate(const WorkloadDef& def, const std::vector<Slot>& schedule,
              const std::vector<StreamPlan>& plans, Hosted& hosted,
              std::uint64_t t0_ns, int generator_cpu,
              GeneratorResult& result) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PinTo({generator_cpu});
  const std::uint64_t cpu_start = ThreadCpuNs();
  std::uint64_t observe_cpu_ns = 0;
  result.lag_ms->clear();
  result.offered_per_plan.assign(plans.size(), 0);
  omg::serve::Monitor& monitor = *hosted.scenario.monitor;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Slot& slot = schedule[i];
    const StreamPlan& plan = plans[slot.stream];
    const auto batch_id = static_cast<std::int64_t>(i);
    const std::uint64_t due = t0_ns + slot.due_offset_ns;
    const std::vector<std::uint8_t>& frame =
        plan.frames[plan.PoolOffset(slot.batch) / plan.batch()];
    if (def.transport == Transport::kInProcess) {
      auto decoded = omg::net::DecodeBatch(
          *plan.codec, frame, static_cast<std::uint32_t>(plan.batch()));
      if (!decoded.ok()) {
        throw std::runtime_error("DecodeBatch failed on a benchmark frame: " +
                                 decoded.error().message);
      }
      std::vector<AnyExample> batch = std::move(decoded.value());
      SleepUntil(due);
      const std::uint64_t start = NowNs();
      const std::uint64_t cpu_before = ThreadCpuNs();
      const auto outcome =
          monitor.ObserveBatch(hosted.handles[slot.stream], std::move(batch));
      observe_cpu_ns += ThreadCpuNs() - cpu_before;
      const std::uint64_t end = NowNs();
      result.log.Add("serve.observe_batch", start, end, batch_id);
      result.lag_ms->push_back(
          start > due ? static_cast<double>(start - due) / 1e6 : 0.0);
      if (!outcome.ok()) result.errors.push_back(outcome.error().message);
    } else {
      SleepUntil(due);
      const std::uint64_t start = NowNs();
      const auto sent = hosted.client.SendEncoded(
          hosted.bindings[slot.stream], plan.spec.domain,
          static_cast<std::uint32_t>(plan.batch()), frame,
          plan.spec.severity_hint);
      const std::uint64_t end = NowNs();
      result.log.Add("net.send", start, end, batch_id);
      result.lag_ms->push_back(
          start > due ? static_cast<double>(start - due) / 1e6 : 0.0);
      if (!sent.ok()) result.errors.push_back(sent.error().message);
    }
    result.offered_per_plan[slot.stream] += plan.batch();
    result.offered += plan.batch();
  }
  result.cpu_ns = ThreadCpuNs() - cpu_start - observe_cpu_ns;
}

// --------------------------------------------------------------- pass ---

/// What one serving pass measured.
struct Pass {
  std::vector<SetupTimes> setups;
  double window_s = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t scored = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t errored = 0;
  std::uint64_t quota_rejected = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t priority_offered = 0;
  std::uint64_t priority_scored = 0;
  std::uint64_t failed = 0;
  /// Sampled flag latencies, per schedule window.
  std::vector<std::vector<double>> latency_windows;
  /// Time stolen from the benchmark's processors in each window.
  std::vector<double> window_steal_ms;
  double cpu_us_per_example = 0.0;
  double rss_baseline_mb = 0.0;
  double rss_peak_mb = 0.0;
  double host_steal_ms = 0.0;
  Quantile gen_lag_ms;
  omg::runtime::MetricsSnapshot snapshot;
  std::vector<SpanLog> logs;  // main thread first, then the generator
  std::vector<std::string> problems;
};

struct Context {
  const WorkloadDef* def = nullptr;
  std::string config_path;
  std::string socket_path;
  const omg::serve::DomainRegistry* domains = nullptr;
  std::vector<StreamPlan>* plans = nullptr;
  const std::vector<Slot>* schedule = nullptr;
  /// Every processor the benchmark runs on; the generator's is the last.
  std::vector<int> cpus;
  /// The generator's lateness per batch, reserved before the peak-RSS
  /// reset.
  std::vector<double>* lag_ms = nullptr;
};

/// Times kSetups set-ups, back to back, in a forked copy of this process.
std::vector<SetupTimes> TimeSetUpsInChild(const Context& ctx) {
  const std::string payload = RunInChild([&] {
    std::vector<SetupTimes> times(kSetups);
    SpanLog untraced(false, 0);
    std::unique_ptr<Hosted> hosted;
    for (SetupTimes& one : times) {
      hosted.reset();  // the previous set-up's teardown is not timed
      hosted = SetUp(*ctx.def, ctx.config_path, ctx.socket_path,
                     *ctx.domains, *ctx.plans, untraced, one);
    }
    hosted.reset();
    return std::string(reinterpret_cast<const char*>(times.data()),
                       times.size() * sizeof(SetupTimes));
  });
  std::vector<SetupTimes> times(payload.size() / sizeof(SetupTimes));
  std::memcpy(times.data(), payload.data(), times.size() * sizeof(SetupTimes));
  return times;
}

Pass Serve(const Context& ctx, bool traced, std::uint64_t run_id) {
  Pass pass;
  SpanLog main_log(traced, run_id);
  std::vector<StreamPlan>& plans = *ctx.plans;

  pass.rss_baseline_mb = CurrentRssMb();
  auto time_set_ups = [&] {
    for (std::size_t i = 0; i < kSetupProcesses / 2; ++i) {
      const std::vector<SetupTimes> times = TimeSetUpsInChild(ctx);
      pass.setups.insert(pass.setups.end(), times.begin(), times.end());
    }
  };
  time_set_ups();
  // The set-up that serves, timed like the others.
  pass.setups.emplace_back();
  std::unique_ptr<Hosted> hosted =
      SetUp(*ctx.def, ctx.config_path, ctx.socket_path, *ctx.domains, plans,
            main_log, pass.setups.back());

  // The first batch is due shortly after set-up ends, so the generator
  // starts on schedule rather than already late.
  const std::uint64_t t0 = NowNs() + 5'000'000;
  hosted->sink->Arm(t0);
  const std::uint64_t cpu_before = ProcessCpuNs();
  const std::vector<double> steal_before = StealMsPerCpu();
  GeneratorResult generated;
  generated.lag_ms = ctx.lag_ms;
  generated.log = SpanLog(traced, run_id);
  std::exception_ptr generator_failure;
  std::thread generator([&] {
    try {
      Generate(*ctx.def, *ctx.schedule, plans, *hosted, t0,
               ctx.cpus.back(), generated);
    } catch (...) {
      generator_failure = std::current_exception();
    }
  });
  // While the generator runs, note the time stolen in each latency window.
  // This thread's CPU for it is the benchmark's, like the generator's.
  const std::uint64_t sampler_cpu_start = ThreadCpuNs();
  const std::uint64_t last_due = t0 + ctx.schedule->back().due_offset_ns;
  std::vector<double> steal = steal_before;
  for (std::uint64_t end = t0 + kLatencyWindowNs;
       end < last_due + kLatencyWindowNs; end += kLatencyWindowNs) {
    SleepUntil(end);
    std::vector<double> now = StealMsPerCpu();
    pass.window_steal_ms.push_back(StolenMs(steal, now, ctx.cpus));
    steal = std::move(now);
  }
  const std::uint64_t sampler_cpu = ThreadCpuNs() - sampler_cpu_start;
  generator.join();
  if (generator_failure) std::rethrow_exception(generator_failure);

  const std::int64_t flush_span = main_log.Begin("serve.flush");
  if (ctx.def->transport == Transport::kUds) {
    Unwrap(hosted->client.Flush(), "FLUSH");
  } else {
    hosted->scenario.monitor->Flush();
  }
  main_log.End(flush_span);
  const std::uint64_t t_end = NowNs();
  const std::uint64_t cpu_after = ProcessCpuNs();
  pass.host_steal_ms = StolenMs(steal_before, StealMsPerCpu(), ctx.cpus);
  pass.rss_peak_mb = PeakRssMb();

  pass.window_s = static_cast<double>(t_end - t0) / 1e9;
  pass.offered = generated.offered;
  pass.cpu_us_per_example =
      static_cast<double>(ServingCpuNs(cpu_before, cpu_after,
                                       generated.cpu_ns + sampler_cpu)) /
      1e3 / static_cast<double>(std::max<std::uint64_t>(1, pass.offered));
  pass.gen_lag_ms = QuantileOf(*generated.lag_ms, 0.99);
  for (const std::string& error : generated.errors) {
    pass.problems.push_back("offer failed: " + error);
    if (pass.problems.size() > 8) break;
  }

  // The monitor is fresh, so its counters cover exactly the timed window.
  pass.snapshot = hosted->scenario.monitor->Metrics();
  const omg::runtime::MetricsSnapshot& snapshot = pass.snapshot;
  pass.scored = snapshot.examples_seen;
  pass.shed = snapshot.TotalShedExamples();
  pass.dropped = snapshot.TotalDroppedExamples();
  pass.errored = snapshot.TotalErroredExamples();
  for (const std::string& error : hosted->scenario.monitor->Errors()) {
    pass.problems.push_back("scoring error: " + error);
  }

  if (ctx.def->transport == Transport::kUds) {
    const std::vector<std::uint64_t> wire =
        Unwrap(hosted->client.Stats(), "STATS");
    // [offered, admitted, quota_rejected, decode_errors, scored, shed,
    //  dropped, errored]
    pass.quota_rejected = wire[2];
    pass.decode_errors = wire[3];
    pass.wire_bytes = hosted->client.bytes_sent();
    if (wire[0] != pass.offered) {
      pass.problems.push_back("server saw " + std::to_string(wire[0]) +
                              " offered examples, client sent " +
                              std::to_string(pass.offered));
    }
    if (pass.scored + pass.shed + pass.dropped + pass.errored +
            pass.quota_rejected + pass.decode_errors !=
        wire[0]) {
      pass.problems.push_back(
          "wire identity broken: offered != scored + shed + dropped + "
          "errored + quota_rejected + decode_errors");
    }
  }
  if (pass.scored + pass.shed + pass.dropped + pass.errored +
          pass.quota_rejected + pass.decode_errors !=
      pass.offered) {
    pass.problems.push_back(
        "accounting identity broken: offered " +
        std::to_string(pass.offered) + " != scored " +
        std::to_string(pass.scored) + " + shed " + std::to_string(pass.shed) +
        " + dropped " + std::to_string(pass.dropped) + " + errored " +
        std::to_string(pass.errored));
  }

  // Per-stream checks: every stream fully scored (block admission sheds
  // nothing, so every stream is above the floor), and its flags equal to
  // the single-thread reference.
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const StreamPlan& plan = plans[i];
    const std::size_t id = hosted->handles[i].id();
    const std::uint64_t offered = generated.offered_per_plan[i];
    const std::uint64_t scored =
        id < snapshot.streams.size() ? snapshot.streams[id].examples_seen : 0;
    pass.priority_offered += offered;
    pass.priority_scored += scored;
    pass.failed += offered > scored ? offered - scored : 0;
    if (scored != offered) {
      pass.problems.push_back("stream " + plan.spec.name + ": scored " +
                              std::to_string(scored) + " of " +
                              std::to_string(offered) + " examples");
    }
    const BenchSink::Stream& slot = hosted->sink->streams()[id];
    if (!(slot.digest == plan.reference)) {
      pass.problems.push_back(
          "stream " + plan.spec.name + ": flags differ from the core "
          "reference (" + std::to_string(slot.digest.count) + " vs " +
          std::to_string(plan.reference.count) + " events)");
    }
    for (const LatencySample& sample : plan.latency) {
      if (pass.latency_windows.size() <= sample.window) {
        pass.latency_windows.resize(sample.window + 1);
      }
      pass.latency_windows[sample.window].push_back(sample.ms);
    }
  }
  if (hosted->sink->unknown() != 0) {
    pass.problems.push_back(std::to_string(hosted->sink->unknown()) +
                            " events from unknown streams or batches");
  }

  // The other half of the set-up copies run a run length later, since the
  // host's speed drifts over seconds. Forking needs this process to have
  // no other threads, so the monitor and its server stop first.
  hosted.reset();
  time_set_ups();

  pass.logs.push_back(std::move(main_log));
  pass.logs.push_back(std::move(generated.log));
  return pass;
}

// ------------------------------------------------------------ metrics ---

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// The fastest set-up's `field` (SetupTimes::total, ::load or ::build).
double Fastest(const std::vector<SetupTimes>& setups,
               double SetupTimes::*field) {
  double fastest = 0.0;
  for (const SetupTimes& setup : setups) {
    if (fastest == 0.0 || setup.*field < fastest) fastest = setup.*field;
  }
  return fastest;
}

std::vector<double> Scaled(std::vector<double> values, double scale) {
  for (double& value : values) value *= scale;
  return values;
}

std::vector<double> NamedSpans(const std::vector<SpanLog>& logs,
                               std::string_view name) {
  std::vector<double> all;
  for (const SpanLog& log : logs) {
    const std::vector<double> named = SelfTimesNamed(log.spans(), name);
    all.insert(all.end(), named.begin(), named.end());
  }
  return all;
}

/// Flag-latency quantile `q` over the pass's unstolen windows (or all of
/// them; see UnstolenSamples).
Quantile FlagLatency(const Pass& pass, double q, bool& clean_only,
                     std::size_t& clean_windows) {
  return QuantileOf(UnstolenSamples(pass.latency_windows, pass.window_steal_ms,
                                    kMinUnstolenShare, clean_only,
                                    clean_windows),
                    q);
}

void EndToEnd(const Pass& pass, std::vector<Metric>& out) {
  out.push_back({"goodput_eps",
                 Ratio(static_cast<double>(pass.scored), pass.window_s),
                 "1/s"});
  out.push_back({"served_frac",
                 Ratio(static_cast<double>(pass.scored),
                       static_cast<double>(pass.offered)),
                 "ratio"});
  out.push_back({"priority_served_frac",
                 Ratio(static_cast<double>(pass.priority_scored),
                       static_cast<double>(pass.priority_offered)),
                 "ratio"});
  out.push_back({"cpu_us_per_example", pass.cpu_us_per_example, "us"});
  out.push_back({"serve_rss_mb", pass.rss_peak_mb, "MiB"});
  out.push_back({"setup_s", Fastest(pass.setups, &SetupTimes::total), "s"});
}

/// Single-thread DecodeBatch over the workload's pre-encoded frames.
double DecodeNsPerExample(const std::vector<StreamPlan>& plans,
                          SpanLog& log) {
  std::uint64_t total_ns = 0;
  std::size_t examples = 0;
  for (const StreamPlan& plan : plans) {
    const omg::net::PayloadCodec& codec = *plan.codec;
    for (std::size_t k = 0; k < plan.frames.size(); ++k) {
      const std::uint64_t start = NowNs();
      const auto decoded = omg::net::DecodeBatch(
          codec, plan.frames[k], static_cast<std::uint32_t>(plan.batch()));
      const std::uint64_t end = NowNs();
      log.Add("net.decode", start, end, static_cast<std::int64_t>(k));
      if (!decoded.ok()) {
        throw std::runtime_error("DecodeBatch failed on a benchmark frame: " +
                                 decoded.error().message);
      }
      total_ns += end - start;
      examples += plan.batch();
    }
  }
  return Ratio(static_cast<double>(total_ns), static_cast<double>(examples));
}

void PerLayer(const Context& ctx, const Pass& untraced, const Pass& traced,
              double decode_ns_per_example, std::size_t busy_threads,
              std::vector<Metric>& out) {
  const std::vector<StreamPlan>& plans = *ctx.plans;
  const omg::runtime::MetricsSnapshot& snapshot = traced.snapshot;

  // End to end, but without a bound: flag latency does not repeat on a
  // host whose hypervisor steals processor time (perfbench/NOTES.md).
  bool clean_only = false;
  std::size_t clean_windows = 0;
  out.push_back({"flag_latency_ms.p50",
                 FlagLatency(traced, 0.50, clean_only, clean_windows).value,
                 "ms"});
  out.push_back({"flag_latency_ms.p99",
                 FlagLatency(traced, 0.99, clean_only, clean_windows).value,
                 "ms"});

  // The fastest of the set-ups, as setup_s.
  out.push_back({"config.load_ms",
                 Fastest(traced.setups, &SetupTimes::load) * 1e3, "ms"});
  out.push_back({"config.build_ms",
                 Fastest(traced.setups, &SetupTimes::build) * 1e3, "ms"});

  out.push_back({"net.decode_ns_per_example", decode_ns_per_example, "ns"});
  out.push_back({"net.send_us.p99",
                 QuantileOf(Scaled(NamedSpans(traced.logs, "net.send"), 1e-3),
                            0.99)
                     .value,
                 "us"});
  double frame_bytes = 0.0;
  double frame_examples = 0.0;
  for (const StreamPlan& plan : plans) {
    for (const auto& frame : plan.frames) {
      frame_bytes += static_cast<double>(frame.size() +
                                         omg::net::FrameHeader::kBytes);
      frame_examples += static_cast<double>(plan.batch());
    }
  }
  out.push_back({"net.wire_bytes_per_example",
                 ctx.def->transport == Transport::kUds
                     ? Ratio(static_cast<double>(traced.wire_bytes),
                             static_cast<double>(traced.offered))
                     : Ratio(frame_bytes, frame_examples),
                 "B"});
  out.push_back({"net.decode_errors",
                 static_cast<double>(traced.decode_errors), "count"});
  out.push_back({"net.quota_rejected",
                 static_cast<double>(traced.quota_rejected), "count"});

  const std::vector<double> observe_us =
      Scaled(NamedSpans(traced.logs, "serve.observe_batch"), 1e-3);
  out.push_back({"serve.observe_batch_us.p50",
                 QuantileOf(observe_us, 0.50).value, "us"});
  out.push_back({"serve.observe_batch_us.p99",
                 QuantileOf(observe_us, 0.99).value, "us"});
  out.push_back({"serve.events_per_example",
                 Ratio(static_cast<double>(snapshot.events),
                       static_cast<double>(snapshot.examples_seen)),
                 "count"});
  out.push_back({"serve.flush_ms",
                 Median(NamedSpans(traced.logs, "serve.flush")) / 1e6, "ms"});

  double busy_ns = 0.0;
  double batches = 0.0;
  double queue_wait_ns = 0.0;
  double stolen = 0.0;
  double busy_frac_max = 0.0;
  double depth_peak = 0.0;
  for (const omg::runtime::ShardMetrics& shard : snapshot.shards) {
    busy_ns += static_cast<double>(shard.busy_ns + shard.steal_ns);
    batches += static_cast<double>(shard.batches + shard.errored_batches);
    queue_wait_ns += static_cast<double>(shard.queue_wait_ns);
    stolen += static_cast<double>(shard.stolen_examples);
    busy_frac_max = std::max(busy_frac_max, shard.BusyFraction());
    depth_peak =
        std::max(depth_peak, static_cast<double>(shard.queue_depth_peak));
  }
  const double offered = static_cast<double>(traced.offered);
  out.push_back({"runtime.service_us_per_batch",
                 Ratio(busy_ns, batches) / 1e3, "us"});
  out.push_back({"runtime.busy_frac.max", busy_frac_max, "ratio"});
  out.push_back({"runtime.queue_wait_ms.mean",
                 Ratio(queue_wait_ns, batches) / 1e6, "ms"});
  out.push_back({"runtime.stolen_frac",
                 Ratio(stolen, static_cast<double>(snapshot.examples_seen)),
                 "ratio"});
  out.push_back({"runtime.shed_frac",
                 Ratio(static_cast<double>(traced.shed), offered), "ratio"});
  out.push_back({"runtime.dropped_frac",
                 Ratio(static_cast<double>(traced.dropped), offered),
                 "ratio"});
  out.push_back({"runtime.queue_depth_peak", depth_peak, "count"});
  out.push_back({"runtime.observe_to_flag_ms.p99",
                 snapshot.MergedLatency().Quantile(0.99) * 1e3, "ms"});

  for (const char* domain : {"video", "av", "ecg", "tvnews"}) {
    double ns = 0.0;
    double examples = 0.0;
    for (const StreamPlan& plan : plans) {
      if (plan.spec.domain != domain) continue;
      ns += static_cast<double>(plan.reference_ns);
      examples += static_cast<double>(plan.reference_examples);
    }
    out.push_back({std::string("core.score_ns_per_example.") + domain,
                   Ratio(ns, examples), "ns"});
  }

  out.push_back({"obs.bench_trace_overhead_frac",
                 Ratio(traced.cpu_us_per_example, untraced.cpu_us_per_example) -
                     1.0,
                 "ratio"});
  out.push_back({"gen.lag_ms.p99", traced.gen_lag_ms.value, "ms"});
  out.push_back({"gen.threads", static_cast<double>(busy_threads), "count"});
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string JsonString(std::string_view text) {
  return "\"" + omg::runtime::JsonEscape(text) + "\"";
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The host, build and run fingerprint every output carries, as a JSON
/// object.
std::string Fingerprint(const RunOptions& options, long processors,
                        std::size_t busy_threads) {
  std::string out = "{\"nproc\":" + std::to_string(processors);
  out += ",\"cpu_model\":" + JsonString(CpuModel());
  out += ",\"compiler\":" + JsonString(PERFBENCH_COMPILER);
  out += ",\"flags\":" + JsonString(PERFBENCH_FLAGS);
  out += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"busy_threads\":" + std::to_string(busy_threads) + "}";
  return out;
}

/// Writes the fingerprint line, then every log's spans, as JSON lines.
void WriteSpans(const std::string& path, const std::string& fingerprint,
                const std::vector<std::pair<std::string, const SpanLog*>>&
                    logs) {
  std::string out = "{\"fingerprint\":" + fingerprint + "}\n";
  for (const auto& [name, log] : logs) {
    AppendSpansJsonl(log->spans(), name, out);
  }
  std::ofstream file(path, std::ios::binary);
  file << out;
  if (!file) throw std::runtime_error("cannot write span file " + path);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& def : Workloads()) names.emplace_back(def.name);
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& candidate : Workloads()) {
    if (options.workload == candidate.name) def = &candidate;
  }
  if (def == nullptr) {
    throw std::runtime_error("unknown workload '" + options.workload + "'");
  }
  const std::string config_path = options.config_dir + "/" + def->config;
  const omg::config::ScenarioSpec scenario =
      omg::config::ConfigLoader::LoadFile(config_path);

  // The load generator runs on a processor of its own, apart from the
  // system under test; the process, and with it every thread the monitor,
  // the server and the reference start, is confined to the others. Busy
  // threads while serving are the generator, every shard worker and, on
  // wire workloads, every connection handler; more than the host has
  // processors would measure the scheduler, not the system.
  const long processors = sysconf(_SC_NPROCESSORS_ONLN);
  const std::vector<int> allowed = AllowedCpus();
  const std::size_t serving_threads =
      scenario.runtime.shards +
      (def->transport == Transport::kUds ? scenario.server.handler_threads
                                         : 0);
  const std::size_t busy_threads = serving_threads + 1;
  if (allowed.size() < 2 || serving_threads > allowed.size() - 1) {
    throw std::runtime_error(
        "workload " + options.workload + " needs " +
        std::to_string(busy_threads) + " busy threads but the process may "
        "run on " + std::to_string(allowed.size()) + " processors");
  }
  if (!PinTo(std::vector<int>(allowed.begin(), allowed.end() - 1))) {
    throw std::runtime_error("cannot set the process's processor affinity");
  }

  const omg::serve::DomainRegistry domains =
      omg::serve::MakeDefaultDomainRegistry();
  std::vector<StreamPlan> plans(scenario.streams.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    StreamPlan& plan = plans[i];
    plan.spec = scenario.streams[i];
    plan.suite = *scenario.SuiteFor(plan.spec.domain);
    plan.codec = domains.CodecFor(plan.spec.domain);
    if (plan.codec == nullptr) {
      throw std::runtime_error("no wire codec for domain " +
                               plan.spec.domain);
    }
    std::size_t domain_streams = 0;
    for (const auto& stream : scenario.streams) {
      if (stream.domain == plan.spec.domain) ++domain_streams;
    }
    for (const auto& [domain, rate] : def->domain_rate_eps) {
      if (domain == plan.spec.domain) {
        plan.rate_eps = rate / static_cast<double>(domain_streams);
      }
    }
    if (plan.rate_eps <= 0.0) {
      throw std::runtime_error("no offered rate for domain " +
                               plan.spec.domain);
    }
  }

  // Schedule, inputs and reference are built once, before any set-up.
  const std::vector<Slot> schedule =
      BuildSchedule(plans, scenario.Domains(), options.seconds);
  const std::uint64_t run_id =
      Mix(options.seed ^ std::hash<std::string_view>{}(def->name));
  const std::vector<SpanLog> reference_logs = Prepare(
      *def, scenario, options.seed, std::min(allowed.size() - 1, plans.size()),
      options.trace, run_id, plans);

  Context ctx;
  ctx.def = def;
  ctx.config_path = config_path;
  ctx.socket_path = options.work_dir + "/pb-" + std::to_string(getpid()) +
                    ".sock";
  ctx.domains = &domains;
  ctx.plans = &plans;
  ctx.schedule = &schedule;
  ctx.cpus = allowed;

  // The benchmark's own result buffers are sized and touched now, so they
  // are part of the RSS baseline below, not of the serving growth.
  for (StreamPlan& plan : plans) {
    plan.latency.resize((plan.reference.count + kLatencyStride - 1) /
                        kLatencyStride);
  }
  std::vector<double> lag_ms(schedule.size());
  ctx.lag_ms = &lag_ms;

  // The peak-RSS counter restarts here, so it covers set-up and serving.
  // What is resident now is the benchmark's: the binary, the frames, the
  // schedule and the result buffers (the info line's rss_baseline_mb).
  const bool rss_reset = ResetPeakRss();

  const std::string fingerprint =
      Fingerprint(options, processors, busy_threads);
  RunResult result;
  Pass measured = Serve(ctx, false, run_id);
  if (options.trace) {
    Pass traced = Serve(ctx, true, run_id + 1);
    SpanLog calibration(true, run_id + 1);
    const double decode_ns = DecodeNsPerExample(plans, calibration);
    PerLayer(ctx, measured, traced, decode_ns, busy_threads, result.metrics);
    std::vector<std::pair<std::string, const SpanLog*>> logs = {
        {"main", &traced.logs[0]},
        {"generator", &traced.logs[1]},
        {"calibration", &calibration}};
    for (std::size_t i = 0; i < reference_logs.size(); ++i) {
      logs.emplace_back("reference-" + std::to_string(i), &reference_logs[i]);
    }
    WriteSpans(options.work_dir + "/spans-" + options.workload + "-seed" +
                   std::to_string(options.seed) + ".jsonl",
               fingerprint, logs);
    for (std::string& problem : traced.problems) {
      measured.problems.push_back("traced pass: " + problem);
    }
  } else {
    EndToEnd(measured, result.metrics);
  }

  result.attempted = measured.offered;
  result.failed = measured.failed;
  result.problems = measured.problems;
  result.correct = result.problems.empty() && measured.offered > 0;

  bool clean_only = false;
  std::size_t clean_windows = 0;
  const Quantile p50 = FlagLatency(measured, 0.50, clean_only, clean_windows);
  const Quantile p99 = FlagLatency(measured, 0.99, clean_only, clean_windows);
  std::vector<double> all_latency;
  for (const std::vector<double>& window : measured.latency_windows) {
    all_latency.insert(all_latency.end(), window.begin(), window.end());
  }
  const Quantile run_p50 = QuantileOf(all_latency, 0.50);
  const Quantile run_p99 = QuantileOf(std::move(all_latency), 0.99);
  std::vector<double> setup_totals;
  for (const SetupTimes& setup : measured.setups) {
    setup_totals.push_back(setup.total);
  }
  std::string info = "{\"fingerprint\":" + fingerprint;
  info += ",\"workload\":" + JsonString(options.workload);
  info += ",\"seconds\":" + JsonNumber(options.seconds);
  info += ",\"trace\":" + std::string(options.trace ? "true" : "false");
  info += ",\"offered\":" + std::to_string(measured.offered);
  info += ",\"scored\":" + std::to_string(measured.scored);
  info += ",\"shed\":" + std::to_string(measured.shed);
  info += ",\"dropped\":" + std::to_string(measured.dropped);
  info += ",\"window_s\":" + JsonNumber(measured.window_s);
  info += ",\"flag_latency_ms\":{\"p50\":" + JsonNumber(p50.value) +
          ",\"p99\":" + JsonNumber(p99.value) +
          ",\"samples\":" + std::to_string(p99.samples) +
          ",\"unstolen_only\":" + (clean_only ? "true" : "false") +
          ",\"unstolen_windows\":" + std::to_string(clean_windows) +
          ",\"windows\":" + std::to_string(measured.latency_windows.size()) +
          ",\"run_p50\":" + JsonNumber(run_p50.value) +
          ",\"run_p99\":" + JsonNumber(run_p99.value) +
          ",\"run_samples\":" + std::to_string(run_p99.samples) + "}";
  info += ",\"gen_lag_ms_p99\":" + JsonNumber(measured.gen_lag_ms.value);
  info += ",\"host_steal_ms\":" + JsonNumber(measured.host_steal_ms);
  info += ",\"gen_lag_samples\":" + std::to_string(measured.gen_lag_ms.samples);
  info += ",\"rss_peak_reset\":" + std::string(rss_reset ? "true" : "false");
  info += ",\"rss_baseline_mb\":" + JsonNumber(measured.rss_baseline_mb);
  info += ",\"rss_peak_mb\":" + JsonNumber(measured.rss_peak_mb);
  info += ",\"setup_ms\":{\"min\":" +
          JsonNumber(Fastest(measured.setups, &SetupTimes::total) * 1e3) +
          ",\"p50\":" + JsonNumber(Median(setup_totals) * 1e3) +
          ",\"samples\":" + std::to_string(setup_totals.size()) + "}";
  info += "}";
  result.info_json = std::move(info);
  return result;
}

}  // namespace perfbench
