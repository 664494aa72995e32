// The candidate pool of the online improvement loop.
//
// The paper's Figure-1 cycle assumes "a set of data points has been
// collected" before each bandit round (§3); at serving scale that set is not
// a benchmark pool but whatever the runtime flagged recently. The FlagStore
// is that set: a thread-safe, capacity-bounded pool of flagged candidates
// fed by a FlagCollectorSink (flag_collector.hpp) hanging off the
// serving engine, and snapshotted by the RoundScheduler into the
// bandit::RoundContext a SelectionStrategy expects.
//
// Capacity policy: when full, admission competes on severity rank — the
// candidate whose maximum per-assertion severity is lowest is evicted (or
// the newcomer is dropped if it ranks lowest). High-severity evidence is
// what BAL samples from, so that is what survives memory pressure.
#pragma once

#include <compare>
#include <cstddef>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "core/severity_matrix.hpp"
#include "runtime/event_sink.hpp"

namespace omg::loop {

/// Identity of a flagged example: which stream, and which position on it.
/// The loop looks candidates up in the domain's retained traffic by this key
/// (LabelOracle implementations resolve it to frames / windows / features).
struct CandidateKey {
  runtime::StreamId stream_id = 0;
  std::size_t example_index = 0;

  friend auto operator<=>(const CandidateKey&, const CandidateKey&) = default;
};

/// FlagStore parameters.
struct FlagStoreConfig {
  /// Maximum number of candidates retained; beyond it, severity-rank
  /// eviction kicks in.
  std::size_t capacity = 512;
  /// Number of assertion columns (the suite size the collector listens to).
  std::size_t num_assertions = 0;
};

/// Thread-safe, capacity-bounded pool of flagged examples with per-assertion
/// severities. All methods may be called concurrently (the collector sink
/// records from shard workers while the scheduler snapshots).
class FlagStore {
 public:
  explicit FlagStore(FlagStoreConfig config);

  const FlagStoreConfig& config() const { return config_; }

  /// Records `severity` of assertion `column` on `key`. Severities of one
  /// candidate merge by max (an assertion can re-fire on the same example
  /// via late emission). New candidates are admitted subject to capacity.
  void Record(const CandidateKey& key, std::size_t column, double severity);

  /// Current number of candidates.
  std::size_t size() const;

  /// Distinct candidates ever admitted (including later-evicted ones).
  std::size_t total_admitted() const;

  /// Candidates dropped under capacity pressure (evicted incumbents plus
  /// rejected newcomers).
  std::size_t evictions() const;

  /// Point-in-time copy of the pool: `severities` row i is `keys[i]`'s
  /// severity vector — exactly the severity matrix / bandit context of §3,
  /// restricted to the flagged live traffic.
  struct Snapshot {
    std::vector<CandidateKey> keys;  ///< ascending key order
    core::SeverityMatrix severities;  ///< row i is keys[i]'s severity vector
  };
  Snapshot TakeSnapshot() const;

  /// Removes candidates (typically after they were labeled); unknown keys
  /// are ignored. Returns how many were present and removed.
  std::size_t Remove(std::span<const CandidateKey> keys);

  void Clear();

 private:
  /// Eviction rank of a candidate: its maximum severity across assertions.
  static double RankOf(const std::vector<double>& severities);

  FlagStoreConfig config_;
  mutable Mutex mutex_;
  std::map<CandidateKey, std::vector<double>> candidates_
      OMG_GUARDED_BY(mutex_);
  /// Secondary index ordered by (rank, key): begin() is the eviction
  /// victim, so admission under capacity pressure is O(log n) on the
  /// collector's hot path instead of a scan over the whole pool.
  std::set<std::pair<double, CandidateKey>> ranks_ OMG_GUARDED_BY(mutex_);
  std::size_t total_admitted_ OMG_GUARDED_BY(mutex_) = 0;
  std::size_t evictions_ OMG_GUARDED_BY(mutex_) = 0;
};

}  // namespace omg::loop
