// Incremental sliding-window evaluation of an AssertionSuite.
//
// The seed's StreamingMonitor re-ran every assertion over the whole window
// on every Observe — O(window * suite) per example. This evaluator instead
// exploits each assertion's declared `temporal_radius` r (severity of
// example i depends only on examples [i - r, i + r]):
//
//   * pointwise assertions (r = 0) score only the newly arrived examples —
//     O(1) amortized per example;
//   * bounded stream assertions re-score just the window suffix a new
//     example can affect (the last batch + 2r examples), so batched
//     ingestion amortizes the redundant suffix work across the batch;
//   * unbounded assertions (consistency-generated ones that track
//     identifiers across the stream) fall back to full-window
//     re-evaluation, once per ingested chunk instead of once per example.
//
// Emission contract (the seed monitor's): each (example, assertion) firing
// is emitted exactly once, in stream order — normally when the example
// becomes `settle_lag` steps old. The emitted severity is final provided
// settle_lag >= the assertion's radius. A firing that only *appears* in a
// later re-evaluation (an unbounded assertion needing more right context,
// or a bounded one with settle_lag < radius) is emitted as soon as it
// appears, like the seed's per-step re-scan did.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/assertion.hpp"

namespace omg::core {

/// Incremental evaluator over one stream's sliding window.
///
/// Not thread-safe: the serving engine (runtime/sharded_service.hpp) lets
/// at most one shard worker drive an evaluator at a time; standalone users
/// (StreamingMonitor) are single-threaded.
template <typename Example>
class IncrementalWindowEvaluator {
 public:
  /// Evaluator parameters.
  struct Config {
    /// Number of recent examples assertions can see.
    std::size_t window = 64;
    /// How far behind the stream head an example must be before its
    /// verdict is emitted; must stay below `window`.
    std::size_t settle_lag = 8;
    /// Invoked once per ingested chunk before unbounded assertions
    /// re-evaluate the window. Wire consistency-analyzer invalidation here:
    /// the analyzer memoises on (data pointer, size), which the reused
    /// window buffer would otherwise alias across chunks.
    std::function<void()> before_window_eval;
  };

  IncrementalWindowEvaluator(AssertionSuite<Example>& suite, Config config)
      : suite_(suite), config_(std::move(config)) {
    common::Check(config_.window >= 1, "window must be >= 1");
    common::Check(config_.settle_lag < config_.window,
                  "settle_lag must be < window");
  }

  /// Feeds one example. `emit(global_index, assertion_index, severity)` is
  /// called for each firing, in stream order.
  template <typename EmitFn>
  void Observe(Example example, EmitFn&& emit) {
    Example* data = &example;
    auto source = [data](std::size_t k) -> Example&& {
      return std::move(data[k]);
    };
    IngestChunk(source, 0, 1, emit);
  }

  /// Feeds a batch (consumed). Internally splits into chunks small enough
  /// that the window always retains the left context bounded assertions
  /// need, so results are independent of the batch split.
  template <typename EmitFn>
  void ObserveBatch(std::vector<Example> batch, EmitFn&& emit) {
    Example* data = batch.data();
    auto source = [data](std::size_t k) -> Example&& {
      return std::move(data[k]);
    };
    ObserveBatchFrom(batch.size(), source, emit);
  }

  /// Feeds `count` examples pulled from `source(k)` (k in [0, count), asked
  /// exactly once each, in order; must return an Example&& to move from).
  /// This is the zero-copy ingestion path for adapters whose examples live
  /// behind another representation — the serving facade moves typed
  /// payloads out of its type-erased holders directly into the window, so
  /// erasure costs no extra copy. Chunk-splitting semantics match
  /// ObserveBatch exactly. A `source` that throws poisons the batch
  /// mid-chunk just like a throwing assertion: already-ingested examples
  /// stay in the window, the exception propagates to the caller.
  template <typename Source, typename EmitFn>
  void ObserveBatchFrom(std::size_t count, Source&& source, EmitFn&& emit) {
    const std::size_t chunk = MaxChunk();
    for (std::size_t begin = 0; begin < count; begin += chunk) {
      IngestChunk(source, begin, std::min(chunk, count - begin), emit);
    }
  }

  std::size_t examples_seen() const { return examples_seen_; }
  const Config& config() const { return config_; }

 private:
  /// A firing discovered by re-evaluation after its example had already
  /// passed the settle boundary (emitted out of the normal cursor sweep).
  struct LateFire {
    std::size_t global;
    std::size_t assertion;
    double severity;
  };

  /// True when assertion `a`'s radius lets us evaluate suffixes only. A
  /// radius so large that its 2r context cannot fit next to a chunk inside
  /// the window degrades to full-window evaluation.
  bool Bounded(std::size_t radius) const {
    return radius != kUnboundedRadius && 2 * radius < config_.window;
  }

  /// Largest chunk whose 2r left context is still in the window when the
  /// chunk arrives (window - 2r >= chunk), for every bounded assertion.
  std::size_t MaxChunk() const {
    std::size_t context = config_.settle_lag;
    for (std::size_t a = 0; a < suite_.size(); ++a) {
      const std::size_t radius = suite_.at(a).temporal_radius();
      if (Bounded(radius)) context = std::max(context, 2 * radius);
    }
    return std::max<std::size_t>(1, config_.window - context);
  }

  /// Moves `count` examples out of `source(offset + k)` into the window,
  /// re-scores what they can affect, emits verdicts, trims the window.
  template <typename Source, typename EmitFn>
  void IngestChunk(Source& source, std::size_t offset, std::size_t count,
                   EmitFn& emit) {
    if (count == 0) return;
    Compact();
    window_.reserve(window_.size() + count);
    for (std::size_t k = 0; k < count; ++k) {
      window_.push_back(source(offset + k));
    }
    // Columns added to the suite since the last chunk start unprimed and
    // get a one-off full-window evaluation below.
    severities_.resize(suite_.size());
    fired_.resize(suite_.size());
    primed_.resize(suite_.size(), false);
    for (auto& column : severities_) column.resize(window_.size(), 0.0);
    for (auto& column : fired_) column.resize(window_.size(), 0);
    examples_seen_ += count;

    const std::size_t logical_size = window_.size() - start_;
    const std::size_t first_new = logical_size - count;
    bool hook_called = false;
    for (std::size_t a = 0; a < suite_.size(); ++a) {
      Assertion<Example>& assertion = suite_.at(a);
      const std::size_t radius = assertion.temporal_radius();
      if (Bounded(radius) && primed_[a]) {
        const std::size_t affected =
            first_new > radius ? first_new - radius : 0;
        const std::size_t eval_start =
            first_new > 2 * radius ? first_new - 2 * radius : 0;
        const std::span<const Example> suffix(
            window_.data() + start_ + eval_start, logical_size - eval_start);
        const std::vector<double> scores = assertion.CheckAll(suffix);
        common::Check(scores.size() == suffix.size(),
                      "assertion returned wrong severity count: " +
                          assertion.name());
        // Entries before `affected` were already final; entries in
        // [eval_start, affected) may lack left context in the suffix view.
        for (std::size_t i = affected; i < logical_size; ++i) {
          WriteScore(a, i, scores[i - eval_start]);
        }
      } else {
        if (!Bounded(radius) && !hook_called && config_.before_window_eval) {
          config_.before_window_eval();
          hook_called = true;
        }
        const std::span<const Example> window(window_.data() + start_,
                                              logical_size);
        const std::vector<double> scores = assertion.CheckAll(window);
        common::Check(scores.size() == logical_size,
                      "assertion returned wrong severity count: " +
                          assertion.name());
        for (std::size_t i = 0; i < logical_size; ++i) {
          WriteScore(a, i, scores[i]);
        }
        primed_[a] = true;
      }
    }

    EmitAll(emit);

    if (logical_size > config_.window) {
      const std::size_t drop = logical_size - config_.window;
      start_ += drop;
      window_start_global_ += drop;
    }
  }

  void WriteScore(std::size_t a, std::size_t logical_index, double score) {
    if (!(score >= 0.0) || !std::isfinite(score)) {
      common::CheckNonNegative(score,
                               "assertion severity: " + suite_.at(a).name());
    }
    const std::size_t physical = start_ + logical_index;
    severities_[a][physical] = score;
    // A firing surfacing on an example the cursor already swept (see the
    // emission contract above) is emitted late, once.
    if (score > 0.0 && window_start_global_ + logical_index < next_emit_ &&
        !fired_[a][physical]) {
      fired_[a][physical] = 1;
      late_.push_back({window_start_global_ + logical_index, a, score});
    }
  }

  template <typename EmitFn>
  void EmitAll(EmitFn& emit) {
    if (!late_.empty()) {
      std::sort(late_.begin(), late_.end(),
                [](const LateFire& a, const LateFire& b) {
                  return a.global != b.global ? a.global < b.global
                                              : a.assertion < b.assertion;
                });
      for (const LateFire& fire : late_) {
        emit(fire.global, fire.assertion, fire.severity);
      }
      late_.clear();
    }
    const std::size_t head = examples_seen_ - 1;
    if (head < config_.settle_lag) return;
    const std::size_t boundary = head - config_.settle_lag;  // inclusive
    for (std::size_t global = next_emit_; global <= boundary; ++global) {
      const std::size_t physical = start_ + (global - window_start_global_);
      for (std::size_t a = 0; a < severities_.size(); ++a) {
        const double severity = severities_[a][physical];
        if (severity > 0.0 && !fired_[a][physical]) {
          fired_[a][physical] = 1;
          emit(global, a, severity);
        }
      }
    }
    next_emit_ = boundary + 1;
  }

  /// Reclaims the dead prefix of the physical buffers once it exceeds the
  /// live window — O(window) moves per O(window) pops, amortized O(1).
  void Compact() {
    if (start_ <= window_.size() - start_ || start_ < config_.window) return;
    const auto prefix = static_cast<std::ptrdiff_t>(start_);
    window_.erase(window_.begin(), window_.begin() + prefix);
    for (auto& column : severities_) {
      column.erase(column.begin(), column.begin() + prefix);
    }
    for (auto& column : fired_) {
      column.erase(column.begin(), column.begin() + prefix);
    }
    start_ = 0;
  }

  AssertionSuite<Example>& suite_;
  Config config_;
  std::vector<Example> window_;  // logical window = [start_, size())
  std::vector<std::vector<double>> severities_;  // per assertion, aligned
  std::vector<std::vector<std::uint8_t>> fired_;  // emission dedup, aligned
  std::vector<bool> primed_;  // column has scored the current window once
  std::vector<LateFire> late_;  // scratch, drained every chunk
  std::size_t start_ = 0;
  std::size_t window_start_global_ = 0;  // global index of window_[start_]
  std::size_t examples_seen_ = 0;
  std::size_t next_emit_ = 0;
};

}  // namespace omg::core
