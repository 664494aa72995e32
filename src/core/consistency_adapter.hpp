// Bridges the domain-agnostic ConsistencyEngine into the Assertion<Example>
// world, so consistency-generated assertions sit in an AssertionSuite next to
// user-written ones (as §4.2 requires: "these assertions are treated the same
// as user-provided ones in the rest of the system").
//
// A ConsistencyAnalyzer owns the engine plus a domain-provided extractor that
// turns the example stream into frames/records (the Id and Attrs functions
// live inside the extractor). All generated assertions share one analyzer,
// and the analyzer memoises the latest analysis per input stream so a suite
// run costs one engine pass, not one per generated column.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/assertion.hpp"
#include "core/consistency.hpp"

namespace omg::core {

/// Frames + records extracted from an example stream.
struct ConsistencyExtraction {
  std::vector<ConsistencyFrame> frames;
  std::vector<ConsistencyRecord> records;
};

/// Runs a ConsistencyEngine over example streams, caching the last analysis.
template <typename Example>
class ConsistencyAnalyzer {
 public:
  /// Extractor: applies the user's Id/Attrs functions to the stream.
  using ExtractFn =
      std::function<ConsistencyExtraction(std::span<const Example>)>;

  ConsistencyAnalyzer(ConsistencyConfig config, ExtractFn extract)
      : engine_(std::move(config)), extract_(std::move(extract)) {
    common::Check(static_cast<bool>(extract_), "extractor must be set");
  }

  /// Names of the generated assertions (column order of Analyze results).
  std::vector<std::string> AssertionNames() const {
    return engine_.AssertionNames();
  }

  /// Full analysis of `examples`, corrections included, memoised on (data
  /// pointer, size). The memo makes one suite pass run the engine once;
  /// passing a *different* stream re-analyses. After Scores() on the same
  /// stream this re-runs the engine on the memoised extraction but does not
  /// extract again.
  const ConsistencyResult& Analyze(std::span<const Example> examples) {
    return Run(examples, /*with_corrections=*/true);
  }

  /// Severities of `examples` under the same memo; `corrections` is empty
  /// unless an Analyze() of this stream filled it. The scoring path reads
  /// only the severities, so it skips building corrections.
  const ConsistencyResult& Scores(std::span<const Example> examples) {
    return Run(examples, /*with_corrections=*/false);
  }

  /// Records from the latest analysis — Correction::support_records index
  /// into this vector.
  const std::vector<ConsistencyRecord>& LatestRecords() const {
    common::Check(memo_valid_, "Analyze must run first");
    return memo_.records;
  }

  /// Corrections from the latest analysis of `examples`.
  const std::vector<Correction>& Corrections(
      std::span<const Example> examples) {
    return Analyze(examples).corrections;
  }

  /// Drops the memoised analysis. Callers must invalidate whenever example
  /// content may have changed without the (pointer, size) key changing —
  /// e.g. a freshly allocated stream of the same length after retraining
  /// the model (allocator reuse can alias the key).
  void Invalidate() {
    memo_valid_ = false;
    memo_ = {};
    memo_result_ = {};
  }

 private:
  const ConsistencyResult& Run(std::span<const Example> examples,
                               bool with_corrections) {
    const bool same_stream = memo_valid_ && memo_data_ == examples.data() &&
                             memo_size_ == examples.size();
    if (same_stream && (memo_has_corrections_ || !with_corrections)) {
      return memo_result_;
    }
    memo_valid_ = false;  // stays unset if the extractor or engine throws
    if (!same_stream) {
      memo_ = extract_(examples);
      memo_data_ = examples.data();
      memo_size_ = examples.size();
    }
    memo_result_ =
        with_corrections
            ? engine_.Analyze(memo_.frames, memo_.records, examples.size())
            : engine_.Score(memo_.frames, memo_.records, examples.size());
    memo_has_corrections_ = with_corrections;
    memo_valid_ = true;
    return memo_result_;
  }

  ConsistencyEngine engine_;
  ExtractFn extract_;
  // The memo: key, extraction and result of the latest stream analysed.
  bool memo_valid_ = false;
  bool memo_has_corrections_ = false;
  const Example* memo_data_ = nullptr;
  std::size_t memo_size_ = 0;
  ConsistencyExtraction memo_;
  ConsistencyResult memo_result_;
};

/// One generated assertion = one column of the shared analyzer's result.
template <typename Example>
class GeneratedConsistencyAssertion final : public Assertion<Example> {
 public:
  GeneratedConsistencyAssertion(
      std::string name, std::shared_ptr<ConsistencyAnalyzer<Example>> analyzer,
      std::size_t column)
      : Assertion<Example>(std::move(name)),
        analyzer_(std::move(analyzer)),
        column_(column) {}

  std::vector<double> CheckAll(std::span<const Example> examples) override {
    const ConsistencyResult& result = analyzer_->Scores(examples);
    common::CheckIndex(static_cast<std::ptrdiff_t>(column_), 0,
                       static_cast<std::ptrdiff_t>(result.severities.size()),
                       "generated assertion column");
    return result.severities[column_];
  }

 private:
  std::shared_ptr<ConsistencyAnalyzer<Example>> analyzer_;
  std::size_t column_;
};

/// Implements the paper's AddConsistencyAssertion(Id, Attrs, T): builds a
/// shared analyzer, registers every generated assertion into `suite`, and
/// returns the analyzer so callers can pull corrections for weak supervision.
///
/// `name_prefix` disambiguates when several consistency sources coexist
/// (e.g. "" for the only source, "news:" for a second one).
template <typename Example>
std::shared_ptr<ConsistencyAnalyzer<Example>> AddConsistencyAssertion(
    AssertionSuite<Example>& suite, ConsistencyConfig config,
    typename ConsistencyAnalyzer<Example>::ExtractFn extract,
    const std::string& name_prefix = "") {
  auto analyzer = std::make_shared<ConsistencyAnalyzer<Example>>(
      std::move(config), std::move(extract));
  const auto names = analyzer->AssertionNames();
  common::Check(!names.empty(),
                "consistency config generates no assertions (no attribute "
                "keys and no temporal threshold)");
  for (std::size_t column = 0; column < names.size(); ++column) {
    suite.Add(std::make_unique<GeneratedConsistencyAssertion<Example>>(
        name_prefix + names[column], analyzer, column));
  }
  return analyzer;
}

}  // namespace omg::core
