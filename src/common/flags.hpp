// Minimal command-line flag parsing for bench and example binaries.
//
// Supports `--name=value` and `--name value` forms plus bare boolean flags
// (`--verbose`). Unknown flags are an error so typos do not silently change
// an experiment.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace omg::common {

/// Parsed command-line flags.
class Flags {
 public:
  /// Parses argv. Throws CheckError on malformed input.
  static Flags Parse(int argc, const char* const* argv);

  /// Returns the flag value or `fallback` when absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list (`--shards 1,2,4`); a single integer is
  /// a one-element list. Benches use this to sweep configurations.
  std::vector<std::int64_t> GetIntList(
      const std::string& name, std::vector<std::int64_t> fallback) const;

  /// True if the flag was present on the command line.
  bool Has(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& Positional() const { return positional_; }

  /// Names of all flags that were provided (used to reject unknown flags).
  std::vector<std::string> Names() const;

  /// Throws unless every provided flag name is in `allowed`.
  void CheckAllowed(const std::vector<std::string>& allowed) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace omg::common
