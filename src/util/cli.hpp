// Tiny command-line flag parser for the bench and example binaries.
//
// Supports `--flag=value`, `--flag value`, and boolean `--flag` /
// `--no-flag` forms. Unknown flags are an error (benches should not silently
// ignore typos); `--help` prints the registered flags and exits gracefully
// via the `help_requested()` accessor.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace fcr {

/// Declarative flag registry + parser.
class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Registers a flag with a default value. Call before parse().
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parses argv. Returns false (and records an error message) on malformed
  /// or unknown flags. `--help` sets help_requested() and returns true.
  bool parse(int argc, const char* const* argv);

  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }

  /// Typed accessors; flag must have been registered. Integers must fit in
  /// 64 bits; get_uint also rejects negative values, so a count or budget
  /// flag never wraps around.
  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  std::uint64_t get_uint(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Comma-separated list accessors ("1,2,4" -> {1,2,4}).
  std::vector<std::int64_t> get_int_list(const std::string& name) const;
  std::vector<double> get_double_list(const std::string& name) const;

  void print_help(std::ostream& out) const;

 private:
  struct Flag {
    std::string default_value;
    std::string value;
    std::string help;
  };

  const Flag& find(const std::string& name) const;

  std::string description_;
  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
  std::string error_;
};

}  // namespace fcr
