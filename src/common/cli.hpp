// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports --name=value and --name value forms plus boolean switches.
// Unknown flags raise errors so typos never silently change an experiment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dsem {

class CliParser {
public:
  CliParser(std::string program, std::string description);

  /// Register options before parse(). `help` is shown by --help.
  void add_flag(const std::string& name, const std::string& help);
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value);

  /// Parses argv. Returns false if --help was requested (usage printed).
  bool parse(int argc, const char* const* argv);

  bool flag(const std::string& name) const;
  std::string option(const std::string& name) const;
  std::int64_t option_int(const std::string& name) const;
  /// option_int() as a count: raises, naming the flag, unless the value is
  /// at least `min` (1, or 0 where 0 has a meaning such as "off"), so a
  /// negative value never wraps around into a huge std::size_t.
  std::size_t option_size(const std::string& name, std::size_t min = 1) const;
  /// option_int() for an int-typed setting: raises, naming the flag, when
  /// the value does not fit in an int, so 4294967297 never narrows to 1.
  int option_int32(const std::string& name) const;
  double option_double(const std::string& name) const;

  /// Positional arguments in order of appearance.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  void print_usage(std::ostream& os) const;

private:
  struct Entry {
    std::string help;
    std::string value;   // current (default until parse overrides)
    bool is_flag = false;
    bool set = false;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> positional_;
};

} // namespace dsem
