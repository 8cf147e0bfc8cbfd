#include "common/cli.hpp"

#include <charconv>
#include <iostream>
#include <ostream>
#include <utility>

#include "common/error.hpp"

namespace dsem {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  DSEM_ENSURE(!entries_.contains(name), "duplicate CLI entry: " + name);
  entries_[name] = Entry{help, "false", /*is_flag=*/true, /*set=*/false};
}

void CliParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  DSEM_ENSURE(!entries_.contains(name), "duplicate CLI entry: " + name);
  entries_[name] = Entry{help, default_value, /*is_flag=*/false, /*set=*/false};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name.resize(eq);
    }
    const auto it = entries_.find(name);
    DSEM_ENSURE(it != entries_.end(), "unknown flag: --" + name);
    Entry& entry = it->second;
    if (entry.is_flag) {
      DSEM_ENSURE(!inline_value.has_value(),
                  "flag --" + name + " does not take a value");
      entry.value = "true";
    } else if (inline_value) {
      entry.value = *inline_value;
    } else {
      DSEM_ENSURE(i + 1 < argc, "missing value for --" + name);
      entry.value = argv[++i];
    }
    entry.set = true;
  }
  return true;
}

bool CliParser::flag(const std::string& name) const {
  const auto it = entries_.find(name);
  DSEM_ENSURE(it != entries_.end(), "unregistered flag: " + name);
  DSEM_ENSURE(it->second.is_flag, "entry is not a flag: " + name);
  return it->second.value == "true";
}

std::string CliParser::option(const std::string& name) const {
  const auto it = entries_.find(name);
  DSEM_ENSURE(it != entries_.end(), "unregistered option: " + name);
  DSEM_ENSURE(!it->second.is_flag, "entry is a flag, not an option: " + name);
  return it->second.value;
}

std::int64_t CliParser::option_int(const std::string& name) const {
  const std::string raw = option(name);
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(raw.data(), raw.data() + raw.size(), out);
  DSEM_ENSURE(ec == std::errc() && ptr == raw.data() + raw.size(),
              "option --" + name + " is not an integer: " + raw);
  return out;
}

std::size_t CliParser::option_size(const std::string& name,
                                   std::size_t min) const {
  const std::int64_t value = option_int(name);
  DSEM_ENSURE(value >= 0 && static_cast<std::uint64_t>(value) >= min,
              "option --" + name + " must be >= " + std::to_string(min) +
                  ": " + option(name));
  return static_cast<std::size_t>(value);
}

int CliParser::option_int32(const std::string& name) const {
  const std::int64_t value = option_int(name);
  DSEM_ENSURE(std::in_range<int>(value),
              "option --" + name + " does not fit in an int: " +
                  option(name));
  return static_cast<int>(value);
}

double CliParser::option_double(const std::string& name) const {
  const std::string raw = option(name);
  try {
    std::size_t consumed = 0;
    const double out = std::stod(raw, &consumed);
    DSEM_ENSURE(consumed == raw.size(),
                "option --" + name + " is not a number: " + raw);
    return out;
  } catch (const std::invalid_argument&) {
    DSEM_ENSURE(false, "option --" + name + " is not a number: " + raw);
  }
  return 0.0; // unreachable
}

void CliParser::print_usage(std::ostream& os) const {
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& [name, entry] : entries_) {
    os << "  --" << name;
    if (!entry.is_flag) {
      os << "=<value> (default: " << entry.value << ')';
    }
    os << "\n      " << entry.help << '\n';
  }
  os << "  --help\n      Show this message.\n";
}

} // namespace dsem
