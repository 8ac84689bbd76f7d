#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "util/check.hpp"

namespace fcr {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {
  add_flag("help", "false", "print this help text");
}

void CliParser::add_flag(const std::string& name, const std::string& default_value,
                         const std::string& help) {
  FCR_ENSURE_ARG(!name.empty() && name[0] != '-',
                 "flag name must be bare (no leading dashes): " << name);
  const auto [it, inserted] =
      flags_.emplace(name, Flag{default_value, default_value, help});
  (void)it;
  FCR_ENSURE_ARG(inserted, "duplicate flag: " << name);
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error_ = "positional arguments not supported: " + arg;
      return false;
    }
    arg = arg.substr(2);

    std::string name;
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
    }

    bool negated = false;
    if (!flags_.count(name) && name.rfind("no-", 0) == 0 &&
        flags_.count(name.substr(3))) {
      name = name.substr(3);
      negated = true;
    }

    auto it = flags_.find(name);
    if (it == flags_.end()) {
      error_ = "unknown flag: --" + name;
      return false;
    }

    if (negated) {
      if (value) {
        error_ = "--no-" + name + " does not take a value";
        return false;
      }
      it->second.value = "false";
      continue;
    }

    if (!value) {
      // Boolean flags may omit the value; others consume the next argument.
      const bool is_bool = it->second.default_value == "true" ||
                           it->second.default_value == "false";
      if (is_bool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        error_ = "flag --" + name + " requires a value";
        return false;
      }
    }
    it->second.value = *value;
  }

  help_requested_ = get_bool("help");
  return true;
}

const CliParser::Flag& CliParser::find(const std::string& name) const {
  const auto it = flags_.find(name);
  FCR_ENSURE_ARG(it != flags_.end(), "flag not registered: " << name);
  return it->second;
}

std::string CliParser::get_string(const std::string& name) const {
  return find(name).value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const auto& v = find(name).value;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  FCR_ENSURE_ARG(end && *end == '\0' && !v.empty(),
                 "flag --" << name << ": not an integer: " << v);
  FCR_ENSURE_ARG(errno != ERANGE,
                 "flag --" << name << ": out of the 64-bit range: " << v);
  return parsed;
}

std::uint64_t CliParser::get_uint(const std::string& name) const {
  const std::int64_t parsed = get_int(name);
  FCR_ENSURE_ARG(parsed >= 0, "flag --" << name << ": must not be negative: "
                                        << find(name).value);
  return static_cast<std::uint64_t>(parsed);
}

double CliParser::get_double(const std::string& name) const {
  const auto& v = find(name).value;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  FCR_ENSURE_ARG(end && *end == '\0' && !v.empty(),
                 "flag --" << name << ": not a number: " << v);
  return parsed;
}

bool CliParser::get_bool(const std::string& name) const {
  const auto& v = find(name).value;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  FCR_ENSURE_ARG(false, "flag --" << name << ": not a boolean: " << v);
  return false;  // unreachable
}

std::vector<std::int64_t> CliParser::get_int_list(const std::string& name) const {
  std::vector<std::int64_t> out;
  std::stringstream ss(find(name).value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(item.c_str(), &end, 10);
    FCR_ENSURE_ARG(end && *end == '\0' && errno != ERANGE,
                   "flag --" << name << ": bad list element: " << item);
    out.push_back(parsed);
  }
  return out;
}

std::vector<double> CliParser::get_double_list(const std::string& name) const {
  std::vector<double> out;
  std::stringstream ss(find(name).value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const double parsed = std::strtod(item.c_str(), &end);
    FCR_ENSURE_ARG(end && *end == '\0',
                   "flag --" << name << ": bad list element: " << item);
    out.push_back(parsed);
  }
  return out;
}

void CliParser::print_help(std::ostream& out) const {
  out << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << "  (default: " << flag.default_value << ")\n"
        << "      " << flag.help << '\n';
  }
}

}  // namespace fcr
