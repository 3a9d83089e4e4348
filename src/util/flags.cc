#include "util/flags.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "util/status.h"

namespace dkc {
namespace {

// Parses all of `value` as a T, or exits 1 naming the flag: a number with
// trailing junk or out of T's range is a typo, not a smaller number.
template <typename T>
T ParseOrExit(const std::string& name, const std::string& value,
              const char* kind) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  const char* problem = nullptr;
  if (ec == std::errc::result_out_of_range) {
    problem = "out of range";
  } else if (ec != std::errc() || ptr != end) {
    problem = kind;
  }
  if (problem != nullptr) {
    std::fprintf(stderr, "%s\n",
                 Status::InvalidArgument("--" + name + "=" + value + " is " +
                                         problem)
                     .ToString()
                     .c_str());
    std::exit(1);
  }
  return parsed;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)] = "true";
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return ParseOrExit<int64_t>(name, it->second, "not an integer");
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return ParseOrExit<double>(name, it->second, "not a number");
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

}  // namespace dkc
