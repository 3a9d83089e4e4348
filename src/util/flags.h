// Minimal --key=value command-line flag parsing for the benchmark harnesses
// and examples. Not a general-purpose flags library: no registration, just
// typed lookups with defaults, so each binary stays self-describing.

#ifndef DKC_UTIL_FLAGS_H_
#define DKC_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dkc {

/// Parses `--name=value` and bare `--name` (=> "true") arguments.
/// Unrecognized positional arguments are kept in `positional()`.
/// GetInt/GetDouble read the whole value: malformed or out-of-range text
/// (`--threads=4x`, `--k=abc`, `--k=`) prints an InvalidArgument naming
/// the flag to stderr and exits 1.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program_name() const { return program_name_; }

 private:
  std::string program_name_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace dkc

#endif  // DKC_UTIL_FLAGS_H_
