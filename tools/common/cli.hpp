// darnet::cli -- the one command-line contract for the repo's tools.
//
// Every tool binary (fleet_simulator, darnet_analyze)
// parses its command line through this header so the conventions stay
// converged instead of drifting per tool:
//
//   --key=value   valued flag, exactly this shape (no "--key value")
//   --switch      bare boolean flag
//   --format=FMT  output format: text (default) or json
//   --out=PATH    write the tool's primary artefact there ("-" = stdout)
//   --seed=S      master seed, where the tool is randomised
//   --list        enumerate what the tool can run/check, then exit 0
//   --help | -h   print the usage synopsis and exit 0
//   --dump-*=PATH debug artefact escape hatch: dump an internal table
//                 (e.g. darnet_analyze --dump-effects=FILE) as JSON to
//                 PATH. Never part of the pass/fail contract -- the
//                 exit code is unchanged by what a dump contains, and 2
//                 is returned only if PATH itself is unwritable.
//
// Exit-code contract (all tools, documented once, here):
//   0  success -- a clean analyzer run, or a completed simulation
//   1  findings remain, or the run completed but failed its own gate
//   2  usage error (unknown flag, bad value) or an I/O failure
//
// The parser is deliberately tiny: a registry of accepted flag names, a
// single pass over argv, and typed lookups with defaults. Unknown flags
// are hard usage errors -- a typo must not silently change behaviour.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace darnet::cli {

class Parser {
 public:
  /// `usage` is the one-line synopsis printed on --help and usage errors.
  Parser(std::string tool, std::string usage)
      : tool_(std::move(tool)), usage_(std::move(usage)) {}

  /// Registers a valued `--name=...` flag. Chains.
  Parser& flag(std::string name) {
    valued_.insert(std::move(name));
    return *this;
  }

  /// Registers a bare `--name` switch. Chains.
  Parser& toggle(std::string name) {
    switches_.insert(std::move(name));
    return *this;
  }

  /// Single pass over argv. Returns false -- after printing the error
  /// and the usage synopsis to stderr -- on an unregistered flag, a
  /// switch given a value (or vice versa), or more than
  /// `max_positionals` bare operands. Callers exit 2 on false.
  [[nodiscard]] bool parse(int argc, char** argv,
                           std::size_t max_positionals = 0) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        help_ = true;
        std::printf("%s\n", usage_.c_str());
        continue;
      }
      if (arg.rfind("--", 0) == 0) {
        const std::size_t eq = arg.find('=');
        const std::string name =
            eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
        if (eq != std::string::npos && valued_.count(name) != 0) {
          values_.emplace_back(name, arg.substr(eq + 1));
          continue;
        }
        if (eq == std::string::npos && switches_.count(name) != 0) {
          seen_.insert(name);
          continue;
        }
        return fail("unknown or malformed flag '" + arg + "'");
      }
      positionals_.push_back(arg);
    }
    if (positionals_.size() > max_positionals) {
      return fail("too many operands");
    }
    return true;
  }

  /// --help / -h was seen (usage already printed; callers exit 0).
  [[nodiscard]] bool help() const noexcept { return help_; }

  /// A registered switch was present.
  [[nodiscard]] bool on(std::string_view name) const {
    return seen_.count(std::string(name)) != 0;
  }

  /// Last value given for a flag, or `fallback` when absent.
  [[nodiscard]] std::string get(std::string_view name,
                                std::string fallback) const {
    for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    return fallback;
  }

  [[nodiscard]] int get_int(std::string_view name, int fallback) const {
    const std::string value = get(name, "");
    return value.empty() ? fallback : std::atoi(value.c_str());
  }

  [[nodiscard]] std::uint64_t get_u64(std::string_view name,
                                      std::uint64_t fallback) const {
    const std::string value = get(name, "");
    return value.empty() ? fallback
                         : std::strtoull(value.c_str(), nullptr, 10);
  }

  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback) const {
    const std::string value = get(name, "");
    return value.empty() ? fallback : std::atof(value.c_str());
  }

  /// Validated lookup of the converged --format flag: sets `json` and
  /// returns true for "text", "json" or absent; usage error otherwise
  /// (callers exit 2).
  [[nodiscard]] bool format(bool& json) {
    const std::string value = get("format", "text");
    if (value == "text") {
      json = false;
      return true;
    }
    if (value == "json") {
      json = true;
      return true;
    }
    return fail("--format must be text or json");
  }

  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

 private:
  bool fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n%s\n", tool_.c_str(), message.c_str(),
                 usage_.c_str());
    return false;
  }

  std::string tool_;
  std::string usage_;
  std::set<std::string> valued_;
  std::set<std::string> switches_;
  std::set<std::string> seen_;
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> positionals_;
  bool help_{false};
};

}  // namespace darnet::cli
