// Minimal command-line argument parser for the tools/ binaries.
//
// Supports --key=value and --key value forms plus bare --flag booleans.
// Unknown keys raise UsageError (catches typos, and retired flags); every
// tool prints its option table via usage().
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace sesr::cli {

// A bad command line: unknown option, or a value a tool's validation refuses.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Args {
 public:
  struct Option {
    std::string key;
    std::string default_value;  // empty = boolean flag
    std::string help;
  };

  Args(std::vector<Option> options, int argc, char** argv) : options_(std::move(options)) {
    for (const Option& o : options_) values_[o.key] = o.default_value;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) positional_.push_back(std::move(arg));
      else {
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        std::string value(1, '1');  // boolean flag
        if (eq != std::string::npos) {
          value = arg.substr(eq + 1);
        } else {
          const Option* opt = find(key);
          if (opt != nullptr && !opt->default_value.empty() && i + 1 < argc) value = argv[++i];
        }
        if (find(key) == nullptr) throw UsageError("unknown option --" + key);
        values_[key] = value;
      }
    }
  }

  std::string get(const std::string& key) const { return values_.at(key); }
  // A value that does not parse as a number is a bad command line too.
  std::int64_t get_int(const std::string& key) const {
    return number<std::int64_t>(key, [](const std::string& v) { return std::stoll(v); });
  }
  double get_double(const std::string& key) const {
    return number<double>(key, [](const std::string& v) { return std::stod(v); });
  }
  bool get_flag(const std::string& key) const {
    const std::string v = values_.at(key);
    return !v.empty() && v != "0" && v != "false";
  }
  const std::vector<std::string>& positional() const { return positional_; }

  void usage(const char* program, const char* summary) const {
    std::printf("%s — %s\n\noptions:\n", program, summary);
    for (const Option& o : options_) {
      std::printf("  --%-18s %s%s%s\n", o.key.c_str(), o.help.c_str(),
                  o.default_value.empty() ? "" : "  [default: ",
                  o.default_value.empty() ? "" : (o.default_value + "]").c_str());
    }
  }

 private:
  template <typename T, typename Parse>
  T number(const std::string& key, Parse parse) const {
    const std::string& value = values_.at(key);
    try {
      return parse(value);
    } catch (const std::logic_error&) {  // invalid_argument or out_of_range
      throw UsageError("bad number for --" + key + ": '" + value + "'");
    }
  }

  const Option* find(const std::string& key) const {
    for (const Option& o : options_) {
      if (o.key == key) return &o;
    }
    return nullptr;
  }

  std::vector<Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace sesr::cli
