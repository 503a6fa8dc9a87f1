// Tiny key=value configuration parser.
//
// Used by the socket runtime daemons and examples to accept settings as
// "key=value" command-line tokens. Keys are untyped strings;
// typed getters convert on access and fall back to a caller default when the
// key is absent. Malformed numeric values are an error (std::invalid_argument)
// rather than a silent default — configuration typos should be loud.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace volley {

class Config {
 public:
  Config() = default;

  /// Parses tokens of the form "key=value"; ignores empty tokens and
  /// comment tokens starting with '#'. Later duplicates win.
  static Config from_args(const std::vector<std::string>& tokens);

  void set(std::string key, std::string value);

  bool has(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;

  std::string get_string(const std::string& key, std::string def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  const std::map<std::string, std::string>& entries() const { return kv_; }

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace volley
