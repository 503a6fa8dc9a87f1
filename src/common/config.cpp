#include "common/config.h"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace volley {

namespace {
void parse_token(Config& cfg, std::string_view token) {
  if (token.empty() || token.front() == '#') return;
  const auto eq = token.find('=');
  if (eq == std::string_view::npos) {
    throw std::invalid_argument("Config: token missing '=': " +
                                std::string(token));
  }
  cfg.set(std::string(token.substr(0, eq)), std::string(token.substr(eq + 1)));
}
}  // namespace

Config Config::from_args(const std::vector<std::string>& tokens) {
  Config cfg;
  for (const auto& t : tokens) parse_token(cfg, t);
  return cfg;
}

void Config::set(std::string key, std::string value) {
  kv_[std::move(key)] = std::move(value);
}

bool Config::has(const std::string& key) const { return kv_.count(key) > 0; }

std::optional<std::string> Config::get(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key, std::string def) const {
  auto v = get(key);
  return v ? *v : std::move(def);
}

std::int64_t Config::get_int(const std::string& key, std::int64_t def) const {
  auto v = get(key);
  if (!v) return def;
  std::size_t pos = 0;
  const std::int64_t out = std::stoll(*v, &pos);
  if (pos != v->size())
    throw std::invalid_argument("Config: bad integer for " + key + ": " + *v);
  return out;
}

double Config::get_double(const std::string& key, double def) const {
  auto v = get(key);
  if (!v) return def;
  std::size_t pos = 0;
  const double out = std::stod(*v, &pos);
  if (pos != v->size())
    throw std::invalid_argument("Config: bad double for " + key + ": " + *v);
  return out;
}

bool Config::get_bool(const std::string& key, bool def) const {
  auto v = get(key);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("Config: bad bool for " + key + ": " + *v);
}

}  // namespace volley
