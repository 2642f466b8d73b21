#include "finser/util/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "finser/util/error.hpp"

namespace finser::util {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string strip_comment(const std::string& line) {
  const std::size_t pos = line.find_first_of("#;");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

}  // namespace

std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Two-row Wagner-Fischer; row[j] = distance(a[0..i), b[0..j)).
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::string nearest_key(const std::string& unknown,
                        const std::vector<std::string>& candidates) {
  constexpr std::size_t kMaxDistance = 2;
  std::string best;
  std::size_t best_d = kMaxDistance + 1;
  for (const std::string& c : candidates) {
    if (c == unknown) continue;
    const std::size_t d = edit_distance(unknown, c);
    if (d < best_d) {
      best = c;
      best_d = d;
    }
  }
  return best_d <= kMaxDistance ? best : std::string();
}

KeyValueConfig KeyValueConfig::parse(const std::string& text) {
  KeyValueConfig cfg;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string body = trim(strip_comment(line));
    if (body.empty()) continue;
    const std::size_t eq = body.find('=');
    FINSER_REQUIRE(eq != std::string::npos,
                   "config line " + std::to_string(line_no) +
                       " is not `key = value`: " + body);
    const std::string key = trim(body.substr(0, eq));
    const std::string value = trim(body.substr(eq + 1));
    FINSER_REQUIRE(!key.empty(), "config line " + std::to_string(line_no) +
                                     " has an empty key");
    const auto prev = cfg.values_.find(key);
    if (prev != cfg.values_.end()) {
      throw InvalidArgument("config key duplicated: " + key + " (line " +
                            std::to_string(line_no) + " repeats line " +
                            std::to_string(prev->second.line) + ")");
    }
    cfg.values_[key] = Entry{value, line_no};
  }
  return cfg;
}

KeyValueConfig KeyValueConfig::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw Error("cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool KeyValueConfig::has(const std::string& key) const {
  return values_.find(key) != values_.end();
}

namespace {

/// "key (line N)" — every getter error names the key *and* the source line,
/// so a bad value in a long campaign config is a one-glance fix.
std::string where(const std::string& key, int line) {
  return key + " (line " + std::to_string(line) + ")";
}

}  // namespace

int KeyValueConfig::line_of(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? 0 : it->second.line;
}

double KeyValueConfig::get_double(const std::string& key, double fallback) const {
  requested_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  accessed_[key] = true;
  const Entry& e = it->second;
  try {
    std::size_t consumed = 0;
    const double v = std::stod(e.value, &consumed);
    FINSER_REQUIRE(consumed == e.value.size(),
                   "config value for " + where(key, e.line) +
                       " is not a number: " + e.value);
    return v;
  } catch (const std::logic_error&) {
    throw InvalidArgument("config value for " + where(key, e.line) +
                          " is not a number: " + e.value);
  }
}

long long KeyValueConfig::get_int(const std::string& key, long long fallback) const {
  requested_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  accessed_[key] = true;
  const Entry& e = it->second;
  try {
    std::size_t consumed = 0;
    const long long v = std::stoll(e.value, &consumed);
    FINSER_REQUIRE(consumed == e.value.size(),
                   "config value for " + where(key, e.line) +
                       " is not an integer: " + e.value);
    return v;
  } catch (const std::logic_error&) {
    throw InvalidArgument("config value for " + where(key, e.line) +
                          " is not an integer: " + e.value);
  }
}

std::size_t KeyValueConfig::get_size(const std::string& key,
                                     std::size_t fallback) const {
  const long long v = get_int(key, static_cast<long long>(fallback));
  // Checked signed, before the cast: -5 must not wrap to 2^64 - 5.
  if (v <= 0) {
    throw InvalidArgument("config value for " + where(key, line_of(key)) +
                          " must be a positive integer, got " +
                          std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

bool KeyValueConfig::get_bool(const std::string& key, bool fallback) const {
  requested_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  accessed_[key] = true;
  const Entry& e = it->second;
  std::string v = e.value;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw InvalidArgument("config value for " + where(key, e.line) +
                        " is not a bool: " + e.value);
}

std::string KeyValueConfig::get_string(const std::string& key,
                                       std::string fallback) const {
  requested_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  accessed_[key] = true;
  return it->second.value;
}

std::vector<double> KeyValueConfig::get_double_list(
    const std::string& key, std::vector<double> fallback) const {
  requested_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  accessed_[key] = true;
  const Entry& e = it->second;
  std::vector<double> out;
  std::istringstream is(e.value);
  std::string item;
  while (std::getline(is, item, ',')) {
    const std::string t = trim(item);
    FINSER_REQUIRE(!t.empty(), "config list for " + where(key, e.line) +
                                   " has an empty element");
    try {
      std::size_t consumed = 0;
      out.push_back(std::stod(t, &consumed));
      FINSER_REQUIRE(consumed == t.size(),
                     "config list element for " + where(key, e.line) +
                         " is not a number: " + t);
    } catch (const std::logic_error&) {
      throw InvalidArgument("config list element for " + where(key, e.line) +
                            " is not a number: " + t);
    }
  }
  FINSER_REQUIRE(!out.empty(),
                 "config list for " + where(key, e.line) + " is empty");
  return out;
}

std::vector<std::string> KeyValueConfig::unknown_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (accessed_.find(key) == accessed_.end()) out.push_back(key);
  }
  return out;
}

std::string KeyValueConfig::suggestion_for(const std::string& unknown) const {
  std::vector<std::string> candidates;
  candidates.reserve(requested_.size());
  for (const auto& [key, value] : requested_) {
    (void)value;
    candidates.push_back(key);
  }
  return nearest_key(unknown, candidates);
}

}  // namespace finser::util
