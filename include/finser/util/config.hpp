#pragma once
/// \file config.hpp
/// \brief INI-style key=value configuration parser for the CLI driver.
///
/// Grammar: one `key = value` pair per line; `#` and `;` start comments;
/// blank lines ignored; keys are dot-namespaced free-form strings
/// (e.g. `array.rows = 9`). Values are accessed through typed getters with
/// defaults; every access is recorded so unknown_keys() can flag typos —
/// a config file that silently ignores a misspelled knob is how wrong
/// simulation campaigns get published.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace finser::util {

/// Levenshtein edit distance (insert / delete / substitute, unit costs).
std::size_t edit_distance(const std::string& a, const std::string& b);

/// Nearest candidate within edit distance ≤ 2 of \p unknown, or "" when no
/// candidate is that close. Ties break toward the smaller distance, then the
/// lexicographically first candidate — deterministic, so error messages are
/// stable across runs. Shared by the INI parser and the campaign parser for
/// "unknown key, did you mean ...?" diagnostics.
std::string nearest_key(const std::string& unknown,
                        const std::vector<std::string>& candidates);

/// Parsed key=value configuration with typed, tracked access.
class KeyValueConfig {
 public:
  KeyValueConfig() = default;

  /// Parse from text; throws InvalidArgument on malformed lines.
  static KeyValueConfig parse(const std::string& text);

  /// Parse a file; throws Error if unreadable.
  static KeyValueConfig parse_file(const std::string& path);

  bool has(const std::string& key) const;

  /// Typed getters: return the default when the key is absent; throw
  /// InvalidArgument when the value does not parse as the requested type.
  double get_double(const std::string& key, double fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  /// A count or size: like get_int, but a value <= 0 throws
  /// InvalidArgument naming the key and its line.
  std::size_t get_size(const std::string& key, std::size_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  std::string get_string(const std::string& key, std::string fallback) const;

  /// Comma-separated list of doubles (e.g. "0.7, 0.8, 0.9").
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> fallback) const;

  /// Keys present in the file but never accessed through a getter.
  std::vector<std::string> unknown_keys() const;

  /// Nearest key the program actually asked a getter for (present in the
  /// file or not) within edit distance ≤ 2 of \p unknown; "" when nothing is
  /// that close. Callers turn unknown_keys() into "unknown config key
  /// `mc.strikse` (did you mean `mc.strikes`?)" — the missed-getter lookups
  /// are exactly the knobs the program supports, so they are the suggestion
  /// vocabulary.
  std::string suggestion_for(const std::string& unknown) const;

  /// 1-based source line of \p key (0 when absent). Getter errors embed it —
  /// "config value for array.rows (line 12) is not an integer" points the
  /// user at the offending line, not just the offending key.
  int line_of(const std::string& key) const;

  std::size_t size() const { return values_.size(); }

 private:
  /// One parsed `key = value` pair plus where it came from.
  struct Entry {
    std::string value;
    int line = 0;  ///< 1-based line number in the parsed text.
  };

  std::map<std::string, Entry> values_;
  mutable std::map<std::string, bool> accessed_;
  /// Every key a getter was asked for, present or not — the vocabulary of
  /// knobs the program supports, used by suggestion_for().
  mutable std::map<std::string, bool> requested_;
};

}  // namespace finser::util
