#pragma once
/// \file json.hpp
/// Minimal JSON document model for the observability layer: the trace
/// sink and the RunSummary writer serialize with it, ldke_trace parses
/// with it.  Objects preserve insertion order so emitted artifacts
/// are stable across runs (diff-able, golden-testable).  Dependency-free
/// by design — the repo bakes in no JSON library and the schema is small.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ldke::obs {

class JsonValue;

/// Insertion-ordered key/value list (JSON objects are small here; linear
/// lookup is fine and keeps emission order deterministic).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  JsonValue(std::nullptr_t) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(double d) : kind_(Kind::kNumber), num_(d) {}
  JsonValue(std::int64_t i) : kind_(Kind::kNumber), num_(static_cast<double>(i)), int_(i), is_int_(true) {}
  JsonValue(std::uint64_t u) : JsonValue(static_cast<std::int64_t>(u)) {}
  JsonValue(int i) : JsonValue(static_cast<std::int64_t>(i)) {}
  JsonValue(unsigned i) : JsonValue(static_cast<std::int64_t>(i)) {}
  JsonValue(const char* s) : kind_(Kind::kString), str_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  JsonValue(std::string_view s) : kind_(Kind::kString), str_(s) {}
  JsonValue(JsonArray a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  JsonValue(JsonObject o) : kind_(Kind::kObject), obj_(std::move(o)) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }

  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept {
    return kind_ == Kind::kBool ? bool_ : fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept {
    return kind_ == Kind::kNumber ? num_ : fallback;
  }
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const noexcept {
    if (kind_ != Kind::kNumber) return fallback;
    return is_int_ ? int_ : static_cast<std::int64_t>(num_);
  }
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }
  [[nodiscard]] const JsonArray& as_array() const noexcept { return arr_; }
  [[nodiscard]] const JsonObject& as_object() const noexcept { return obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Convenience typed lookups with fallbacks (missing key -> fallback).
  [[nodiscard]] double number_at(std::string_view key,
                                 double fallback = 0.0) const noexcept;
  [[nodiscard]] std::int64_t int_at(std::string_view key,
                                    std::int64_t fallback = 0) const noexcept;
  [[nodiscard]] std::string string_at(std::string_view key,
                                      std::string_view fallback = "") const;
  [[nodiscard]] bool bool_at(std::string_view key,
                             bool fallback = false) const noexcept;

  /// Appends a member (object) / element (array); converts a null value
  /// to the needed aggregate kind first.
  JsonValue& set(std::string key, JsonValue value);
  JsonValue& push(JsonValue value);

  /// Compact single-line serialization (JSONL-friendly).
  [[nodiscard]] std::string dump() const;

  /// Strict-enough parser for what dump() produces (plus whitespace).
  /// Returns nullopt on malformed input or trailing garbage.
  [[nodiscard]] static std::optional<JsonValue> parse(std::string_view text);

 private:
  void dump_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool is_int_ = false;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

/// Escapes a string for embedding in a JSON document.
[[nodiscard]] std::string json_escape(std::string_view raw);

}  // namespace ldke::obs
