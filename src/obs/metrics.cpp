#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace ldke::obs {

std::uint64_t MetricRegistry::value(std::string_view name) const {
  const auto it =
      std::lower_bound(kCounterNames.begin(), kCounterNames.end(), name);
  if (it == kCounterNames.end() || *it != name) {
    throw std::out_of_range("unlisted counter: " + std::string{name});
  }
  return counts_[static_cast<std::size_t>(it - kCounterNames.begin())];
}

std::map<std::string, std::uint64_t, std::less<>> MetricRegistry::all() const {
  std::map<std::string, std::uint64_t, std::less<>> out;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out.emplace_hint(out.end(), kCounterNames[i], counts_[i]);
  }
  return out;
}

void MetricRegistry::set_gauge(std::string_view name, double value) {
  gauges_.insert_or_assign(std::string{name}, value);
}

void MetricRegistry::merge_from(MetricRegistry& other) noexcept {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counts_[i] += other.counts_[i];
  }
  other.counts_ = {};
}

JsonValue MetricRegistry::snapshot_json() const {
  JsonValue counters{JsonObject{}};
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (counts_[i] == 0) continue;
    counters.set(std::string{kCounterNames[i]}, counts_[i]);
  }
  JsonValue gauges{JsonObject{}};
  for (const auto& [name, value] : gauges_) {
    if (value != 0.0) gauges.set(name, value);
  }
  JsonValue out;
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", JsonValue{JsonObject{}});
  return out;
}

}  // namespace ldke::obs
