#pragma once
/// \file delivery.hpp
/// End-to-end delivery tracking for DATA messages.  The hop envelope
/// re-stamps its freshness timestamp at every forwarder, so origination
/// time cannot be recovered from the wire — instead the source reports
/// on_originate() when it wraps a reading and the final destination
/// reports on_deliver() when the envelope authenticates.  Both name the
/// reading by (source, sequence), the per-source number the source
/// stamps into every reading, so a delivery is timed from its own
/// origination however many earlier readings of that source were lost.

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/json.hpp"

namespace ldke::obs {

class DeliveryTracker {
 public:
  struct Sample {
    std::uint32_t source = 0;
    std::int64_t t_tx_ns = 0;
    std::int64_t t_rx_ns = 0;

    [[nodiscard]] double latency_s() const noexcept {
      return static_cast<double>(t_rx_ns - t_tx_ns) * 1e-9;
    }
  };

  // Sources and sinks may live on different lanes of a sharded run, so
  // the report paths take a lock.  Uncontended in serial runs; the data
  // phase is not on the setup fast path.
  void on_originate(std::uint32_t source, std::uint64_t seq,
                    std::int64_t now_ns) {
    const std::lock_guard<std::mutex> lock(mutex_);
    outstanding_.emplace(ReadingId{source, seq}, now_ns);
    ++originated_;
  }

  void on_deliver(std::uint32_t source, std::uint64_t seq,
                  std::int64_t now_ns) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = outstanding_.find(ReadingId{source, seq});
    if (it == outstanding_.end()) {
      ++unmatched_;  // e.g. duplicate delivery or source outside tracking
      return;
    }
    samples_.push_back(Sample{source, it->second, now_ns});
    outstanding_.erase(it);
  }

  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::uint64_t originated() const noexcept {
    return originated_;
  }
  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return samples_.size();
  }
  [[nodiscard]] std::uint64_t unmatched() const noexcept { return unmatched_; }

  /// Exact quantile over recorded latencies (sorts a copy; offline use).
  [[nodiscard]] double latency_percentile_s(double q) const;

  /// Delivered count and latency quantiles restricted to samples whose
  /// origination time falls in [t_tx_from_ns, t_tx_until_ns] — the
  /// scenario engine's per-phase window.  Offline use, like the
  /// percentile above.
  struct WindowStats {
    std::uint64_t delivered = 0;
    double p50_s = 0.0;
    double p95_s = 0.0;
    double mean_s = 0.0;
  };
  [[nodiscard]] WindowStats window_stats(std::int64_t t_tx_from_ns,
                                         std::int64_t t_tx_until_ns) const;

  void clear() noexcept {
    outstanding_.clear();
    samples_.clear();
    originated_ = 0;
    unmatched_ = 0;
  }

  /// {"originated":..,"delivered":..,"p50_ms":..,...}
  [[nodiscard]] JsonValue to_json() const;

 private:
  struct ReadingId {
    std::uint32_t source = 0;
    std::uint64_t seq = 0;
    bool operator==(const ReadingId&) const = default;
  };
  struct ReadingIdHash {
    std::size_t operator()(const ReadingId& r) const noexcept {
      return std::hash<std::uint64_t>{}(r.seq * 0x9e3779b97f4a7c15ULL ^
                                        r.source);
    }
  };

  std::mutex mutex_;
  /// Origination time of every reading not yet delivered.
  std::unordered_map<ReadingId, std::int64_t, ReadingIdHash> outstanding_;
  std::vector<Sample> samples_;
  std::uint64_t originated_ = 0;
  std::uint64_t unmatched_ = 0;
};

}  // namespace ldke::obs
