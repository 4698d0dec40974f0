#pragma once
/// \file metrics.hpp
/// Unified metric registry for one trial: named counters, plus typed
/// gauges and log-bucketed histograms.  All three families
/// support interned handles so true per-event hot paths (channel
/// transmissions, scheduler ticks, crypto ops) pay one pointer
/// indirection per update instead of a string hash/compare.
///
/// Slot stability: every family stores values in a std::map whose nodes
/// never move, and clear() zeroes handle-backed slots instead of erasing
/// them, so an outstanding handle stays valid for the registry lifetime.

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace ldke::obs {

/// Fixed-footprint log-bucketed histogram of non-negative doubles: 4
/// sub-buckets per power of two across 2^-32..2^32, plus exact count /
/// sum / min / max.  observe() is branch-light arithmetic — cheap enough
/// for per-event use; percentiles are approximate (within a sub-bucket,
/// ~19% relative width).
class Histogram {
 public:
  static constexpr int kSubBucketsLog2 = 2;  ///< 4 sub-buckets per octave
  static constexpr int kMinExponent = -32;
  static constexpr int kMaxExponent = 32;
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExponent - kMinExponent)
      << kSubBucketsLog2;

  void observe(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Approximate quantile (\p q in [0,1]); exact at the tails because the
  /// result is clamped to the observed [min, max].
  [[nodiscard]] double percentile(double q) const noexcept;

  void clear() noexcept { *this = Histogram{}; }

  /// Folds \p other into this histogram (bucket-wise add; min/max/sum
  /// widen).  Used to merge per-lane registries after a sharded run.
  void merge_from(const Histogram& other) noexcept;

  /// {"count":..,"mean":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..}
  [[nodiscard]] JsonValue to_json() const;

 private:
  [[nodiscard]] static std::size_t bucket_of(double value) noexcept;
  [[nodiscard]] static double bucket_mid(std::size_t index) noexcept;

  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricRegistry {
 public:
  /// Pre-resolved counter slot for hot paths: increments through it skip
  /// the name lookup entirely.  Obtained from handle(); stays valid for
  /// the lifetime of the registry — clear() zeroes handle-backed slots
  /// instead of erasing them, and std::map nodes never move.
  class Handle {
   public:
    Handle() = default;

   private:
    friend class MetricRegistry;
    explicit Handle(std::uint64_t* slot) noexcept : slot_(slot) {}
    std::uint64_t* slot_ = nullptr;
  };

  /// Pre-resolved gauge slot (set/add through it skips the name lookup).
  class GaugeHandle {
   public:
    GaugeHandle() = default;

   private:
    friend class MetricRegistry;
    explicit GaugeHandle(double* slot) noexcept : slot_(slot) {}
    double* slot_ = nullptr;
  };

  /// Pre-resolved histogram slot.
  class HistogramHandle {
   public:
    HistogramHandle() = default;

   private:
    friend class MetricRegistry;
    explicit HistogramHandle(Histogram* hist) noexcept : hist_(hist) {}
    Histogram* hist_ = nullptr;
  };

  // ---- counters ----

  /// Resolves (registering if needed) the slot for \p name.
  [[nodiscard]] Handle handle(std::string_view name);

  void increment(std::string_view name, std::uint64_t by = 1);

  /// Hot-path increment: no hashing, no string compare.
  void increment(Handle h, std::uint64_t by = 1) noexcept {
    if (h.slot_ != nullptr) *h.slot_ += by;
  }

  [[nodiscard]] std::uint64_t value(std::string_view name) const noexcept;

  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>&
  all() const noexcept {
    return counters_;
  }

  // ---- gauges (last-written doubles: queue depths, rates, ratios) ----

  [[nodiscard]] GaugeHandle gauge_handle(std::string_view name);

  void set_gauge(std::string_view name, double value);
  void set_gauge(GaugeHandle h, double value) noexcept {
    if (h.slot_ != nullptr) *h.slot_ = value;
  }

  [[nodiscard]] double gauge(std::string_view name) const noexcept;

  [[nodiscard]] const std::map<std::string, double, std::less<>>& gauges()
      const noexcept {
    return gauges_;
  }

  // ---- histograms (distributions: latencies, sizes, depths) ----

  [[nodiscard]] HistogramHandle histogram_handle(std::string_view name);

  void observe(std::string_view name, double value);
  void observe(HistogramHandle h, double value) noexcept {
    if (h.hist_ != nullptr) h.hist_->observe(value);
  }

  /// nullptr when the histogram was never touched.
  [[nodiscard]] const Histogram* histogram(std::string_view name) const;

  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const noexcept {
    return histograms_;
  }

  // ---- lifecycle / export ----

  /// Erases plain metrics; handle-backed slots are reset to zero but stay
  /// registered (outstanding Handles must remain valid).
  void clear() noexcept;

  /// Folds \p other into this registry: counters add, gauges overwrite
  /// (last writer wins — call in lane order for determinism), histograms
  /// bucket-merge.  \p other is clear()ed afterwards so its pinned
  /// handles stay valid but re-folding is idempotent.
  void merge_from(MetricRegistry& other);

  /// "name=value" counter lines, sorted by name (stable test output).
  [[nodiscard]] std::string to_string() const;

  /// Snapshot of everything with signal:
  /// {"counters":{..},"gauges":{..},"histograms":{..}}.
  /// Zero-valued counters are omitted — a handle-pinned counter that was
  /// never incremented (or was just clear()ed) reads identically to one
  /// that never existed, so snapshots before registration and after
  /// clear() agree.
  [[nodiscard]] JsonValue snapshot_json() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::set<std::string, std::less<>> pinned_;  ///< names with live Handles
  std::map<std::string, double, std::less<>> gauges_;
  std::set<std::string, std::less<>> pinned_gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::set<std::string, std::less<>> pinned_histograms_;
};

}  // namespace ldke::obs
