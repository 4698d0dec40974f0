#pragma once
/// \file span.hpp
/// Sim-time-stamped trace spans.  A PhaseTimeline records what the run
/// was doing when: protocol phases (election, link establishment,
/// routing, forwarding, re-clustering) open and close spans against the
/// simulated clock, and nested begins stack (a routing flood inside a
/// recluster round is a child span).  Offline, ldke_trace joins packet
/// timestamps against these windows to attribute traffic per phase.
///
/// Span begin/end is append-to-vector + integer stores — cheap enough to
/// wrap around every protocol phase, though not meant for per-packet use
/// (that is what the MetricRegistry's counters are for).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace ldke::obs {

/// Identifier of a span within its timeline (index + 1; 0 is invalid).
using SpanId = std::size_t;

inline constexpr SpanId kInvalidSpanId = 0;

struct TraceSpan {
  std::string name;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = -1;     ///< -1 while still open
  std::uint32_t depth = 0;     ///< 0 = top-level phase
  SpanId parent = kInvalidSpanId;

  [[nodiscard]] bool closed() const noexcept { return t1_ns >= 0; }
  [[nodiscard]] double duration_s() const noexcept {
    return closed() ? static_cast<double>(t1_ns - t0_ns) * 1e-9 : 0.0;
  }
  [[nodiscard]] bool contains(std::int64_t t_ns) const noexcept {
    return t_ns >= t0_ns && (!closed() || t_ns < t1_ns);
  }
};

class PhaseTimeline {
 public:
  /// Opens a span at \p now_ns, nested under the innermost still-open
  /// span (if any).  Spans are recorded in begin order.
  SpanId begin_span(std::string_view name, std::int64_t now_ns);

  /// Closes \p id at \p now_ns; also closes any younger spans still open
  /// inside it (a phase ending ends its sub-phases).  Ignores invalid or
  /// already-closed ids.
  void end_span(SpanId id, std::int64_t now_ns);

  /// Records an already-bounded window retroactively (e.g. the
  /// config-derived election window inside a completed setup phase).
  /// Nested under the innermost open span at insertion time.
  SpanId add_span(std::string_view name, std::int64_t t0_ns,
                  std::int64_t t1_ns);

  [[nodiscard]] const std::vector<TraceSpan>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::size_t open_depth() const noexcept {
    return open_.size();
  }

  /// First span with \p name, nullptr if none.
  [[nodiscard]] const TraceSpan* find(std::string_view name) const noexcept;

  /// Sum of closed durations over every span named \p name.
  [[nodiscard]] double total_s(std::string_view name) const noexcept;

  void clear() noexcept {
    spans_.clear();
    open_.clear();
  }

  /// Array of {"name","t0","t1","depth"} in begin order (open spans get
  /// t1 = -1).
  [[nodiscard]] JsonValue to_json() const;

 private:
  std::vector<TraceSpan> spans_;
  std::vector<SpanId> open_;  ///< stack of open span ids
};

/// RAII phase guard: opens on construction, closes on destruction with
/// the time the clock callback reports then.
class ScopedSpan {
 public:
  using ClockFn = std::int64_t (*)(void*);

  ScopedSpan(PhaseTimeline& timeline, std::string_view name, ClockFn clock,
             void* ctx)
      : timeline_(timeline),
        clock_(clock),
        ctx_(ctx),
        id_(timeline.begin_span(name, clock(ctx))) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { timeline_.end_span(id_, clock_(ctx_)); }

 private:
  PhaseTimeline& timeline_;
  ClockFn clock_;
  void* ctx_;
  SpanId id_;
};

}  // namespace ldke::obs
