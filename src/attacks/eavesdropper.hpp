#pragma once
/// \file eavesdropper.hpp
/// Passive global eavesdropper: records every transmission on the
/// broadcast medium and, given an Adversary's captured key material,
/// reports how much of the recorded data traffic is readable.  This is
/// the confidentiality counterpart of the link-fraction metric.
///
/// The sniffer observes *all* PacketKinds — a real adversary does not
/// get to see only data frames — and counts every frame and byte; data
/// envelopes additionally leave their cleartext cluster id.

#include <cstdint>
#include <vector>

#include "attacks/adversary.hpp"
#include "net/network.hpp"

namespace ldke::attacks {

class Eavesdropper {
 public:
  /// Starts recording all traffic on \p net.  Only one eavesdropper per
  /// network (it owns the sniffer hook).
  void attach(net::Network& net);

  [[nodiscard]] std::uint64_t packets_seen() const noexcept {
    return packets_seen_;
  }
  [[nodiscard]] std::uint64_t bytes_seen() const noexcept {
    return bytes_seen_;
  }

  [[nodiscard]] std::uint64_t data_packets_seen() const noexcept {
    return data_headers_.size();
  }

  /// Number of recorded data envelopes whose wrapping cluster key the
  /// adversary holds (it can decrypt the hop layer and "peek").
  [[nodiscard]] std::uint64_t readable_data_packets(
      const Adversary& adversary) const;

  void reset() noexcept;

 private:
  std::uint64_t packets_seen_ = 0;
  std::uint64_t bytes_seen_ = 0;
  std::vector<core::ClusterId> data_headers_;  // cid per recorded envelope
};

}  // namespace ldke::attacks
