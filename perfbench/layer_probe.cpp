#include "layer_probe.hpp"

#include <algorithm>
#include <numeric>

#include "crypto/prf.hpp"
#include "crypto/seal_context.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "scenario/mobility.hpp"
#include "support/rng.hpp"
#include "wsn/messages.hpp"

namespace perfbench {

using namespace ldke;

namespace {

/// Frames kept for the replays: a uniform reservoir over the whole window.
constexpr std::size_t kSampleFrames = 4096;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

bool is_envelope(std::uint8_t kind) {
  return kind == static_cast<std::uint8_t>(net::PacketKind::kData) ||
         kind == static_cast<std::uint8_t>(net::PacketKind::kBeacon);
}

/// Self-rescheduling event of the scheduler replay (hold model: every
/// event schedules one successor until the budget is spent).
struct HoldEvent {
  sim::Simulator* sim;
  support::Xoshiro256* rng;
  std::uint64_t* left;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    sim->schedule_in(
        sim::SimTime::from_ns(static_cast<std::int64_t>(rng->uniform_u64(2'000'000))),
        HoldEvent{*this});
  }
};

/// Scheduler push+pop cost at the workload's peak queue depth.
double replay_scheduler(std::size_t depth, std::uint64_t seed) {
  depth = std::clamp<std::size_t>(depth, 64, 400'000);
  sim::Simulator s{seed};
  support::Xoshiro256 rng{seed};
  std::uint64_t left = std::max<std::uint64_t>(600'000, 3 * depth);
  for (std::size_t i = 0; i < depth; ++i) {
    s.schedule_at(sim::SimTime::from_ns(
                      static_cast<std::int64_t>(rng.uniform_u64(2'000'000))),
                  HoldEvent{&s, &rng, &left});
  }
  const auto t0 = Clock::now();
  const std::uint64_t ran = s.run();
  return ns_since(t0) / static_cast<double>(std::max<std::uint64_t>(ran, 1));
}

/// Channel fan-out per delivered frame: the sampled frames re-broadcast
/// from their senders over the workload's topology with no node behaviour
/// attached, minus the scheduler share of the replay (priced at the
/// replay's own queue depth, which is far shallower than the workload's).
double replay_channel(const std::vector<FrameSample>& frames,
                      const std::vector<net::Vec2>& positions, double range,
                      std::uint64_t seed) {
  if (frames.empty() || positions.empty()) return 0.0;
  sim::Simulator s{seed};
  net::Network net{s, net::Topology::from_positions(positions, range)};
  std::vector<net::Packet> packets;
  for (const FrameSample& f : frames) {
    if (f.sender >= positions.size()) continue;
    net::Packet p;
    p.sender = f.sender;
    p.kind = static_cast<net::PacketKind>(f.kind);
    p.payload = net::PayloadRef{f.payload};
    packets.push_back(std::move(p));
  }
  if (packets.empty()) return 0.0;
  const auto t0 = Clock::now();
  for (int pass = 0; pass < 8 && net.channel().deliveries() < 400'000; ++pass) {
    for (std::size_t i = 0; i < packets.size(); ++i) {
      net.broadcast(packets[i]);
      if (i % 64 == 63) s.run();
    }
    s.run();
  }
  const double wall = ns_since(t0);
  const auto rx = static_cast<double>(net.channel().deliveries());
  if (rx == 0.0) return 0.0;
  const double sched = static_cast<double>(s.events_executed()) *
                       replay_scheduler(s.queue_high_water(), seed);
  return std::max(0.0, wall - sched) / rx;
}

/// Plaintext shape of a sampled frame's protected interior.
support::Bytes synthetic_inner(const FrameSample& f) {
  using net::PacketKind;
  const auto kind = static_cast<PacketKind>(f.kind);
  if (kind == PacketKind::kData) {
    wsn::DataInner inner;
    inner.tau_ns = f.t_ns;
    inner.echoed_cid = 7;
    inner.source = f.sender;
    inner.e2e_counter = 1;
    inner.e2e_encrypted = 1;
    // header (16) || ciphertext || tag; the interior's fixed fields take
    // 27 bytes of the ciphertext, the rest is the Step-1 body.
    const std::size_t fixed = wsn::kDataHeaderBytes + crypto::kMacTagBytes + 27;
    inner.body.assign(f.payload.size() > fixed ? f.payload.size() - fixed : 0,
                      0x5a);
    return wsn::encode(inner);
  }
  if (kind == PacketKind::kBeacon) {
    return wsn::encode(wsn::BeaconInner{3, f.t_ns, 7});
  }
  if (kind == PacketKind::kHello || kind == PacketKind::kReclusterHello) {
    return wsn::encode(wsn::HelloBody{f.sender, {}});
  }
  if (kind == PacketKind::kLinkAdvert || kind == PacketKind::kReclusterLink) {
    return wsn::encode(wsn::LinkAdvertBody{f.sender, {}});
  }
  return {};
}

template <typename Body>
std::size_t decode_size(const support::Bytes& bytes) {
  const auto body = wsn::decode<Body>(bytes);
  return body ? 1 : 0;
}

std::size_t decode_inner(std::uint8_t kind, const support::Bytes& bytes) {
  using net::PacketKind;
  switch (static_cast<PacketKind>(kind)) {
    case PacketKind::kData:
      return decode_size<wsn::DataInner>(bytes);
    case PacketKind::kBeacon:
      return decode_size<wsn::BeaconInner>(bytes);
    case PacketKind::kHello:
    case PacketKind::kReclusterHello:
      return decode_size<wsn::HelloBody>(bytes);
    case PacketKind::kLinkAdvert:
    case PacketKind::kReclusterLink:
      return decode_size<wsn::LinkAdvertBody>(bytes);
    default:
      return 0;
  }
}

/// wsn codec: the cleartext envelope split every receiver does, and the
/// interior decode a receiver does after a successful open.
void replay_codec(const std::vector<FrameSample>& frames, ReplayCosts& out) {
  if (frames.empty()) return;
  std::vector<support::Bytes> inners;
  inners.reserve(frames.size());
  for (const FrameSample& f : frames) inners.push_back(synthetic_inner(f));
  constexpr int kPasses = 40;
  std::size_t sink = 0;
  std::size_t splits = 0;
  auto t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const FrameSample& f : frames) {
      if (!is_envelope(f.kind)) continue;
      const auto env = wsn::split_envelope(f.payload);
      sink += env ? env->sealed.size() : 0;
      ++splits;
    }
  }
  out.wsn_split_ns = splits == 0 ? 0.0 : ns_since(t0) / static_cast<double>(splits);
  std::size_t decodes = 0;
  t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (inners[i].empty()) continue;
      sink += decode_inner(frames[i].kind, inners[i]);
      ++decodes;
    }
  }
  out.wsn_inner_ns =
      decodes == 0 ? 0.0 : ns_since(t0) / static_cast<double>(decodes);
  if (sink == 0xfeedface) out.wsn_inner_ns += 1e-9;  // keeps the work alive
}

/// SealContext seal/open at the sampled frames' sizes on a warm context,
/// the context build a node pays after every key change (AES schedule and
/// HMAC midstates; the two PRF calls deriving the pair are counted as prf
/// calls by the simulator itself), and prf at its 16-byte key size.
void replay_crypto(const std::vector<FrameSample>& frames, ReplayCosts& out) {
  std::vector<std::size_t> sizes;
  for (const FrameSample& f : frames) {
    const std::size_t overhead =
        (is_envelope(f.kind) ? wsn::kDataHeaderBytes : 0) + crypto::kMacTagBytes;
    sizes.push_back(f.payload.size() > overhead + 8 ? f.payload.size() - overhead
                                                    : 8);
  }
  if (sizes.empty()) sizes.push_back(32);
  const std::size_t n = sizes.size() * 16;
  support::Bytes plain(512, 0x33);
  support::Bytes aad(wsn::kDataHeaderBytes, 0x11);
  crypto::Key128 key{};
  const crypto::SealContext ctx{key};
  std::vector<support::Bytes> sealed;
  sealed.reserve(n);

  auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = std::min(sizes[i % sizes.size()], plain.size());
    sealed.push_back(ctx.seal(i, std::span(plain).first(len), aad));
  }
  out.seal_ns = ns_since(t0) / static_cast<double>(n);

  std::size_t ok = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    ok += ctx.open(i, sealed[i], aad).has_value() ? 1 : 0;
  }
  out.open_ns = ns_since(t0) / static_cast<double>(n);

  constexpr std::size_t kBuilds = 20'000;
  crypto::KeyPair pair{key, key};
  t0 = Clock::now();
  for (std::size_t i = 0; i < kBuilds; ++i) {
    pair.encr.bytes[i % crypto::kKeyBytes] ^= static_cast<std::uint8_t>(i);
    const crypto::SealContext built{pair};
    ok += built.seal(i, std::span(plain).first(1)).size();
  }
  out.context_ns = ns_since(t0) / static_cast<double>(kBuilds) - out.seal_ns;

  constexpr std::size_t kPrf = 200'000;
  crypto::Key128 k = key;
  t0 = Clock::now();
  for (std::size_t i = 0; i < kPrf; ++i) {
    if (i % 2 == 0) {
      k = crypto::prf_u64(k, i);
    } else {
      crypto::one_way_inplace(k);
    }
  }
  out.prf_ns = ns_since(t0) / static_cast<double>(kPrf);
  if (ok + k.bytes[0] == 0xfeedface) out.prf_ns += 1e-9;  // keeps the work alive
}

/// Incremental topology maintenance fed by a MobilityField on the
/// workload's motion config and seed.
void replay_topology(const std::vector<net::Vec2>& positions, double range,
                     const scenario::MotionConfig& motion, double side_m,
                     std::uint64_t seed, ReplayCosts& out) {
  constexpr std::size_t kEpochs = 200;
  net::Topology topo = net::Topology::from_positions(positions, range);
  scenario::MobilityField field{
      motion, side_m, topo.positions(),
      support::derive_seed(seed, scenario::kMotionSeedTag)};
  double movers = 0.0;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    field.advance(motion.epoch_s);
    const scenario::MobilityField::Displacements d = field.displacements();
    movers += static_cast<double>(d.ids.size());
    const auto t0 = Clock::now();
    topo.apply_displacements(d.ids, d.positions);
    out.epoch_us.push_back(ns_since(t0) * 1e-3);
  }
  out.movers_per_epoch = movers / static_cast<double>(kEpochs);
}

}  // namespace

// ---- ProbeChain -----------------------------------------------------------

std::size_t ProbeChain::add(std::int64_t t_ns) {
  times_.push_back(t_ns);
  return times_.size() - 1;
}

void ProbeChain::arm(sim::Simulator& sim) {
  order_.resize(times_.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::stable_sort(order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
    return times_[a] < times_[b];
  });
  stamps_.assign(times_.size(), Clock::time_point{});
  fired_flags_.assign(times_.size(), 0);
  next_ = 0;
  // Drop probes already in the past.
  while (next_ < order_.size() && times_[order_[next_]] < sim.now().ns()) {
    ++next_;
  }
  schedule_next(sim);
}

void ProbeChain::schedule_next(sim::Simulator& sim) {
  if (next_ >= order_.size()) return;
  const std::size_t idx = order_[next_++];
  sim.schedule_at(sim::SimTime::from_ns(times_[idx]), [this, idx, &sim] {
    stamps_[idx] = Clock::now();
    fired_flags_[idx] = 1;
    ++fired_;
    schedule_next(sim);
  });
}

// ---- LayerTaps ------------------------------------------------------------

LayerTaps::LayerTaps(core::ProtocolRunner& runner) : runner_(runner) {
  samples_.reserve(kSampleFrames);
  runner_.network().channel().set_sniffer(
      [this](const net::Packet& pkt) { on_frame(pkt); });
  runner_.network().set_audit_sink(&audit_);
}

LayerTaps::~LayerTaps() {
  runner_.network().channel().set_sniffer(nullptr);
  runner_.network().set_audit_sink(nullptr);
}

void LayerTaps::on_frame(const net::Packet& pkt) {
  const std::int64_t now = runner_.sim().now().ns();
  // Reservoir sample with a fixed stream: the same frames every run.
  ++seen_;
  std::size_t slot = samples_.size();
  if (samples_.size() >= kSampleFrames) {
    slot = static_cast<std::size_t>(
        support::derive_seed(0x5a4d504c45ULL, seen_) % seen_);
  }
  if (slot < kSampleFrames) {
    FrameSample f;
    f.sender = pkt.sender;
    f.kind = static_cast<std::uint8_t>(pkt.kind);
    f.t_ns = now;
    f.payload.assign(pkt.payload.begin(), pkt.payload.end());
    if (slot == samples_.size()) {
      samples_.push_back(std::move(f));
    } else {
      samples_[slot] = std::move(f);
    }
  }

  if (!is_envelope(static_cast<std::uint8_t>(pkt.kind))) return;
  const auto env = wsn::split_envelope(pkt.payload);
  if (!env) return;
  count_contexts(pkt.sender, env->header.cid, now);

  if (pkt.kind != net::PacketKind::kData || tick_period_ns_ <= 0 ||
      now < tick_origin_ns_ || (now - tick_origin_ns_) % tick_period_ns_ != 0) {
    return;
  }
  if (now != group_t_ns_) {
    tick_groups_ += group_cids_.size();
    group_cids_.clear();
    group_t_ns_ = now;
  }
  ++tick_originations_;
  if (std::find(group_cids_.begin(), group_cids_.end(), env->header.cid) ==
      group_cids_.end()) {
    group_cids_.push_back(env->header.cid);
  }
}

void LayerTaps::count_contexts(net::NodeId sender, std::uint32_t cid,
                               std::int64_t now) {
  const std::int64_t epoch =
      refresh_period_ns_ > 0 && now >= tick_origin_ns_
          ? (now - tick_origin_ns_) / refresh_period_ns_
          : -1;
  if (epoch != key_epoch_) {
    context_builds_ += epoch_pairs_.size();
    epoch_pairs_.clear();
    key_epoch_ = epoch;
  }
  const auto pair = [cid](net::NodeId node) {
    return (std::uint64_t{node} << 32) | cid;
  };
  epoch_pairs_.insert(pair(sender));
  const net::Topology& topo = runner_.network().topology();
  if (sender >= topo.size()) return;
  for (const net::NodeId r : topo.neighbors(sender)) {
    if (r < runner_.node_count() && runner_.node(r).keys().key_for(cid)) {
      epoch_pairs_.insert(pair(r));
    }
  }
}

double LayerTaps::batch_lanes_mean() const {
  const std::uint64_t groups = tick_groups_ + group_cids_.size();
  return groups == 0 ? 0.0
                     : static_cast<double>(tick_originations_) /
                           static_cast<double>(groups);
}

// ---- replays --------------------------------------------------------------

ReplayCosts run_replays(const LayerTaps& taps, std::size_t queue_depth,
                        const std::vector<net::Vec2>& positions, double range,
                        const scenario::MotionConfig* motion, double side_m,
                        std::uint64_t seed) {
  ReplayCosts out;
  out.sim_ns_per_event = replay_scheduler(queue_depth, seed);
  out.net_ns_per_rx = replay_channel(taps.samples(), positions, range, seed);
  replay_codec(taps.samples(), out);
  replay_crypto(taps.samples(), out);
  if (motion != nullptr) {
    replay_topology(positions, range, *motion, side_m, seed, out);
  }
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace perfbench
