/// Pins the channel's coalesced fan-out — one delivery event per
/// (transmission, destination lane) — to a per-receiver reference: a
/// test-local channel that schedules one event per receiver on a plain
/// sim::Scheduler and takes every decision where the per-receiver model
/// takes it.  Both media run the same scripted traffic; the handler log,
/// the tallies, per-node energy and the RNG position afterwards must be
/// identical.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/channel.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace ldke::net {
namespace {

using sim::SimTime;

struct Tallies {
  std::uint64_t tx = 0;
  std::uint64_t rx = 0;
  std::uint64_t bytes = 0;
  std::uint64_t collisions = 0;
  std::uint64_t losses = 0;
  std::uint64_t gone = 0;
  std::uint64_t partition = 0;
  std::uint64_t csma_deferrals = 0;
  std::uint64_t csma_drops = 0;
  bool operator==(const Tallies&) const = default;
};

/// One handler invocation.
struct Heard {
  std::int64_t t_ns;
  NodeId receiver;
  NodeId sender;
  std::uint8_t tag;  ///< first payload byte
  bool operator==(const Heard&) const = default;
};

struct Outputs {
  std::vector<Heard> log;
  Tallies tallies;
  std::vector<double> energy_j;
  std::uint64_t next_draw = 0;  ///< the RNG's next raw output
};

Packet tagged(NodeId sender, std::uint8_t tag, std::size_t bytes = 20) {
  support::Bytes payload(bytes, 0);
  payload[0] = tag;
  return Packet{sender, PacketKind::kData, std::move(payload)};
}

/// 4 x 3 grid at unit spacing; range 1.5 links diagonals too.
Topology grid() {
  std::vector<Vec2> positions;
  for (int i = 0; i < 12; ++i) {
    positions.push_back(
        {static_cast<double>(i % 4), static_cast<double>(i / 4)});
  }
  return Topology::from_positions(std::move(positions), 1.5);
}

/// What a scripted case may do; implemented by both media.  The state
/// below is read by the gates each medium installs.
class Medium {
 public:
  using Reaction =
      std::function<void(Medium&, NodeId receiver, const Packet&)>;

  explicit Medium(const Topology& topo)
      : asleep(topo.size(), false), marked(topo.size(), false), topo_(topo) {}
  virtual ~Medium() = default;

  [[nodiscard]] virtual SimTime now() const = 0;
  virtual void broadcast(const Packet& packet) = 0;
  virtual void at(SimTime when, std::function<void()> action) = 0;

  Reaction react;                ///< extra handler behaviour beyond logging
  std::vector<bool> asleep;      ///< delivery gate: asleep radios hear nothing
  std::optional<double> wall_x;  ///< link gate: a partition wall
  std::vector<bool> marked;      ///< per-node flags a reaction may keep

 protected:
  [[nodiscard]] bool link_open(NodeId sender, NodeId receiver) const {
    if (!wall_x) return true;
    return (topo_.position(sender).x < *wall_x) ==
           (topo_.position(receiver).x < *wall_x);
  }

  void heard(NodeId receiver, const Packet& packet) {
    log_.push_back(
        Heard{now().ns(), receiver, packet.sender, packet.payload[0]});
    if (react) react(*this, receiver, packet);
  }

  const Topology& topo_;
  std::vector<Heard> log_;
};

/// The production channel, with the case's gates installed.
class ChannelMedium final : public Medium {
 public:
  ChannelMedium(const Topology& topo, ChannelConfig config, std::uint64_t seed)
      : Medium(topo),
        sim_(seed),
        channel_(sim_, topo, energy_, counters_, config) {
    energy_.resize(topo.size());
    channel_.set_delivery_handler([this](NodeId receiver, const Packet& pkt) {
      heard(receiver, pkt);
    });
    channel_.set_delivery_gate(
        [this](NodeId receiver) { return !asleep[receiver]; });
    channel_.set_link_gate([this](NodeId sender, NodeId receiver) {
      return link_open(sender, receiver);
    });
  }

  [[nodiscard]] SimTime now() const override { return sim_.now(); }
  void broadcast(const Packet& packet) override { channel_.broadcast(packet); }
  void at(SimTime when, std::function<void()> action) override {
    sim_.schedule_at(when, std::move(action));
  }

  Outputs run() {
    sim_.run();
    Outputs out;
    out.log = log_;
    out.tallies = Tallies{channel_.transmissions(),
                          channel_.deliveries(),
                          channel_.bytes_sent(),
                          channel_.collisions(),
                          channel_.losses(),
                          channel_.dropped_gone(),
                          channel_.dropped_partition(),
                          channel_.csma_deferrals(),
                          channel_.csma_drops()};
    for (NodeId id = 0; id < topo_.size(); ++id) {
      out.energy_j.push_back(energy_.consumed_j(id));
    }
    out.next_draw = sim_.rng().next();
    return out;
  }

  [[nodiscard]] std::uint64_t events_executed() const {
    return sim_.events_executed();
  }

 private:
  sim::Simulator sim_;
  EnergyModel energy_;
  obs::MetricRegistry counters_;
  Channel channel_;
};

/// The reference: one scheduler event per (transmission, receiver).
/// Link gate, loss draw, collision window and CSMA busy note are taken
/// per receiver at transmit time; delivery gate, rx energy, collision
/// check, tally and handler run in that receiver's own event.
class ReferenceMedium final : public Medium {
 public:
  ReferenceMedium(const Topology& topo, ChannelConfig config,
                  std::uint64_t seed)
      : Medium(topo), config_(config), rng_(seed) {
    energy_.resize(topo.size());
  }

  [[nodiscard]] SimTime now() const override { return now_; }
  void broadcast(const Packet& packet) override {
    if (config_.csma) {
      csma_transmit(packet, 0);
    } else {
      emit_now(packet);
    }
  }
  void at(SimTime when, std::function<void()> action) override {
    scheduler_.schedule(when, std::move(action));
  }

  Outputs run() {
    while (!scheduler_.empty()) {
      now_ = scheduler_.next_time();
      scheduler_.run_next();
    }
    Outputs out;
    out.log = log_;
    out.tallies = tallies_;
    for (NodeId id = 0; id < topo_.size(); ++id) {
      out.energy_j.push_back(energy_.consumed_j(id));
    }
    out.next_draw = rng_.next();
    return out;
  }

 private:
  struct Reception {
    SimTime end;
    std::shared_ptr<bool> corrupted;
  };

  void emit_now(const Packet& packet) {
    const double bits = static_cast<double>(packet.size_bytes()) * 8.0;
    const SimTime tx_end =
        now_ + SimTime::from_seconds(bits / config_.bitrate_bps);
    energy_.charge_tx(packet.sender, packet.size_bytes(), topo_.range());
    if (config_.csma) note_busy(packet.sender, tx_end);
    ++tallies_.tx;
    tallies_.bytes += packet.size_bytes();
    const SimTime arrival = tx_end + config_.propagation_delay;
    for (NodeId receiver : topo_.neighbors(packet.sender)) {
      if (!link_open(packet.sender, receiver)) {
        ++tallies_.partition;
        continue;
      }
      if (config_.loss_probability > 0.0 &&
          rng_.bernoulli(config_.loss_probability)) {
        ++tallies_.losses;
        continue;
      }
      std::shared_ptr<bool> corrupted;
      if (config_.model_collisions) {
        corrupted = track_reception(receiver, arrival);
      }
      if (config_.csma) note_busy(receiver, arrival);
      scheduler_.schedule(arrival, [this, receiver, packet, corrupted] {
        if (asleep[receiver]) {
          ++tallies_.gone;
          return;
        }
        energy_.charge_rx(receiver, packet.size_bytes());
        if (corrupted && *corrupted) {
          ++tallies_.collisions;
          return;
        }
        ++tallies_.rx;
        heard(receiver, packet);
      });
    }
  }

  std::shared_ptr<bool> track_reception(NodeId receiver, SimTime end) {
    auto corrupted = std::make_shared<bool>(false);
    auto& active = receptions_[receiver];
    std::erase_if(active,
                  [this](const Reception& r) { return r.end <= now_; });
    for (Reception& ongoing : active) {
      *ongoing.corrupted = true;
      *corrupted = true;
    }
    active.push_back(Reception{end, corrupted});
    return corrupted;
  }

  void note_busy(NodeId node, SimTime until) {
    SimTime& busy = busy_until_[node];
    if (until > busy) busy = until;
  }

  void csma_transmit(const Packet& packet, int attempt) {
    const auto it = busy_until_.find(packet.sender);
    if (it == busy_until_.end() || it->second <= now_) {
      emit_now(packet);
      return;
    }
    if (attempt >= config_.csma_max_attempts) {
      ++tallies_.csma_drops;
      return;
    }
    ++tallies_.csma_deferrals;
    const SimTime resume =
        it->second + SimTime::from_seconds(
                         rng_.exponential(1.0 / config_.csma_backoff_mean_s));
    scheduler_.schedule(resume, [this, packet, attempt] {
      csma_transmit(packet, attempt + 1);
    });
  }

  ChannelConfig config_;
  support::Xoshiro256 rng_;
  sim::Scheduler scheduler_;
  SimTime now_ = SimTime::zero();
  EnergyModel energy_;
  Tallies tallies_;
  std::unordered_map<NodeId, std::vector<Reception>> receptions_;
  std::unordered_map<NodeId, SimTime> busy_until_;
};

/// Runs \p script (and \p react inside every handler) on both media and
/// expects identical outputs.  Returns the production outputs.
Outputs expect_matches_reference(ChannelConfig config, std::uint64_t seed,
                                 const std::function<void(Medium&)>& script,
                                 Medium::Reaction react = nullptr) {
  const Topology topo = grid();
  ChannelMedium production{topo, config, seed};
  ReferenceMedium reference{topo, config, seed};
  for (Medium* m : {static_cast<Medium*>(&production),
                    static_cast<Medium*>(&reference)}) {
    m->react = react;
    script(*m);
  }
  const Outputs got = production.run();
  const Outputs want = reference.run();
  EXPECT_EQ(got.log, want.log);
  EXPECT_EQ(got.tallies, want.tallies);
  EXPECT_EQ(got.energy_j, want.energy_j);
  EXPECT_EQ(got.next_draw, want.next_draw);
  return got;
}

SimTime ms(double v) { return SimTime::from_seconds(v / 1000.0); }

/// Transmission-to-arrival time of \p packet under the default config.
SimTime airtime(const Packet& packet) {
  const ChannelConfig config;
  const double bits = static_cast<double>(packet.size_bytes()) * 8.0;
  return SimTime::from_seconds(bits / config.bitrate_bps) +
         config.propagation_delay;
}

/// Same-instant bursts from scattered senders, then a second wave.
void two_waves(Medium& m) {
  m.at(ms(0), [&m] {
    m.broadcast(tagged(5, 1));
    m.broadcast(tagged(0, 2, 36));
    m.broadcast(tagged(10, 3, 8));
  });
  m.at(ms(40), [&m] {
    m.broadcast(tagged(6, 4));
    m.broadcast(tagged(3, 5, 12));
  });
}

TEST(ChannelFanOut, PlainTrafficMatchesPerReceiverReference) {
  const Outputs out = expect_matches_reference({}, 1, two_waves);
  EXPECT_EQ(out.tallies.tx, 5u);
  EXPECT_GT(out.tallies.rx, 15u);
}

TEST(ChannelFanOut, LossMatchesPerReceiverReference) {
  ChannelConfig lossy;
  lossy.loss_probability = 0.4;
  const Outputs out = expect_matches_reference(lossy, 99, two_waves);
  EXPECT_GT(out.tallies.losses, 0u);
  EXPECT_GT(out.tallies.rx, 0u);
}

TEST(ChannelFanOut, CollisionsMatchPerReceiverReference) {
  ChannelConfig colliding;
  colliding.model_collisions = true;
  colliding.loss_probability = 0.2;
  const Outputs out = expect_matches_reference(colliding, 3, [](Medium& m) {
    two_waves(m);
    // Equal-size frames sent at one instant end together at shared
    // neighbors; a frame sent 5 ms later overlaps only their tails.
    m.at(ms(80), [&m] {
      m.broadcast(tagged(0, 6));
      m.broadcast(tagged(2, 7));
    });
    m.at(ms(85), [&m] { m.broadcast(tagged(9, 8, 40)); });
    // Nodes 0 and 2 corrupt each other at node 1; node 5 starts sending
    // the instant both frames end there.  That boundary is no overlap,
    // and the deliveries still pending at that instant stay corrupted.
    m.at(ms(120), [&m] {
      m.broadcast(tagged(0, 9));
      m.broadcast(tagged(2, 10));
    });
    m.at(ms(120) + airtime(tagged(0, 9)), [&m] { m.broadcast(tagged(5, 11)); });
  });
  EXPECT_GT(out.tallies.collisions, 0u);
  EXPECT_GT(out.tallies.rx, 0u);
}

TEST(ChannelFanOut, CsmaMatchesPerReceiverReference) {
  ChannelConfig csma;
  csma.csma = true;
  csma.model_collisions = true;
  csma.csma_max_attempts = 1;
  const Outputs out = expect_matches_reference(csma, 7, [](Medium& m) {
    // Everyone transmits into a quiet medium, then again while still
    // receiving: deferrals, back-off draws, drops and hidden terminals.
    for (const double t : {0.0, 5.0}) {
      m.at(ms(t), [&m, t] {
        for (NodeId id = 0; id < 12; ++id) {
          m.broadcast(tagged(id, static_cast<std::uint8_t>(id + t)));
        }
      });
    }
  });
  EXPECT_GT(out.tallies.csma_deferrals, 0u);
  EXPECT_GT(out.tallies.csma_drops, 0u);
}

TEST(ChannelFanOut, PartitionGateMatchesPerReceiverReference) {
  const Outputs out = expect_matches_reference({}, 1, [](Medium& m) {
    m.wall_x = 1.5;
    two_waves(m);
    m.at(ms(30), [&m] { m.wall_x.reset(); });  // heal before the 2nd wave
  });
  EXPECT_GT(out.tallies.partition, 0u);
}

TEST(ChannelFanOut, SleepMidFlightMatchesPerReceiverReference) {
  // Node 4 sleeps while wave one is in the air; node 5's handler puts
  // node 9 to sleep inside the same delivery event that still owes 9
  // its copy of the frame, then wakes it for wave two.
  const Outputs out = expect_matches_reference(
      {}, 1,
      [](Medium& m) {
        two_waves(m);
        m.at(ms(1), [&m] { m.asleep[4] = true; });
        m.at(ms(35), [&m] { m.asleep[4] = false; });
      },
      [](Medium& m, NodeId receiver, const Packet& packet) {
        if (receiver == 5 && packet.sender == 10) m.asleep[9] = true;
        if (receiver == 5 && packet.sender == 6) m.asleep[9] = false;
      });
  EXPECT_GT(out.tallies.gone, 1u);
}

TEST(ChannelFanOut, ZeroDelayRebroadcastMatchesPerReceiverReference) {
  // A flood: every node relays the first copy it hears, from inside the
  // handler or through a zero-delay event; loss and collisions make the
  // outcome depend on every RNG draw and reception window.
  ChannelConfig config;
  config.model_collisions = true;
  config.loss_probability = 0.1;
  const Outputs out = expect_matches_reference(
      config, 11,
      [](Medium& m) {
        m.marked[0] = true;
        m.at(ms(0), [&m] { m.broadcast(tagged(0, 0)); });
      },
      [](Medium& m, NodeId receiver, const Packet& packet) {
        if (m.marked[receiver]) return;
        m.marked[receiver] = true;
        const Packet relay =
            tagged(receiver, static_cast<std::uint8_t>(packet.payload[0] + 1));
        if (receiver % 2 == 0) {
          m.broadcast(relay);
        } else {
          m.at(m.now(), [&m, relay] { m.broadcast(relay); });
        }
      });
  EXPECT_GT(out.tallies.tx, 3u);
}

TEST(ChannelFanOut, OneEventPerTransmissionInCsrOrder) {
  const Topology topo = grid();
  ChannelMedium medium{topo, {}, 1};
  medium.at(ms(0), [&medium] {
    medium.broadcast(tagged(5, 1));
    medium.broadcast(tagged(0, 2));
  });
  const Outputs out = medium.run();
  // The scripted event plus one delivery event per transmission.
  EXPECT_EQ(medium.events_executed(), 3u);
  std::vector<NodeId> heard_from_5;
  for (const Heard& h : out.log) {
    if (h.sender == 5) heard_from_5.push_back(h.receiver);
  }
  const auto csr = topo.neighbors(5);
  EXPECT_EQ(heard_from_5, std::vector<NodeId>(csr.begin(), csr.end()));
}

TEST(NetworkBroadcast, DispatchesToAttachedNodes) {
  sim::Simulator sim{1};
  Network net{sim, Topology::from_positions({{0, 0}, {1, 0}, {2, 0}}, 1.5)};

  struct CountingNode final : Node {
    explicit CountingNode(NodeId id) : Node(id) {}
    void start(Network&) override {}
    void handle_packet(Network&, const Packet& packet) override {
      ++handled;
      last_sender = packet.sender;
    }
    int handled = 0;
    NodeId last_sender = kNoNode;
  };
  CountingNode n0{0}, n1{1}, n2{2};
  net.attach(n0);
  net.attach(n1);
  net.attach(n2);

  net.broadcast(tagged(1, 0x77, 12));
  sim.run();
  EXPECT_EQ(n0.handled, 1);
  EXPECT_EQ(n2.handled, 1);
  EXPECT_EQ(n1.handled, 0);  // sender does not hear itself
  EXPECT_EQ(n0.last_sender, 1u);
}

}  // namespace
}  // namespace ldke::net
