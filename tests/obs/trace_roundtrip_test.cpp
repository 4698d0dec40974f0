#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/trace_reader.hpp"
#include "obs/trace_sink.hpp"

namespace ldke::obs {
namespace {

/// Writes a small, fully deterministic trace: one setup phase with an
/// election sub-window, hello/link_advert/data traffic from three
/// senders, and one delivery sample.
std::string make_trace() {
  std::ostringstream os;
  TraceSink sink{os};
  JsonValue meta;
  meta.set("nodes", 4).set("density", 10.0).set("seed", 7);
  sink.write_meta("test", std::move(meta));

  TraceSpan setup;
  setup.name = "key_setup";
  setup.t0_ns = 0;
  setup.t1_ns = 4000;
  sink.write_span(setup);
  TraceSpan election;
  election.name = "election";
  election.t0_ns = 0;
  election.t1_ns = 1000;
  election.depth = 1;
  sink.write_span(election);

  sink.write_packet(100, 1, "hello", 40);
  sink.write_packet(500, 2, "hello", 40);
  sink.write_packet(1500, 1, "link_advert", 80);
  sink.write_packet(2500, 3, "link_advert", 80);
  sink.write_packet(3500, 3, "data", 120);

  DeliveryTracker::Sample sample;
  sample.source = 3;
  sample.t_tx_ns = 3500;
  sample.t_rx_ns = 3900;
  sink.write_delivery(sample);

  JsonValue snapshot;
  JsonValue counters;
  counters.set("events", 42);
  snapshot.set("counters", std::move(counters));
  sink.write_counters(std::move(snapshot));
  return os.str();
}

TEST(TraceRoundTrip, SinkOutputLoadsBack) {
  std::istringstream in{make_trace()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->version, kTraceSchemaVersion);
  EXPECT_EQ(data->node_count(), 4);
  EXPECT_EQ(data->meta.int_at("seed"), 7);
  ASSERT_EQ(data->spans.size(), 2u);
  EXPECT_EQ(data->spans[0].name, "key_setup");
  EXPECT_EQ(data->spans[1].depth, 1u);
  ASSERT_EQ(data->packets.size(), 5u);
  EXPECT_EQ(data->packets[2].kind, "link_advert");
  EXPECT_EQ(data->packets[2].sender, 1u);
  EXPECT_EQ(data->packets[2].bytes, 80u);
  ASSERT_EQ(data->deliveries.size(), 1u);
  EXPECT_EQ(data->deliveries[0].t_rx_ns, 3900);
  EXPECT_EQ(data->counters.find("counters")->int_at("events"), 42);
  EXPECT_EQ(data->skipped_lines, 0u);
}

TEST(TraceRoundTrip, PhaseRowsAttributeTrafficByWindow) {
  std::istringstream in{make_trace()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  const auto rows = phase_rows(*data);
  ASSERT_EQ(rows.size(), 2u);
  // key_setup [0,4000) holds all 5 packets; election [0,1000) the 2 hellos.
  EXPECT_EQ(rows[0].name, "key_setup");
  EXPECT_EQ(rows[0].packets, 5u);
  EXPECT_EQ(rows[0].bytes, 40u + 40 + 80 + 80 + 120);
  EXPECT_EQ(rows[1].name, "election");
  EXPECT_EQ(rows[1].packets, 2u);
  EXPECT_EQ(rows[1].bytes, 80u);
}

TEST(TraceRoundTrip, KindRowsSortByBytesDescending) {
  std::istringstream in{make_trace()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  const auto rows = kind_rows(*data);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].kind, "link_advert");  // 160 bytes
  EXPECT_EQ(rows[1].kind, "data");         // 120 bytes
  EXPECT_EQ(rows[2].kind, "hello");        // 80 bytes
  EXPECT_EQ(rows[0].packets, 2u);

  const auto in_election = kind_rows_in_phase(*data, "election");
  ASSERT_EQ(in_election.size(), 1u);
  EXPECT_EQ(in_election[0].kind, "hello");
  EXPECT_TRUE(kind_rows_in_phase(*data, "absent").empty());
}

TEST(TraceRoundTrip, TopTalkersRankBySentBytes) {
  std::istringstream in{make_trace()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  const auto talkers = top_talkers(*data, 2);
  ASSERT_EQ(talkers.size(), 2u);
  EXPECT_EQ(talkers[0].sender, 3u);  // 80 + 120 bytes
  EXPECT_EQ(talkers[0].bytes, 200u);
  EXPECT_EQ(talkers[1].sender, 1u);  // 40 + 80 bytes
}

TEST(TraceRoundTrip, LatencyAndFig9FromTraceAlone) {
  std::istringstream in{make_trace()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  const auto lat = latency_report(*data);
  EXPECT_EQ(lat.count, 1u);
  EXPECT_DOUBLE_EQ(lat.max_ms, 400e-6);  // 400 ns
  // Fig 9: (2 hellos + 2 link adverts) / 4 nodes.
  EXPECT_DOUBLE_EQ(setup_messages_per_node(*data), 1.0);
}

/// A steady-state trace: a closed "steady_state" span holding a burst of
/// DATA packets and four delivery samples with distinct latencies.
std::string make_steady_trace() {
  std::ostringstream os;
  TraceSink sink{os};
  JsonValue meta;
  meta.set("nodes", 8).set("seed", 9);
  sink.write_meta("test", std::move(meta));

  TraceSpan steady;
  steady.name = "steady_state";
  steady.t0_ns = 1'000'000'000;
  steady.t1_ns = 3'000'000'000;
  sink.write_span(steady);

  // One early delivery outside the window, four inside with latencies
  // 1/2/3/4 ms so the percentile ladder is unambiguous.
  DeliveryTracker::Sample early;
  early.source = 1;
  early.t_tx_ns = 100;
  early.t_rx_ns = 500;
  sink.write_delivery(early);
  for (int i = 1; i <= 4; ++i) {
    DeliveryTracker::Sample s;
    s.source = static_cast<std::uint32_t>(i);
    s.t_tx_ns = 1'000'000'000 + i * 10'000'000;
    s.t_rx_ns = s.t_tx_ns + i * 1'000'000;
    sink.write_delivery(s);
  }
  for (int i = 0; i < 10; ++i) {
    sink.write_packet(1'000'000'000 + i * 100'000'000, 2, "data", 64);
  }
  sink.write_packet(100, 2, "hello", 40);  // outside the window
  return os.str();
}

TEST(TraceRoundTrip, LatencyReportCanBeScopedToAPhaseWindow) {
  std::istringstream in{make_steady_trace()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());

  const auto all = latency_report(*data);
  EXPECT_EQ(all.count, 5u);

  const auto steady = latency_report_in_phase(*data, "steady_state");
  EXPECT_EQ(steady.count, 4u);  // the early sample falls outside
  EXPECT_DOUBLE_EQ(steady.mean_ms, 2.5);
  EXPECT_DOUBLE_EQ(steady.p50_ms, 3.0);  // upper-median percentile rule
  EXPECT_DOUBLE_EQ(steady.max_ms, 4.0);
  EXPECT_GE(steady.p95_ms, steady.p90_ms);
  EXPECT_GE(steady.p99_ms, steady.p95_ms);

  EXPECT_EQ(latency_report_in_phase(*data, "absent").count, 0u);
}

TEST(TraceRoundTrip, SteadyRateCoversTheSteadyStateWindow) {
  std::istringstream in{make_steady_trace()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  const auto rate = steady_rate(*data);
  ASSERT_TRUE(rate.has_value());
  EXPECT_EQ(rate->window, "steady_state");
  EXPECT_DOUBLE_EQ(rate->window_s, 2.0);
  EXPECT_EQ(rate->packets, 10u);  // the hello lands outside the window
  EXPECT_DOUBLE_EQ(rate->pkts_per_s, 5.0);

  // Without any usable window there is no rate to report.
  std::istringstream plain{make_trace()};
  const auto base = load_trace(plain);
  ASSERT_TRUE(base.has_value());
  EXPECT_FALSE(steady_rate(*base).has_value());
}

TEST(TraceRoundTrip, UnknownLineTypesAreSkippedNotFatal) {
  std::string text = make_trace();
  text += "{\"type\":\"future_thing\",\"x\":1}\n";
  text += "this line is not json\n";
  std::istringstream in{text};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->packets.size(), 5u);
  EXPECT_EQ(data->skipped_lines, 2u);
}

TEST(TraceRoundTrip, TraceDropsLineIsParsed) {
  std::ostringstream os;
  TraceSink sink{os};
  sink.write_meta("test", JsonValue{});
  sink.write_trace_drops("audit", 100, 70, 30);
  // A record from a writer before the family field: the packet log's.
  os << "{\"type\":\"trace_drops\",\"seen\":20,\"recorded\":8,"
        "\"dropped\":5,\"filtered\":7}\n";
  std::istringstream in{os.str()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->skipped_lines, 0u);
  EXPECT_EQ(data->trace_dropped, 35u);
  EXPECT_EQ(data->dropped_by_family.at("audit"), 30u);
  EXPECT_EQ(data->dropped_by_family.at("pkt"), 5u);
  const std::string summary = render_summary(*data);
  EXPECT_NE(summary.find("trace drops (audit)"), std::string::npos);
  EXPECT_NE(summary.find("trace drops (pkt)"), std::string::npos);
}

TEST(TraceRoundTrip, MissingMetaOrNewerVersionRejected) {
  std::istringstream no_meta{"{\"type\":\"pkt\",\"t\":1}\n"};
  EXPECT_FALSE(load_trace(no_meta).has_value());

  std::ostringstream os;
  os << "{\"type\":\"meta\",\"v\":" << (kTraceSchemaVersion + 1)
     << ",\"tool\":\"future\"}\n";
  std::istringstream newer{os.str()};
  EXPECT_FALSE(load_trace(newer).has_value());
}

/// A v2 trace exercising the audit + health families: one eviction that
/// converges (refresh_applied after it), one that never does, a join
/// pair, and two per-phase health samples.
std::string make_audit_trace() {
  std::ostringstream os;
  TraceSink sink{os};
  JsonValue meta;
  meta.set("nodes", 6).set("seed", 11);
  sink.write_meta("test", std::move(meta));

  TraceSpan span;
  span.name = "steady_state";
  span.t0_ns = 0;
  span.t1_ns = 4'000'000'000;
  sink.write_span(span);

  sink.write_audit({500'000'000, 0, 7, 0, AuditKind::kEvictionIssued});
  sink.write_audit({520'000'000, 3, 7, 0, AuditKind::kEvicted});
  sink.write_audit({900'000'000, 3, 9, 2, AuditKind::kRefreshApplied});
  sink.write_audit({1'000'000'000, 5, kAuditNoSubject, 0,
                    AuditKind::kJoinStarted});
  sink.write_audit({1'200'000'000, 5, 9, 2, AuditKind::kJoinAdmitted});
  sink.write_audit({3'800'000'000, 0, 9, 0, AuditKind::kEvictionIssued});

  HealthSample h1;
  h1.t_ns = 2'000'000'000;
  h1.phase = "baseline";
  h1.active_nodes = 6;
  h1.live_links = 10;
  h1.secured_links = 9;
  h1.secured_link_fraction = 0.9;
  h1.key_components = 1;
  h1.largest_component = 6;
  h1.delivered = 40;
  h1.latency_p50_ms = 1.5;
  h1.latency_p95_ms = 3.0;
  h1.epoch_skew = 0;
  h1.epoch_mean = 2.0;
  sink.write_health(h1);
  HealthSample h2 = h1;
  h2.t_ns = 4'000'000'000;
  h2.phase = "stress";
  h2.secured_links = 5;
  h2.secured_link_fraction = 0.5;
  h2.key_components = 2;
  h2.epoch_skew = 1;
  sink.write_health(h2);
  return os.str();
}

TEST(TraceRoundTrip, AuditAndHealthFamiliesRoundTrip) {
  std::istringstream in{make_audit_trace()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->version, 2);
  ASSERT_EQ(data->audits.size(), 6u);
  EXPECT_EQ(data->audits[0].kind, "eviction_issued");
  EXPECT_EQ(data->audits[0].subject, 7u);
  EXPECT_EQ(data->audits[3].kind, "join_started");
  EXPECT_EQ(data->audits[3].subject, kAuditNoSubject);  // omitted on write
  ASSERT_EQ(data->health.size(), 2u);
  EXPECT_EQ(data->health[0].phase, "baseline");
  EXPECT_EQ(data->health[1].key_components, 2u);
  EXPECT_DOUBLE_EQ(data->health[1].secured_link_fraction, 0.5);
  EXPECT_EQ(data->health[1].epoch_skew, 1u);
  EXPECT_EQ(data->skipped_lines, 0u);
}

TEST(TraceRoundTrip, AuditKindRowsCountAndWindow) {
  std::istringstream in{make_audit_trace()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  const auto rows = audit_kind_rows(*data);
  ASSERT_FALSE(rows.empty());
  // First-seen order: eviction_issued leads and counts both instances.
  EXPECT_EQ(rows[0].kind, "eviction_issued");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[0].first_s, 0.5);
  EXPECT_DOUBLE_EQ(rows[0].last_s, 3.8);
}

TEST(TraceRoundTrip, EvictionConvergenceFindsTheNextRefresh) {
  std::istringstream in{make_audit_trace()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  const auto conv = eviction_convergence(*data);
  ASSERT_EQ(conv.size(), 2u);
  EXPECT_TRUE(conv[0].converged);
  EXPECT_EQ(conv[0].victim_cid, 7u);
  EXPECT_DOUBLE_EQ(conv[0].converge_ms, 400.0);  // 0.5 s -> 0.9 s
  EXPECT_FALSE(conv[1].converged);  // no refresh after the late eviction
}

TEST(TraceRoundTrip, AuditAndHealthRendersFromTraceAlone) {
  std::istringstream in{make_audit_trace()};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  const std::string audit = render_audit(*data);
  EXPECT_NE(audit.find("eviction_issued"), std::string::npos);
  EXPECT_NE(audit.find("join_admitted"), std::string::npos);
  EXPECT_NE(audit.find("pending"), std::string::npos);  // unconverged row
  const std::string health = render_health(*data);
  EXPECT_NE(health.find("baseline"), std::string::npos);
  EXPECT_NE(health.find("stress"), std::string::npos);
}

TEST(TraceRoundTrip, V1TracesStillParse) {
  // A hand-written v1 trace: the pre-audit schema must stay readable.
  std::string text =
      "{\"type\":\"meta\",\"v\":1,\"tool\":\"old\",\"nodes\":3}\n"
      "{\"type\":\"span\",\"name\":\"key_setup\",\"t0\":0,\"t1\":100}\n"
      "{\"type\":\"pkt\",\"t\":50,\"sender\":1,\"kind\":\"hello\","
      "\"bytes\":40}\n";
  std::istringstream in{text};
  const auto data = load_trace(in);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->version, 1);
  EXPECT_EQ(data->packets.size(), 1u);
  EXPECT_TRUE(data->audits.empty());
  EXPECT_TRUE(data->health.empty());
  // v1 traces render through the v2 reports without audit/health rows.
  EXPECT_NE(render_summary(*data).find("old"), std::string::npos);
}

TEST(TraceRoundTrip, RendersAreDeterministicGolden) {
  std::istringstream in1{make_trace()}, in2{make_trace()};
  const auto a = load_trace(in1);
  const auto b = load_trace(in2);
  ASSERT_TRUE(a && b);
  // Same trace -> byte-identical reports (diff-able golden output).
  EXPECT_EQ(render_summary(*a), render_summary(*b));
  EXPECT_EQ(render_phases(*a), render_phases(*b));
  const std::string summary = render_summary(*a);
  EXPECT_NE(summary.find("test"), std::string::npos);
  EXPECT_NE(summary.find("1.00"), std::string::npos);  // Fig 9 quantity
  const std::string phases = render_phases(*a);
  EXPECT_NE(phases.find("key_setup"), std::string::npos);
  EXPECT_NE(phases.find("election"), std::string::npos);
}

}  // namespace
}  // namespace ldke::obs
