#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace ldke::scenario {
namespace {

ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.name = "roundtrip";
  spec.nodes = 123;
  spec.density = 9.5;
  spec.side_m = 750.0;
  spec.motion.model = MotionModel::kGroup;
  spec.motion.epoch_s = 0.25;
  spec.motion.speed_min_mps = 0.5;
  spec.motion.speed_max_mps = 3.5;
  spec.motion.pause_s = 0.75;
  spec.motion.group_count = 7;
  spec.motion.group_jitter_m = 1.5;
  spec.churn = {0.5, 0.25, 1.0};
  spec.duty = {1.5, 0.6};
  spec.data = {0.05, 16, 32, 0.5};
  PhaseSpec calm;
  calm.name = "calm";
  calm.duration_s = 1.0;
  PhaseSpec storm;
  storm.name = "storm";
  storm.duration_s = 2.0;
  storm.mobility = true;
  storm.churn = true;
  storm.duty = true;
  storm.recluster_after = true;
  storm.events.push_back({ScriptedEvent::Kind::kPartition, 0.5, 300.0});
  storm.events.push_back({ScriptedEvent::Kind::kHeal, 1.5, 0.0});
  spec.phases = {calm, storm};
  return spec;
}

TEST(ScenarioSpec, JsonRoundTripPreservesEveryField) {
  const ScenarioSpec spec = full_spec();
  ASSERT_TRUE(spec.validate().empty()) << spec.validate();
  const std::string dumped = spec.to_json().dump();
  const auto reparsed = ScenarioSpec::parse(dumped);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->to_json().dump(), dumped);
  EXPECT_EQ(reparsed->motion.model, MotionModel::kGroup);
  EXPECT_EQ(reparsed->phases.size(), 2u);
  EXPECT_EQ(reparsed->phases[1].events.size(), 2u);
  EXPECT_TRUE(reparsed->phases[1].recluster_after);
}

TEST(ScenarioSpec, ValidateFlagsBadFields) {
  ScenarioSpec spec = full_spec();
  spec.duty.active_fraction = 1.5;
  EXPECT_FALSE(spec.validate().empty());

  spec = full_spec();
  spec.duty.period_s = 1e-10;  // truncates to a 0 ns period
  EXPECT_FALSE(spec.validate().empty());

  spec = full_spec();
  spec.phases[0].duration_s = 0.0;
  EXPECT_FALSE(spec.validate().empty());

  spec = full_spec();
  spec.phases[1].events[0].at_s = 5.0;  // outside the phase
  EXPECT_FALSE(spec.validate().empty());

  spec = full_spec();
  spec.phases[1].events[0].x_m = 2000.0;  // outside the square
  EXPECT_FALSE(spec.validate().empty());

  spec = full_spec();
  spec.phases.clear();
  EXPECT_FALSE(spec.validate().empty());
}

TEST(ScenarioSpec, RejectsMalformedDocuments) {
  EXPECT_FALSE(ScenarioSpec::parse("not json").has_value());
  EXPECT_FALSE(ScenarioSpec::parse("{}").has_value());  // phases missing
  EXPECT_FALSE(
      ScenarioSpec::parse(R"({"motion":{"model":"teleport"},"phases":[]})")
          .has_value());
  EXPECT_FALSE(
      ScenarioSpec::parse(R"({"schema_version":99,"phases":[]})").has_value());
}

TEST(ScenarioSpec, CommittedExampleParsesCleanly) {
  std::ifstream in(std::string(LDKE_SCENARIO_DIR) + "/waypoint_churn.json");
  ASSERT_TRUE(in.good()) << "examples/scenarios/waypoint_churn.json missing";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto spec = ScenarioSpec::parse(buffer.str());
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->validate().empty()) << spec->validate();
  EXPECT_EQ(spec->name, "waypoint_churn");
  EXPECT_EQ(spec->nodes, 600u);
  EXPECT_EQ(spec->motion.model, MotionModel::kRandomWaypoint);
  EXPECT_EQ(spec->phases.size(), 3u);
  EXPECT_TRUE(spec->phases[1].recluster_after);
}

}  // namespace
}  // namespace ldke::scenario
