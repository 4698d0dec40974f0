#include "scenario/spec.hpp"

#include <sstream>

namespace ldke::scenario {

std::string_view to_string(MotionModel model) noexcept {
  switch (model) {
    case MotionModel::kNone:
      return "none";
    case MotionModel::kRandomWaypoint:
      return "waypoint";
    case MotionModel::kGroup:
      return "group";
  }
  return "none";
}

std::optional<MotionModel> motion_model_from_string(
    std::string_view name) noexcept {
  if (name == "none") return MotionModel::kNone;
  if (name == "waypoint") return MotionModel::kRandomWaypoint;
  if (name == "group") return MotionModel::kGroup;
  return std::nullopt;
}

double ScenarioSpec::total_duration_s() const noexcept {
  double total = 0.0;
  for (const PhaseSpec& phase : phases) total += phase.duration_s;
  return total;
}

std::string ScenarioSpec::validate() const {
  std::ostringstream err;
  if (nodes < 2) {
    err << "nodes must be >= 2 (base station plus at least one sensor)";
  } else if (density <= 0.0) {
    err << "density must be > 0";
  } else if (side_m <= 0.0) {
    err << "side_m must be > 0";
  } else if (motion.epoch_s <= 0.0) {
    err << "motion.epoch_s must be > 0";
  } else if (motion.speed_min_mps < 0.0 ||
             motion.speed_max_mps < motion.speed_min_mps) {
    err << "motion speeds must satisfy 0 <= speed_min_mps <= speed_max_mps";
  } else if (motion.pause_s < 0.0) {
    err << "motion.pause_s must be >= 0";
  } else if (motion.model == MotionModel::kGroup && motion.group_count == 0) {
    err << "motion.group_count must be >= 1 for the group model";
  } else if (churn.leave_rate_hz < 0.0 || churn.fail_rate_hz < 0.0 ||
             churn.join_rate_hz < 0.0) {
    err << "churn rates must be >= 0";
  } else if (!(duty.period_s >= 1e-9)) {
    // Flip times are integral nanoseconds; a shorter period truncates
    // to 0 ns, which the duty offsets are taken modulo.
    err << "duty.period_s must be >= 1e-9 (one nanosecond)";
  } else if (duty.active_fraction <= 0.0 || duty.active_fraction > 1.0) {
    err << "duty.active_fraction must be in (0, 1]";
  } else if (data.tick_interval_s <= 0.0) {
    err << "data.tick_interval_s must be > 0";
  } else if (data.reading_bytes == 0) {
    err << "data.reading_bytes must be >= 1";
  } else if (data.evict_interval_s < 0.0) {
    err << "data.evict_interval_s must be >= 0";
  } else if (data.evict_interval_s > 0.0 && data.evict_batch == 0) {
    err << "data.evict_batch must be >= 1 when eviction is on";
  } else if (phases.empty()) {
    err << "at least one phase is required";
  }
  if (!err.str().empty()) return err.str();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpec& phase = phases[i];
    if (phase.duration_s <= 0.0) {
      err << "phase " << i << " (" << phase.name
          << "): duration_s must be > 0";
      return err.str();
    }
    for (const ScriptedEvent& ev : phase.events) {
      if (ev.at_s < 0.0 || ev.at_s >= phase.duration_s) {
        err << "phase " << i << " (" << phase.name
            << "): event at_s must be in [0, duration_s)";
        return err.str();
      }
      if (ev.kind == ScriptedEvent::Kind::kPartition &&
          (ev.x_m <= 0.0 || ev.x_m >= side_m)) {
        err << "phase " << i << " (" << phase.name
            << "): partition x_m must be inside (0, side_m)";
        return err.str();
      }
    }
  }
  return {};
}

obs::JsonValue ScenarioSpec::to_json() const {
  using obs::JsonValue;
  JsonValue doc;
  doc.set("schema_version", kSchemaVersion);
  doc.set("name", name);
  doc.set("nodes", static_cast<std::uint64_t>(nodes));
  doc.set("density", density);
  doc.set("side_m", side_m);

  JsonValue motion_doc;
  motion_doc.set("model", to_string(motion.model));
  motion_doc.set("epoch_s", motion.epoch_s);
  motion_doc.set("speed_min_mps", motion.speed_min_mps);
  motion_doc.set("speed_max_mps", motion.speed_max_mps);
  motion_doc.set("pause_s", motion.pause_s);
  motion_doc.set("group_count", static_cast<std::uint64_t>(motion.group_count));
  motion_doc.set("group_jitter_m", motion.group_jitter_m);
  doc.set("motion", std::move(motion_doc));

  JsonValue churn_doc;
  churn_doc.set("leave_rate_hz", churn.leave_rate_hz);
  churn_doc.set("fail_rate_hz", churn.fail_rate_hz);
  churn_doc.set("join_rate_hz", churn.join_rate_hz);
  doc.set("churn", std::move(churn_doc));

  JsonValue duty_doc;
  duty_doc.set("period_s", duty.period_s);
  duty_doc.set("active_fraction", duty.active_fraction);
  doc.set("duty", std::move(duty_doc));

  JsonValue data_doc;
  data_doc.set("tick_interval_s", data.tick_interval_s);
  data_doc.set("readings_per_tick",
               static_cast<std::uint64_t>(data.readings_per_tick));
  data_doc.set("reading_bytes", static_cast<std::uint64_t>(data.reading_bytes));
  data_doc.set("refresh_interval_s", data.refresh_interval_s);
  data_doc.set("evict_interval_s", data.evict_interval_s);
  data_doc.set("evict_batch", static_cast<std::uint64_t>(data.evict_batch));
  doc.set("data", std::move(data_doc));

  JsonValue phase_array;
  for (const PhaseSpec& phase : phases) {
    JsonValue phase_doc;
    phase_doc.set("name", phase.name);
    phase_doc.set("duration_s", phase.duration_s);
    phase_doc.set("mobility", phase.mobility);
    phase_doc.set("churn", phase.churn);
    phase_doc.set("duty", phase.duty);
    phase_doc.set("recluster_after", phase.recluster_after);
    JsonValue event_array;
    for (const ScriptedEvent& ev : phase.events) {
      JsonValue ev_doc;
      ev_doc.set("kind", ev.kind == ScriptedEvent::Kind::kPartition
                             ? "partition"
                             : "heal");
      ev_doc.set("at_s", ev.at_s);
      if (ev.kind == ScriptedEvent::Kind::kPartition) ev_doc.set("x_m", ev.x_m);
      event_array.push(std::move(ev_doc));
    }
    if (!phase.events.empty()) phase_doc.set("events", std::move(event_array));
    phase_array.push(std::move(phase_doc));
  }
  doc.set("phases", std::move(phase_array));
  return doc;
}

std::optional<ScenarioSpec> ScenarioSpec::from_json(
    const obs::JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  if (doc.int_at("schema_version", kSchemaVersion) != kSchemaVersion) {
    return std::nullopt;
  }
  ScenarioSpec spec;
  spec.name = doc.string_at("name", spec.name);
  spec.nodes = static_cast<std::size_t>(
      doc.int_at("nodes", static_cast<std::int64_t>(spec.nodes)));
  spec.density = doc.number_at("density", spec.density);
  spec.side_m = doc.number_at("side_m", spec.side_m);

  if (const obs::JsonValue* motion_doc = doc.find("motion")) {
    const auto model =
        motion_model_from_string(motion_doc->string_at("model", "none"));
    if (!model) return std::nullopt;
    spec.motion.model = *model;
    spec.motion.epoch_s = motion_doc->number_at("epoch_s", spec.motion.epoch_s);
    spec.motion.speed_min_mps =
        motion_doc->number_at("speed_min_mps", spec.motion.speed_min_mps);
    spec.motion.speed_max_mps =
        motion_doc->number_at("speed_max_mps", spec.motion.speed_max_mps);
    spec.motion.pause_s = motion_doc->number_at("pause_s", spec.motion.pause_s);
    spec.motion.group_count = static_cast<std::size_t>(motion_doc->int_at(
        "group_count", static_cast<std::int64_t>(spec.motion.group_count)));
    spec.motion.group_jitter_m =
        motion_doc->number_at("group_jitter_m", spec.motion.group_jitter_m);
  }
  if (const obs::JsonValue* churn_doc = doc.find("churn")) {
    spec.churn.leave_rate_hz =
        churn_doc->number_at("leave_rate_hz", spec.churn.leave_rate_hz);
    spec.churn.fail_rate_hz =
        churn_doc->number_at("fail_rate_hz", spec.churn.fail_rate_hz);
    spec.churn.join_rate_hz =
        churn_doc->number_at("join_rate_hz", spec.churn.join_rate_hz);
  }
  if (const obs::JsonValue* duty_doc = doc.find("duty")) {
    spec.duty.period_s = duty_doc->number_at("period_s", spec.duty.period_s);
    spec.duty.active_fraction =
        duty_doc->number_at("active_fraction", spec.duty.active_fraction);
  }
  if (const obs::JsonValue* data_doc = doc.find("data")) {
    spec.data.tick_interval_s =
        data_doc->number_at("tick_interval_s", spec.data.tick_interval_s);
    spec.data.readings_per_tick = static_cast<std::size_t>(data_doc->int_at(
        "readings_per_tick",
        static_cast<std::int64_t>(spec.data.readings_per_tick)));
    spec.data.reading_bytes = static_cast<std::size_t>(data_doc->int_at(
        "reading_bytes", static_cast<std::int64_t>(spec.data.reading_bytes)));
    spec.data.refresh_interval_s =
        data_doc->number_at("refresh_interval_s", spec.data.refresh_interval_s);
    spec.data.evict_interval_s =
        data_doc->number_at("evict_interval_s", spec.data.evict_interval_s);
    spec.data.evict_batch = static_cast<std::size_t>(data_doc->int_at(
        "evict_batch", static_cast<std::int64_t>(spec.data.evict_batch)));
  }

  const obs::JsonValue* phase_array = doc.find("phases");
  if (phase_array == nullptr || !phase_array->is_array()) return std::nullopt;
  for (const obs::JsonValue& phase_doc : phase_array->as_array()) {
    if (!phase_doc.is_object()) return std::nullopt;
    PhaseSpec phase;
    phase.name = phase_doc.string_at("name", "phase");
    phase.duration_s = phase_doc.number_at("duration_s", phase.duration_s);
    phase.mobility = phase_doc.bool_at("mobility", false);
    phase.churn = phase_doc.bool_at("churn", false);
    phase.duty = phase_doc.bool_at("duty", false);
    phase.recluster_after = phase_doc.bool_at("recluster_after", false);
    if (const obs::JsonValue* event_array = phase_doc.find("events")) {
      if (!event_array->is_array()) return std::nullopt;
      for (const obs::JsonValue& ev_doc : event_array->as_array()) {
        ScriptedEvent ev;
        const std::string kind = ev_doc.string_at("kind", "");
        if (kind == "partition") {
          ev.kind = ScriptedEvent::Kind::kPartition;
        } else if (kind == "heal") {
          ev.kind = ScriptedEvent::Kind::kHeal;
        } else {
          return std::nullopt;
        }
        ev.at_s = ev_doc.number_at("at_s", 0.0);
        ev.x_m = ev_doc.number_at("x_m", 0.0);
        phase.events.push_back(ev);
      }
    }
    spec.phases.push_back(std::move(phase));
  }
  return spec;
}

std::optional<ScenarioSpec> ScenarioSpec::parse(std::string_view text) {
  const auto doc = obs::JsonValue::parse(text);
  if (!doc) return std::nullopt;
  return from_json(*doc);
}

}  // namespace ldke::scenario
