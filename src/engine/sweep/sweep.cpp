#include "engine/sweep/sweep.hpp"

#include <cstdio>
#include <utility>

#include "engine/policy_registry.hpp"
#include "util/error.hpp"
#include "workload/grid_signals.hpp"
#include "workload/job_type.hpp"
#include "workload/regulation.hpp"
#include "workload/schedule.hpp"

namespace anor::engine::sweep {

namespace {

const char* const kAxisFields[] = {"policy",     "backend",    "signal",
                                   "utilization", "duration_s", "node_count",
                                   "seed",       "perf_variation_sigma",
                                   "static_budget_w"};

/// Base-spec parsing without ScenarioSpec::validate(): a grid base may
/// legitimately omit the schedule (generation supplies one per cell).
/// Field names/defaults mirror scenario_spec_from_json.
ScenarioSpec base_from_json(const util::Json& json) {
  ScenarioSpec spec;
  spec.name = json.string_or("name", spec.name);
  spec.backend = backend_from_string(json.string_or("backend", "tabular"));
  if (json.contains("schedule")) {
    spec.schedule = workload::Schedule::from_json(json.at("schedule"));
  }
  if (json.contains("policy")) spec.policy = policy_ref_from_json(json.at("policy"));
  if (json.contains("static_budget_w")) {
    spec.static_budget_w = json.at("static_budget_w").as_number();
  }
  spec.node_count = util::checked_integer_or(json, "node_count", spec.node_count);
  spec.perf_variation_sigma =
      json.number_or("perf_variation_sigma", spec.perf_variation_sigma);
  spec.seed = util::checked_integer_or<std::uint64_t>(json, "seed", 1);
  spec.tracking_warmup_s = json.number_or("tracking_warmup_s", spec.tracking_warmup_s);
  spec.tracking_reserve_w = json.number_or("tracking_reserve_w", spec.tracking_reserve_w);
  return spec;
}

std::string value_label(const util::Json& value) {
  if (value.is_string()) return value.as_string();
  if (value.is_object() && value.contains("name")) {
    // Object-valued policy axis entries ({"name", "expr"}) label by name.
    return value.at("name").as_string();
  }
  if (value.is_number()) {
    // Short %g labels (0.6, not 0.59999999999999998): cell names are
    // display-only and excluded from canonical cache keys.
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%g", value.as_number());
    return buffer;
  }
  return value.dump();
}

}  // namespace

bool is_sweep_axis_field(const std::string& field) {
  for (const char* known : kAxisFields) {
    if (field == known) return true;
  }
  return false;
}

SweepGrid SweepGrid::from_json(const util::Json& json) {
  const std::string schema = json.string_or("schema", "anor.sweep.v1");
  if (schema != "anor.sweep.v1") {
    throw util::ConfigError("sweep grid: unexpected schema '" + schema + "'");
  }
  SweepGrid grid;
  grid.name = json.string_or("name", grid.name);

  // Register grid-defined policies before the base/axes parse so axis
  // values and the base spec can reference them by bare name.
  if (json.contains("policies")) {
    for (const util::Json& item : json.at("policies").as_array()) {
      SweepPolicyDef def;
      def.name = item.at("name").as_string();
      def.expr = item.at("expr").as_string();
      def.summary = item.string_or("summary", "");
      PolicyRegistry::global().register_expression_policy(def.name, def.expr, def.summary);
      grid.policies.push_back(std::move(def));
    }
  }

  if (json.contains("base")) grid.base = base_from_json(json.at("base"));

  if (json.contains("generate")) {
    const util::Json& gen = json.at("generate");
    grid.generate.enabled = true;
    grid.generate.duration_s = gen.number_or("duration_s", grid.generate.duration_s);
    grid.generate.utilization = gen.number_or("utilization", grid.generate.utilization);
    grid.generate.signal = gen.string_or("signal", grid.generate.signal);
    grid.generate.long_types_only =
        gen.bool_or("long_types_only", grid.generate.long_types_only);
    grid.generate.budget_per_node_w =
        gen.number_or("budget_per_node_w", grid.generate.budget_per_node_w);
    const std::string label = gen.string_or(
        "misclassify", grid.generate.misclassify_true + "=" + grid.generate.misclassify_as);
    const auto eq = label.find('=');
    if (eq == std::string::npos) {
      throw util::ConfigError("sweep grid: generate.misclassify expects TRUE=CLASSIFIED");
    }
    grid.generate.misclassify_true = label.substr(0, eq);
    grid.generate.misclassify_as = label.substr(eq + 1);
  }

  if (json.contains("axes")) {
    for (const util::Json& item : json.at("axes").as_array()) {
      SweepAxis axis;
      axis.field = item.at("field").as_string();
      if (!is_sweep_axis_field(axis.field)) {
        throw util::ConfigError("sweep grid: unknown axis field '" + axis.field + "'");
      }
      for (const util::Json& value : item.at("values").as_array()) {
        // Integer axes are checked here, before any cell runs.
        if (axis.field == "node_count") (void)util::checked_integer<int>(value, axis.field);
        if (axis.field == "seed") (void)util::checked_integer<std::uint64_t>(value, axis.field);
        axis.values.push_back(value);
      }
      if (axis.values.empty()) {
        throw util::ConfigError("sweep grid: axis '" + axis.field + "' has no values");
      }
      grid.axes.push_back(std::move(axis));
    }
  }
  if (!grid.generate.enabled && grid.base.schedule.jobs.empty()) {
    throw util::ConfigError(
        "sweep grid: base.schedule is required unless generate is present");
  }
  return grid;
}

std::size_t SweepGrid::cell_count() const {
  std::size_t count = 1;
  for (const SweepAxis& axis : axes) count *= axis.values.size();
  return count;
}

std::vector<SweepCell> SweepGrid::expand() const {
  const std::size_t total = cell_count();
  std::vector<SweepCell> cells;
  cells.reserve(total);
  for (std::size_t flat = 0; flat < total; ++flat) {
    SweepCell cell;
    cell.index = flat;
    // First axis slowest: decompose the flat index most-significant-first.
    std::size_t remainder = flat;
    std::size_t stride = total;
    for (const SweepAxis& axis : axes) {
      stride /= axis.values.size();
      const std::size_t pick = remainder / stride;
      remainder %= stride;
      cell.assignment.emplace_back(axis.field, axis.values[pick]);
      if (!cell.name.empty()) cell.name += ",";
      cell.name += axis.field + "=" + value_label(axis.values[pick]);
    }
    if (cell.name.empty()) cell.name = "cell0";
    cells.push_back(std::move(cell));
  }
  return cells;
}

ScenarioSpec SweepMaterializer::materialize(const SweepCell& cell) {
  ScenarioSpec spec = grid_.base;
  SweepGenerate gen = grid_.generate;

  for (const auto& [field, value] : cell.assignment) {
    if (field == "policy") {
      spec.policy = policy_ref_from_json(value);
    } else if (field == "backend") {
      spec.backend = backend_from_string(value.as_string());
    } else if (field == "signal") {
      gen.signal = value.as_string();
    } else if (field == "utilization") {
      gen.utilization = value.as_number();
    } else if (field == "duration_s") {
      gen.duration_s = value.as_number();
    } else if (field == "node_count") {
      spec.node_count = util::checked_integer<int>(value, field);
    } else if (field == "seed") {
      spec.seed = util::checked_integer<std::uint64_t>(value, field);
    } else if (field == "perf_variation_sigma") {
      spec.perf_variation_sigma = value.as_number();
    } else if (field == "static_budget_w") {
      if (value.is_null()) {
        spec.static_budget_w.reset();
      } else {
        spec.static_budget_w = value.as_number();
      }
    } else {
      throw util::ConfigError("sweep: unknown axis field '" + field + "'");
    }
  }

  if (gen.enabled) {
    // Generated workload: memoized by semantic inputs, returned by copy
    // (misclassification labels are applied per cell, and the simulator
    // sorts its own copy).
    util::JsonArray key_parts;
    key_parts.push_back(util::Json(std::string("schedule")));
    key_parts.push_back(util::Json(spec.node_count));
    key_parts.push_back(util::Json(gen.duration_s));
    key_parts.push_back(util::Json(gen.utilization));
    key_parts.push_back(util::Json(gen.long_types_only));
    key_parts.push_back(util::Json(std::to_string(spec.seed)));
    const std::string sched_key = util::Json(std::move(key_parts)).dump();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = schedules_.find(sched_key);
      if (it != schedules_.end()) {
        spec.schedule = it->second;
      } else {
        workload::PoissonScheduleConfig config;
        config.duration_s = gen.duration_s;
        config.utilization = gen.utilization;
        config.cluster_nodes = spec.node_count;
        const std::vector<workload::JobType> types = gen.long_types_only
                                                         ? workload::nas_long_job_types()
                                                         : workload::nas_job_types();
        workload::Schedule schedule = workload::generate_poisson_schedule(
            types, config, util::Rng(spec.seed).child("schedule"));
        spec.schedule = schedule;
        schedules_.emplace(sched_key, std::move(schedule));
      }
    }
    if (expects_misclassification(spec.policy) && !gen.misclassify_true.empty()) {
      workload::misclassify(spec.schedule, gen.misclassify_true, gen.misclassify_as);
    }

    // The signal fully determines the cell's power objective.
    spec.static_budget_w.reset();
    spec.targets.clear();
    if (gen.signal == "budget") {
      spec.static_budget_w = gen.budget_per_node_w * spec.node_count;
    } else if (gen.signal != "none") {
      util::JsonArray tkey_parts;
      tkey_parts.push_back(util::Json(gen.signal));
      tkey_parts.push_back(util::Json(spec.node_count));
      tkey_parts.push_back(util::Json(gen.duration_s));
      tkey_parts.push_back(util::Json(std::to_string(spec.seed)));
      const std::string targets_key = util::Json(std::move(tkey_parts)).dump();
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = targets_.find(targets_key);
      if (it != targets_.end()) {
        spec.targets = it->second;
      } else {
        util::TimeSeries targets;
        if (gen.signal == "dr") {
          // The standard bid scale (anorctl profile, the determinism
          // bench): 150 W average / 18 W reserve per node.
          workload::DemandResponseBid bid;
          bid.average_power_w = 150.0 * spec.node_count;
          bid.reserve_w = 18.0 * spec.node_count;
          const workload::RandomWalkRegulation regulation(
              util::Rng(spec.seed).child("regulation"), gen.duration_s + 60.0, 4.0);
          targets = workload::make_power_target_series(bid, regulation, gen.duration_s, 4.0);
        } else if (gen.signal == "carbon") {
          const workload::CarbonIntensityProfile profile(
              util::Rng(spec.seed).child("carbon"), gen.duration_s + 60.0);
          targets = workload::targets_from_carbon(profile, 144.0 * spec.node_count,
                                                  269.0 * spec.node_count, gen.duration_s,
                                                  60.0);
        } else if (gen.signal == "tariff") {
          targets = workload::targets_from_tariff(workload::TouTariff::standard(),
                                                  144.0 * spec.node_count,
                                                  269.0 * spec.node_count, gen.duration_s,
                                                  60.0);
        } else {
          throw util::ConfigError("sweep: unknown signal '" + gen.signal +
                                  "' (none|budget|dr|carbon|tariff)");
        }
        spec.targets = targets;
        targets_.emplace(targets_key, std::move(targets));
      }
    }
  }

  spec.name = grid_.name + "/" + cell.name;
  spec.validate();
  return spec;
}

}  // namespace anor::engine::sweep
