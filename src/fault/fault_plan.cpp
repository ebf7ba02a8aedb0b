#include "fault/fault_plan.hpp"

#include "util/error.hpp"

namespace anor::fault {

util::Json ChannelFaultSpec::to_json() const {
  util::JsonObject obj;
  obj["drop_prob"] = drop_prob;
  obj["duplicate_prob"] = duplicate_prob;
  obj["corrupt_prob"] = corrupt_prob;
  obj["reorder_prob"] = reorder_prob;
  obj["delay_prob"] = delay_prob;
  obj["delay_s"] = delay_s;
  obj["disconnect_from_s"] = disconnect_from_s;
  obj["disconnect_until_s"] = disconnect_until_s;
  obj["manager_side"] = manager_side;
  obj["endpoint_side"] = endpoint_side;
  return util::Json(std::move(obj));
}

ChannelFaultSpec ChannelFaultSpec::from_json(const util::Json& json) {
  ChannelFaultSpec spec;
  spec.drop_prob = json.number_or("drop_prob", 0.0);
  spec.duplicate_prob = json.number_or("duplicate_prob", 0.0);
  spec.corrupt_prob = json.number_or("corrupt_prob", 0.0);
  spec.reorder_prob = json.number_or("reorder_prob", 0.0);
  spec.delay_prob = json.number_or("delay_prob", 0.0);
  spec.delay_s = json.number_or("delay_s", 1.0);
  spec.disconnect_from_s = json.number_or("disconnect_from_s", 0.0);
  spec.disconnect_until_s = json.number_or("disconnect_until_s", 0.0);
  spec.manager_side = json.bool_or("manager_side", true);
  spec.endpoint_side = json.bool_or("endpoint_side", true);
  return spec;
}

util::Json NodeCrashSpec::to_json() const {
  util::JsonObject obj;
  obj["job_id"] = job_id;
  obj["crash_s"] = crash_s;
  obj["restart_s"] = restart_s;
  return util::Json(std::move(obj));
}

NodeCrashSpec NodeCrashSpec::from_json(const util::Json& json) {
  NodeCrashSpec spec;
  spec.job_id = util::checked_integer_or(json, "job_id", -1);
  spec.crash_s = json.number_or("crash_s", 0.0);
  spec.restart_s = json.number_or("restart_s", 0.0);
  return spec;
}

util::Json MsrFaultSpec::to_json() const {
  util::JsonObject obj;
  obj["read_fault_prob"] = read_fault_prob;
  obj["write_fault_prob"] = write_fault_prob;
  obj["from_s"] = from_s;
  obj["until_s"] = until_s;
  return util::Json(std::move(obj));
}

MsrFaultSpec MsrFaultSpec::from_json(const util::Json& json) {
  MsrFaultSpec spec;
  spec.read_fault_prob = json.number_or("read_fault_prob", 0.0);
  spec.write_fault_prob = json.number_or("write_fault_prob", 0.0);
  spec.from_s = json.number_or("from_s", 0.0);
  spec.until_s = json.number_or("until_s", 0.0);
  return spec;
}

util::Json FaultPlan::to_json() const {
  util::JsonObject obj;
  obj["name"] = name;
  obj["seed"] = static_cast<double>(seed);
  obj["channel"] = channel.to_json();
  util::JsonArray crash_array;
  for (const NodeCrashSpec& crash : crashes) crash_array.push_back(crash.to_json());
  obj["crashes"] = util::Json(std::move(crash_array));
  obj["msr"] = msr.to_json();
  return util::Json(std::move(obj));
}

FaultPlan FaultPlan::from_json(const util::Json& json) {
  FaultPlan plan;
  plan.name = json.string_or("name", "unnamed");
  plan.seed = util::checked_integer_or<std::uint64_t>(json, "seed", 1);
  if (json.contains("channel")) plan.channel = ChannelFaultSpec::from_json(json.at("channel"));
  if (json.contains("crashes")) {
    for (const util::Json& crash : json.at("crashes").as_array()) {
      plan.crashes.push_back(NodeCrashSpec::from_json(crash));
    }
  }
  if (json.contains("msr")) plan.msr = MsrFaultSpec::from_json(json.at("msr"));
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  return from_json(util::load_json_file(path));
}

FaultPlan FaultPlan::preset(const std::string& name) {
  FaultPlan plan;
  plan.name = name;
  if (name == "none") return plan;
  if (name == "drop10") {
    plan.channel.drop_prob = 0.10;
    return plan;
  }
  if (name == "drop10_crash1") {
    plan.channel.drop_prob = 0.10;
    plan.crashes.push_back(NodeCrashSpec{-1, 60.0, 100.0});
    return plan;
  }
  if (name == "chaos") {
    plan.channel.drop_prob = 0.10;
    plan.channel.duplicate_prob = 0.05;
    plan.channel.corrupt_prob = 0.05;
    plan.channel.reorder_prob = 0.05;
    plan.channel.delay_prob = 0.15;
    plan.channel.delay_s = 1.0;
    plan.channel.disconnect_from_s = 140.0;
    plan.channel.disconnect_until_s = 155.0;
    plan.crashes.push_back(NodeCrashSpec{-1, 60.0, 100.0});
    plan.msr.read_fault_prob = 0.02;
    plan.msr.write_fault_prob = 0.02;
    return plan;
  }
  throw util::ConfigError("unknown fault plan preset '" + name +
                          "' (expected none|drop10|drop10_crash1|chaos)");
}

std::vector<std::string> FaultPlan::preset_names() {
  return {"none", "drop10", "drop10_crash1", "chaos"};
}

}  // namespace anor::fault
