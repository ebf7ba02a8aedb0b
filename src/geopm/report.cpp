#include "geopm/report.hpp"

#include <cmath>
#include <sstream>

namespace anor::geopm {

std::string JobReport::to_text() const {
  std::ostringstream out;
  out << "##### geopm-like report #####\n"
      << "Job: " << job_name << '\n'
      << "Agent: " << agent_name << '\n'
      << "Nodes: " << node_count << '\n'
      << "Application Totals:\n"
      << "    runtime (s): " << runtime_s << '\n'
      << "    compute runtime (s): " << compute_runtime_s << '\n'
      << "    package-energy (J): " << package_energy_j << '\n'
      << "    power (W): " << average_power_w << '\n'
      << "    epoch-count: " << epoch_count << '\n'
      << "    average-cap (W): " << average_cap_w << '\n';
  return out.str();
}

std::ostream& operator<<(std::ostream& out, const JobReport& report) {
  return out << report.to_text();
}

util::Json JobReport::to_json() const {
  util::JsonObject obj;
  visit_fields([&](const char* key, const auto& value) { obj[key] = util::Json(value); });
  return util::Json(std::move(obj));
}

void JobReport::write_json(util::JsonWriter& out) const {
  out.begin_object();
  visit_fields([&](const char* key, const auto& value) { out.key(key).value(value); });
  out.end_object();
}

JobReport JobReport::from_json(const util::Json& json) {
  JobReport report;
  report.job_name = json.at("job").as_string();
  report.agent_name = json.string_or("agent", "power_governor");
  report.node_count = static_cast<int>(json.at("nodes").as_int());
  report.runtime_s = json.at("runtime_s").as_number();
  report.compute_runtime_s = json.number_or("compute_runtime_s", 0.0);
  report.package_energy_j = json.at("package_energy_j").as_number();
  report.average_power_w = json.number_or("average_power_w", 0.0);
  report.epoch_count = json.at("epoch_count").as_int();
  report.average_cap_w = json.number_or("average_cap_w", 0.0);
  return report;
}

JobReport JobReport::read_json(util::JsonCursor& in) {
  // visit_fields order; agent and the three derived figures are optional,
  // as in from_json.
  static constexpr std::array<std::string_view, 9> kKeys = {
      "agent",       "average_cap_w", "average_power_w",  "compute_runtime_s", "epoch_count",
      "job",         "nodes",         "package_energy_j", "runtime_s"};
  constexpr std::uint32_t kRequired = 1u << 4 | 1u << 5 | 1u << 6 | 1u << 7 | 1u << 8;
  JobReport report;
  in.read_object(kKeys, kRequired, [&](std::size_t field) {
    switch (field) {
      case 0: in.string(report.agent_name); break;
      case 1: report.average_cap_w = in.number(); break;
      case 2: report.average_power_w = in.number(); break;
      case 3: report.compute_runtime_s = in.number(); break;
      case 4: report.epoch_count = std::llround(in.number()); break;
      case 5: in.string(report.job_name); break;
      case 6: report.node_count = static_cast<int>(std::llround(in.number())); break;
      case 7: report.package_energy_j = in.number(); break;
      case 8: report.runtime_s = in.number(); break;
    }
  });
  return report;
}

}  // namespace anor::geopm
