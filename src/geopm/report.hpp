// GEOPM-style job reports.
//
// The paper reads job performance from the "Application Totals" section of
// the per-job GEOPM report (Sec. 5.4).  We generate the equivalent record
// at job teardown.
#pragma once

#include <ostream>
#include <string>

#include "util/json.hpp"

namespace anor::geopm {

struct JobReport {
  std::string job_name;
  std::string agent_name = "power_governor";
  int node_count = 0;

  // "Application Totals"
  double runtime_s = 0.0;          // submission of work to completion on nodes
  double compute_runtime_s = 0.0;  // time inside the epoch loop
  double package_energy_j = 0.0;
  double average_power_w = 0.0;    // package_energy / runtime
  long epoch_count = 0;
  double average_cap_w = 0.0;      // time-weighted applied node cap

  /// Slowdown relative to a reference uncapped runtime, as a fraction
  /// (0.10 = 10 % slower).
  double slowdown_vs(double uncapped_runtime_s) const {
    return uncapped_runtime_s > 0.0 ? runtime_s / uncapped_runtime_s - 1.0 : 0.0;
  }

  /// Render in the spirit of a GEOPM report file.
  std::string to_text() const;

  /// Machine-readable form (the deployment writes one report file per
  /// job; downstream tooling parses these).
  util::Json to_json() const;
  /// The same object streamed: to_json().dump() bytes, without the tree.
  void write_json(util::JsonWriter& out) const;
  static JobReport from_json(const util::Json& json);
  /// from_json's fields, read from a cursor positioned at the object.
  static JobReport read_json(util::JsonCursor& in);

  /// Every serialized field as visit(key, value): the one key list
  /// to_json() and write_json() emit, in the byte order JsonWriter
  /// requires.
  template <class Visit>
  void visit_fields(Visit&& visit) const {
    visit("agent", agent_name);
    visit("average_cap_w", average_cap_w);
    visit("average_power_w", average_power_w);
    visit("compute_runtime_s", compute_runtime_s);
    visit("epoch_count", static_cast<double>(epoch_count));
    visit("job", job_name);
    visit("nodes", node_count);
    visit("package_energy_j", package_energy_j);
    visit("runtime_s", runtime_s);
  }
};

std::ostream& operator<<(std::ostream& out, const JobReport& report);

}  // namespace anor::geopm
