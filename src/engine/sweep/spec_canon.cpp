#include "engine/sweep/spec_canon.hpp"

#include <cstdio>

#include "budget/policy_dsl.hpp"
#include "engine/policy_registry.hpp"
#include "telemetry/prof/prof.hpp"

namespace anor::engine::sweep {

namespace {

/// -0.0 and 0.0 compare equal but print differently; fold to the one
/// spelling so the canonical bytes (and hence the key) agree.
double canon_num(double d) { return d == 0.0 ? 0.0 : d; }

void write_canon_series(util::JsonWriter& out, const util::TimeSeries& series) {
  out.begin_object();
  out.key("power_w").begin_array();
  for (const double v : series.values()) out.value(canon_num(v));
  out.end_array();
  out.key("t_s").begin_array();
  for (const double t : series.times()) out.value(canon_num(t));
  out.end_array();
  out.end_object();
}

void write_canon_schedule(util::JsonWriter& out, const workload::Schedule& schedule) {
  out.begin_object();
  out.key("duration_s").value(canon_num(schedule.duration_s));
  out.key("jobs").begin_array();
  for (const workload::JobRequest& job : schedule.jobs) {
    // Every field materialized — Schedule::to_json omits empty
    // classified_as / zero walltime hints, which is fine for storage but
    // would make "default spelled out" hash differently from "default
    // omitted" if reused here.
    out.begin_object();
    out.key("classified_as").value(job.classified_as);
    out.key("id").value(job.job_id);
    out.key("nodes").value(job.nodes);
    out.key("submit_s").value(canon_num(job.submit_time_s));
    out.key("type").value(job.type_name);
    out.key("walltime_hint_s").value(canon_num(job.walltime_hint_s));
    out.end_object();
  }
  out.end_array();
  out.end_object();
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, const char* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

// Two custom policies sharing a name but not a definition must never
// alias one cache entry; built-ins contribute only their name so the
// canonical bytes (and every pre-registry cache key) are unchanged.
std::string policy_identity_for_cache(const PolicyRef& policy) {
  if (!policy.dsl.empty()) {
    // Inline definitions carry their own identity whether or not they
    // have been registered yet — the key must not depend on process
    // registration state.
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(budget::dsl_source_hash(policy.dsl)));
    return policy.name + "#" + buf;
  }
  PolicyRegistry& registry = PolicyRegistry::global();
  if (!registry.contains(policy.name)) return policy.name + "#unregistered";
  const PolicyDescriptor descriptor = registry.get(policy.name);
  return descriptor.builtin ? std::string() : descriptor.identity();
}

std::string canonical_spec_string(const ScenarioSpec& spec) {
  util::JsonWriter out;
  out.begin_object();
  out.key("backend").value(to_string(spec.backend));
  out.key("node_count").value(spec.node_count);
  out.key("perf_variation_sigma").value(canon_num(spec.perf_variation_sigma));
  out.key("policy").value(to_string(spec.policy));
  const std::string identity = policy_identity_for_cache(spec.policy);
  if (!identity.empty()) out.key("policy_identity").value(identity);
  out.key("schedule");
  write_canon_schedule(out, spec.schedule);
  // Decimal string, not a JSON number: a uint64 seed above 2^53 would
  // lose bits through the double representation.
  out.key("seed").value(std::to_string(spec.seed));
  out.key("static_budget_w");
  if (spec.static_budget_w) {
    out.value(canon_num(*spec.static_budget_w));
  } else {
    out.null();
  }
  out.key("targets");
  if (spec.targets.empty()) {
    out.null();
  } else {
    write_canon_series(out, spec.targets);
  }
  out.key("tracking_reserve_w").value(canon_num(spec.tracking_reserve_w));
  out.key("tracking_warmup_s").value(canon_num(spec.tracking_warmup_s));
  out.end_object();
  return out.finish().dump();
}

std::uint64_t canonical_spec_hash(const ScenarioSpec& spec) {
  const std::string canon = canonical_spec_string(spec);
  std::uint64_t h = fnv1a(kFnvOffset, kCacheEpoch, sizeof(kCacheEpoch) - 1);
  return fnv1a(h, canon.data(), canon.size());
}

std::string canonical_spec_key(const ScenarioSpec& spec) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(canonical_spec_hash(spec)));
  return std::string(buf);
}

CanonicalSpec canonicalize_spec(const ScenarioSpec& spec) {
  ANOR_PROF_SCOPE("cache.canonicalize");
  CanonicalSpec canon;
  canon.canonical = canonical_spec_string(spec);
  std::uint64_t h = fnv1a(kFnvOffset, kCacheEpoch, sizeof(kCacheEpoch) - 1);
  h = fnv1a(h, canon.canonical.data(), canon.canonical.size());
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  canon.key = buf;
  return canon;
}

}  // namespace anor::engine::sweep
