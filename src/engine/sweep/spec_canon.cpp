#include "engine/sweep/spec_canon.hpp"

#include <string_view>

#include "budget/policy_dsl.hpp"
#include "engine/policy_registry.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/hash.hpp"

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

/// FNV-1a 64 over kCacheEpoch then the canonical string.
std::uint64_t hash_canonical(std::string_view canon) {
  const std::string_view epoch(kCacheEpoch, sizeof(kCacheEpoch) - 1);
  return util::fnv1a(canon, util::fnv1a(epoch, util::kFnv1aRecordBasis));
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
    return policy.name + "#" + util::hex16(budget::dsl_source_hash(policy.dsl));
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
  return hash_canonical(canonical_spec_string(spec));
}

std::string canonical_spec_key(const ScenarioSpec& spec) {
  return util::hex16(canonical_spec_hash(spec));
}

CanonicalSpec canonicalize_spec(const ScenarioSpec& spec) {
  ANOR_PROF_SCOPE("cache.canonicalize");
  CanonicalSpec canon;
  canon.canonical = canonical_spec_string(spec);
  canon.key = util::hex16(hash_canonical(canon.canonical));
  return canon;
}

}  // namespace anor::engine::sweep
