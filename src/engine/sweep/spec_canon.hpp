// Canonical ScenarioSpec form and cache key (DESIGN.md 6i).
//
// Determinism makes every RunResult a pure function of the *semantic*
// content of its spec, so results are cacheable — if two spellings of the
// same scenario reliably produce the same key.  The canonicalizer goes
// through the parsed ScenarioSpec struct, which already erases input
// field order and materializes defaults, and re-emits one normal form:
//
//   - every semantic field present, defaults included (absent
//     static_budget_w / targets become explicit nulls);
//   - keys in byte order (util::JsonWriter accepts no other) and the
//     text compact, so formatting cannot vary;
//   - floats canonicalized by the JSON writer's exact round-trip format
//     ("%.17g", integral values as integers) with -0.0 normalized to 0.0;
//   - execution-only knobs excluded: `name`, `artifact_dir` and
//     `artifact_cadence_s` never affect the result — two runs differing
//     only in these MUST share a cache entry.
//
// The FNV-1a key is seeded with kCacheEpoch, which folds in the golden
// trace hashes: when an engine change moves the goldens, every old cache
// key stops matching and stale caches self-invalidate.
#pragma once

#include <cstdint>
#include <string>

#include "engine/scenario.hpp"

namespace anor::engine::sweep {

/// Cache-epoch stamp: schema + the golden trace hashes the determinism
/// suite pins (tests/sim/determinism_test.cpp, bench_prof_overhead).
/// Bump-by-construction: a behavior change that moves a golden must
/// update this string (the determinism tests fail first), which retires
/// every previously written cache entry.
inline constexpr char kCacheEpoch[] =
    "anor.run_result.v1+golden:b3a442b79219c7d9/42ce5da3ae89f65c";

/// The canonical JSON form (an object with sorted keys, defaults
/// materialized, execution knobs excluded), streamed compact — the exact
/// bytes hashed, stored alongside disk entries so a key collision can
/// never serve a wrong result.
std::string canonical_spec_string(const ScenarioSpec& spec);

/// Full identity of a non-built-in policy ("" for built-ins): the registry
/// name plus, for expression policies, the DSL source hash.
std::string policy_identity_for_cache(const PolicyRef& policy);

/// FNV-1a 64 over kCacheEpoch then the canonical string.
std::uint64_t canonical_spec_hash(const ScenarioSpec& spec);

/// canonical_spec_hash as 16 lowercase hex digits (the cache file stem).
std::string canonical_spec_key(const ScenarioSpec& spec);

/// The canonical string and its key, computed in one serialization pass.
/// The dump is O(schedule) — milliseconds for large grids — so callers
/// that need both (the cache probes with the key, then verifies the
/// string) should canonicalize once and reuse it.
struct CanonicalSpec {
  std::string canonical;  // exact bytes hashed (canonical_spec_string)
  std::string key;        // 16 hex digits (canonical_spec_key)
};

CanonicalSpec canonicalize_spec(const ScenarioSpec& spec);

}  // namespace anor::engine::sweep
