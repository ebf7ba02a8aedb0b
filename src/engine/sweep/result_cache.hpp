// Two-tier deterministic result cache (DESIGN.md 6i).
//
// Every RunResult is a pure function of its spec's canonical form, so a
// cache hit may substitute for a run outright — provided the stored bytes
// reproduce the RunResult bit-for-bit.  run_result_json decimates the
// power series for artifact size; the cache therefore has its own
// full-fidelity serialization (anor.result_cache.v1) that round-trips
// every field exactly: util::JsonWriter prints doubles as "%.17g" (via
// std::to_chars), which round-trips IEEE doubles, and the entry reader
// parses them back with std::from_chars.
//
// Tiers:
//   memory — map keyed by the canonical hex key, holding the RunResult by
//            value; hits copy it out (no re-parse).
//   disk   — one `<key>.json` file per entry under `dir`, written
//            atomically (a tmp name unique to the write, then rename; a
//            crash in between leaves a `<key>.json.tmp.*` file that is
//            never read).
//            Entries carry the cache epoch and the full canonical spec
//            string; a mismatch in either — stale golden hashes after an
//            engine change, or a key collision — reads as a miss, so
//            stale caches self-invalidate and collisions can never serve
//            a wrong result.  Entries are decoded straight into a
//            RunResult, with no JSON tree in between; corrupt or
//            unparseable files are likewise just misses.
//
// The mutex guards only the memory map and the stats: serializing,
// writing, reading and decoding entries run outside it, so concurrent
// sweep workers do not take turns on the disk tier.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "engine/scenario.hpp"
#include "engine/sweep/spec_canon.hpp"
#include "util/json.hpp"

namespace anor::engine::sweep {

struct CacheConfig {
  bool memory = true;
  bool disk = true;
  std::string dir = ".anor-cache";

  bool enabled() const { return memory || disk; }
  static CacheConfig off() { return CacheConfig{false, false, ""}; }
};

enum class CacheOutcome { kOff, kMiss, kMemoryHit, kDiskHit };
const char* to_string(CacheOutcome outcome);
/// "hit" | "miss" | "off" — the bench provenance vocabulary
/// (BENCH_*.json "cache" field; compare_bench.py refuses to compare a
/// cached wall time against a computed one).
const char* cache_state(CacheOutcome outcome);

struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  /// Disk entries rejected for epoch/spec mismatch or parse failure.
  std::uint64_t invalidated = 0;

  std::uint64_t hits() const { return memory_hits + disk_hits; }
  double hit_rate() const {
    return lookups > 0 ? static_cast<double>(hits()) / static_cast<double>(lookups) : 0.0;
  }
};

class ResultCache {
 public:
  explicit ResultCache(CacheConfig config = {});

  const CacheConfig& config() const { return config_; }

  /// Probe memory then disk for the spec's canonical key.  On a hit,
  /// fills `result` with the stored RunResult (bit-identical to the run
  /// that produced it) and promotes disk hits into the memory tier.
  /// Thread-safe.
  CacheOutcome lookup(const ScenarioSpec& spec, RunResult* result);
  /// Same, against a precomputed canonical form (canonicalization
  /// serializes the whole schedule; a lookup + store pair should pay it
  /// once, not three times).
  CacheOutcome lookup(const CanonicalSpec& canon, RunResult* result);

  /// Store a computed result under the spec's canonical key in every
  /// enabled tier.  Thread-safe.
  void store(const ScenarioSpec& spec, const RunResult& result);
  void store(const CanonicalSpec& canon, const RunResult& result);

  CacheStats stats() const;

 private:
  struct MemoryEntry {
    std::string spec_canonical;
    RunResult result;
  };

  enum class DiskRead { kAbsent, kHit, kInvalid };

  std::string entry_path(const std::string& key) const;
  DiskRead lookup_disk(const CanonicalSpec& canon, RunResult* result) const;
  void store_disk(const CanonicalSpec& canon, const RunResult& result);

  CacheConfig config_;
  mutable std::mutex mutex_;
  /// Shared so a hit copies the result out after the lock is released.
  std::unordered_map<std::string, std::shared_ptr<const MemoryEntry>> memory_;
  CacheStats stats_;
};

/// Full-fidelity RunResult round-trip (every CompletedJob/report field,
/// undecimated series, QoS records in insertion order).  The reader takes
/// any key order and whitespace, and throws on malformed text or a
/// missing field.  Exposed for the cache tests' bit-for-bit checks.
util::JsonText run_result_to_cache_json(const RunResult& result);
void write_run_result_cache_json(util::JsonWriter& out, const RunResult& result);
RunResult run_result_from_cache_json(std::string_view text);

/// FNV-1a over run_result_to_cache_json's bytes: the result hash the
/// emulated goldens, the benches and perfbench record.
std::uint64_t result_hash(const RunResult& result);

}  // namespace anor::engine::sweep
