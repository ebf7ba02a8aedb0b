// DOM reference writers and decoder for the result documents.
//
// These are the util::Json-tree builders that first produced the run-result
// artifact, the full-fidelity cache form, the cache entry, the canonical
// spec and the sweep documents, kept verbatim as the oracle the streaming
// writer and the cache-entry reader are compared against.  They live only
// under tests/: production code writes with util::JsonWriter.
#pragma once

#include <string>

#include "engine/scenario.hpp"
#include "engine/sweep/executor.hpp"
#include "util/json.hpp"

namespace anor::engine::sweep::dom_reference {

util::Json run_result_json(const RunResult& result, double series_decimation_s = 30.0);
util::Json run_result_to_cache_json(const RunResult& result);
RunResult run_result_from_cache_json(const util::Json& json);
util::Json canonical_spec_json(const ScenarioSpec& spec);
/// The disk entry ResultCache::store writes for `result` under `spec`.
util::Json cache_entry_json(const ScenarioSpec& spec, const RunResult& result);
/// What the DOM-era lookup did with an entry's text: the decoded result on
/// a hit, false on a miss (any parse, type, schema, epoch or spec failure).
bool decode_cache_entry(const std::string& text, const std::string& spec_canonical,
                        RunResult* result);
util::Json sweep_report_json(const SweepReport& report);
util::Json sweep_results_deterministic_json(const SweepReport& report);

}  // namespace anor::engine::sweep::dom_reference
