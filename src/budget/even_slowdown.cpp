#include "budget/even_slowdown.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/shard_workers.hpp"

namespace anor::budget {

// cap_for_slowdown bisects (64 iterations) and the caller bisects over it
// (up to 100), but jobs share a handful of distinct models (one per job
// type), so each evaluation only needs one inverse solve per *distinct*
// model.  Grouping keys on exact coefficient equality; caps are still
// summed in the original job order, so the result is bit-identical to the
// ungrouped per-job sum.
struct ModelGroups {
  std::vector<const model::PowerPerfModel*> reps;  // one per distinct model
  std::vector<std::size_t> group_of;               // job index -> rep index
  std::vector<double> caps;                        // per-rep scratch
};

namespace {

bool same_model(const model::PowerPerfModel& x, const model::PowerPerfModel& y) {
  return x.a() == y.a() && x.b() == y.b() && x.c() == y.c() &&
         x.p_min_w() == y.p_min_w() && x.p_max_w() == y.p_max_w();
}

/// Index of `m` in `reps`, appending it when new.
std::size_t rep_index(std::vector<const model::PowerPerfModel*>& reps,
                      const model::PowerPerfModel& m) {
  std::size_t k = 0;
  for (; k < reps.size(); ++k) {
    if (same_model(*reps[k], m)) return k;
  }
  reps.push_back(&m);
  return k;
}

ModelGroups group_models(const std::vector<JobPowerProfile>& jobs) {
  ModelGroups groups;
  groups.group_of.reserve(jobs.size());
  for (const JobPowerProfile& j : jobs) {
    groups.group_of.push_back(rep_index(groups.reps, j.model));
  }
  groups.caps.resize(groups.reps.size());
  return groups;
}

/// Job lists below this size group serially — the scan is cheaper than a
/// dispatch.
constexpr std::size_t kParallelGroupMin = 4096;
/// Fixed grouping grain: blocks are a pure function of the job count, so
/// the merge order (and thus the rep table) never depends on how many
/// workers happened to scan them.
constexpr std::size_t kGroupGrain = 1024;

ModelGroups group_models_sharded(const std::vector<JobPowerProfile>& jobs,
                                 util::ShardWorkers& team) {
  const std::size_t blocks = (jobs.size() + kGroupGrain - 1) / kGroupGrain;
  struct BlockGroups {
    std::vector<const model::PowerPerfModel*> reps;
    std::vector<std::size_t> group_of;
  };
  std::vector<BlockGroups> partial(blocks);
  const std::size_t lanes = team.worker_count();
  team.run([&](std::size_t lane) {
    const util::ShardWorkers::Slice s = util::ShardWorkers::slice(blocks, lanes, lane);
    for (std::size_t b = s.begin; b < s.end; ++b) {
      BlockGroups& out = partial[b];
      const std::size_t lo = b * kGroupGrain;
      const std::size_t hi = std::min(jobs.size(), lo + kGroupGrain);
      out.group_of.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) {
        out.group_of.push_back(rep_index(out.reps, jobs[i].model));
      }
    }
  });

  // Merge in block order: deterministic regardless of which lane scanned
  // which block, and identical job->rep assignments to the serial scan
  // (rep *indices* may permute, but indices are internal — every cap is
  // looked up through group_of).
  ModelGroups groups;
  groups.group_of.reserve(jobs.size());
  std::vector<std::size_t> remap;
  for (const BlockGroups& block : partial) {
    remap.clear();
    remap.reserve(block.reps.size());
    for (const model::PowerPerfModel* rep : block.reps) {
      remap.push_back(rep_index(groups.reps, *rep));
    }
    for (std::size_t local : block.group_of) groups.group_of.push_back(remap[local]);
  }
  groups.caps.resize(groups.reps.size());
  return groups;
}

}  // namespace

std::size_t EvenSlowdownBudgeter::CapKeyHash::operator()(const CapKey& key) const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the six words
  for (std::uint64_t w : key.bits) {
    h ^= w;
    h *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(h);
}

EvenSlowdownBudgeter::CapKey EvenSlowdownBudgeter::cap_key(const model::PowerPerfModel& m,
                                                           double slowdown) {
  return CapKey{{std::bit_cast<std::uint64_t>(m.a()),
                 std::bit_cast<std::uint64_t>(m.b()),
                 std::bit_cast<std::uint64_t>(m.c()),
                 std::bit_cast<std::uint64_t>(m.p_min_w()),
                 std::bit_cast<std::uint64_t>(m.p_max_w()),
                 std::bit_cast<std::uint64_t>(slowdown)}};
}

void EvenSlowdownBudgeter::warm_caps(const ModelGroups& groups, const double* slowdowns,
                                     std::size_t count) const {
  // Collect the (model, slowdown) pairs not yet memoized...
  struct Miss {
    const model::PowerPerfModel* model;
    double slowdown;
    CapKey key;
    double cap = 0.0;
  };
  std::vector<Miss> misses;
  for (std::size_t si = 0; si < count; ++si) {
    for (const model::PowerPerfModel* rep : groups.reps) {
      CapKey key = cap_key(*rep, slowdowns[si]);
      if (cap_cache_.find(key) != cap_cache_.end()) continue;
      bool queued = false;
      for (const Miss& m : misses) queued = queued || m.key == key;
      if (!queued) misses.push_back({rep, slowdowns[si], key, 0.0});
    }
  }
  if (misses.empty()) return;
  // ...solve them concurrently (cap_for_slowdown is pure; each lane writes
  // its own slice)...
  const std::size_t lanes = workers_->worker_count();
  workers_->run([&](std::size_t lane) {
    const util::ShardWorkers::Slice s = util::ShardWorkers::slice(misses.size(), lanes, lane);
    for (std::size_t i = s.begin; i < s.end; ++i) {
      misses[i].cap = misses[i].model->cap_for_slowdown(misses[i].slowdown);
    }
  });
  // ...and publish from this thread only: the cache itself is never
  // touched concurrently.
  for (const Miss& m : misses) {
    cap_cache_.emplace(m.key, m.cap);
    ++memo_misses_;
  }
}

void EvenSlowdownBudgeter::caps_at_slowdown(ModelGroups& groups, double slowdown) const {
  if (cap_cache_.size() > (1u << 20)) cap_cache_.clear();  // runaway guard
  if (workers_ != nullptr && workers_->worker_count() >= 2) {
    warm_caps(groups, &slowdown, 1);  // any misses solve in parallel
  }
  for (std::size_t k = 0; k < groups.reps.size(); ++k) {
    const model::PowerPerfModel& m = *groups.reps[k];
    const auto [it, inserted] = cap_cache_.try_emplace(cap_key(m, slowdown), 0.0);
    if (inserted) {
      it->second = m.cap_for_slowdown(slowdown);
      ++memo_misses_;
    } else {
      ++memo_hits_;
    }
    groups.caps[k] = it->second;
  }
}

double EvenSlowdownBudgeter::total_power_at_slowdown(const std::vector<JobPowerProfile>& jobs,
                                                     ModelGroups& groups,
                                                     double slowdown) const {
  caps_at_slowdown(groups, slowdown);
  double total = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    total += jobs[i].nodes * groups.caps[groups.group_of[i]];
  }
  return total;
}

BudgetResult EvenSlowdownBudgeter::distribute(const std::vector<JobPowerProfile>& jobs,
                                              double budget_w) const {
  BudgetResult result;
  if (jobs.empty()) return result;

  ANOR_PROF_SCOPE("budget.solve");
  const std::uint64_t hits_before = memo_hits_;
  const std::uint64_t misses_before = memo_misses_;
  int bisect_iters = 0;

  const bool parallel = workers_ != nullptr && workers_->worker_count() >= 2;
  ModelGroups groups = parallel && jobs.size() >= kParallelGroupMin
                           ? group_models_sharded(jobs, *workers_)
                           : group_models(jobs);

  const double max_total = total_max_power_w(jobs);
  const double min_total = total_min_power_w(jobs);

  double s = 0.0;
  if (budget_w >= max_total) {
    s = 0.0;
  } else if (budget_w <= min_total) {
    // Even the deepest common slowdown cannot get under the budget: every
    // job pins to its floor cap.
    s = 0.0;
    for (const JobPowerProfile& j : jobs) s = std::max(s, j.model.max_slowdown());
  } else {
    // Total power is monotone non-increasing in s; bisect.
    double lo = 0.0;
    double hi = 0.0;
    for (const JobPowerProfile& j : jobs) hi = std::max(hi, j.model.max_slowdown());
    hi = std::max(hi, 1e-6);
    for (int iter = 0; iter < 100; ++iter) {
      ++bisect_iters;
      const double mid = 0.5 * (lo + hi);
      if (parallel) {
        // Speculative probes: whichever way this iteration branches, the
        // next midpoint is one of the two children of `mid` — warm the
        // memo for all three in one fan-out so the serial chain of
        // dependent inverse solves becomes one round of concurrent ones.
        // Warming computes the same pure values the later lookups would,
        // so the bisection path (and every cap) is unchanged.
        const double probes[3] = {mid, 0.5 * (lo + mid), 0.5 * (mid + hi)};
        warm_caps(groups, probes, 3);
      }
      const double total = total_power_at_slowdown(jobs, groups, mid);
      if (std::abs(total - budget_w) <= tolerance_w_) {
        lo = hi = mid;
        break;
      }
      if (total > budget_w) {
        lo = mid;  // need more slowdown to shed power
      } else {
        hi = mid;
      }
    }
    s = 0.5 * (lo + hi);
  }

  result.balance_point = s;
  caps_at_slowdown(groups, s);
  result.node_cap_w.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double cap = groups.caps[groups.group_of[i]];
    result.node_cap_w[i] = cap;
    result.allocated_w += jobs[i].nodes * cap;
  }

  // Flush the solve's memo traffic and bisection depth to telemetry only
  // when profiling is on, so the golden hot path stays free of registry
  // lookups and atomic adds.
  if (telemetry::prof::enabled()) {
    if (memo_hits_counter_ == nullptr) {
      auto& registry = telemetry::MetricsRegistry::global();
      memo_hits_counter_ = &registry.counter("budget.memo_hits");
      memo_misses_counter_ = &registry.counter("budget.memo_misses");
      bisect_iters_hist_ = &registry.histogram("budget.bisect_iters",
                                               telemetry::linear_bounds(0.0, 10.0, 11));
    }
    memo_hits_counter_->inc(memo_hits_ - hits_before);
    memo_misses_counter_->inc(memo_misses_ - misses_before);
    bisect_iters_hist_->observe(static_cast<double>(bisect_iters));
  }
  return result;
}

}  // namespace anor::budget
