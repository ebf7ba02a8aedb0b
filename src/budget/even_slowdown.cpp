#include "budget/even_slowdown.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/prof/prof.hpp"

namespace anor::budget {

// cap_for_slowdown bisects (64 iterations) and the caller bisects over it
// (up to 100), but jobs share a handful of distinct models (one per job
// type).  One O(jobs) pass groups them by exact coefficient equality and
// records each group's node total N_k; after that a bisection step costs
// one inverse solve and one multiply-add per *distinct* model.  A group's
// rep is its first job's model, so every cap is the one the reference
// per-job scan would have produced.
struct ModelGroups {
  std::vector<const model::PowerPerfModel*> reps;  // one per distinct model, first-seen order
  std::vector<std::size_t> group_of;               // job index -> group
  std::vector<std::int64_t> nodes;                 // N_k: node total per group
  std::vector<double> caps;                        // per-group scratch
  std::int64_t abs_nodes = 0;                      // sum of |nodes| over jobs
};

namespace {

bool same_model(const model::PowerPerfModel& x, const model::PowerPerfModel& y) {
  return x.a() == y.a() && x.b() == y.b() && x.c() == y.c() &&
         x.p_min_w() == y.p_min_w() && x.p_max_w() == y.p_max_w();
}

/// Hash consistent with same_model: `x + 0.0` folds -0.0 onto 0.0, which
/// == treats as equal.  A NaN coefficient hashes somewhere but never
/// compares equal, so each such job opens its own group, exactly as a
/// linear scan with same_model would.  The five multiplies are independent
/// (off the per-job latency chain), and every input bit reaches the top
/// bits the table indexes by.
std::uint64_t model_hash(const model::PowerPerfModel& m) {
  const auto word = [](double x) { return std::bit_cast<std::uint64_t>(x + 0.0); };
  return word(m.a()) * 0x9E3779B97F4A7C15ULL + word(m.b()) * 0xC2B2AE3D27D4EB4FULL +
         word(m.c()) * 0x165667B19E3779F9ULL + word(m.p_min_w()) * 0x27D4EB2F165667C5ULL +
         word(m.p_max_w()) * 0x85EBCA77C2B2AE63ULL;
}

/// Open-addressed model -> group table (linear probing, load <= 1/2): one
/// hash and, on a hit, one same_model check per job, however many distinct
/// models there are.
class ModelIndex {
 public:
  /// Group of `m` in `groups`, opening a new group with N_k = 0 when no
  /// rep equals it.
  std::size_t find_or_add(ModelGroups& groups, const model::PowerPerfModel& m) {
    if (2 * (groups.reps.size() + 1) > slots_.size()) rehash(groups.reps);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = model_hash(m) >> shift_;; i = (i + 1) & mask) {
      const std::uint32_t slot = slots_[i];
      if (slot == 0) {
        groups.reps.push_back(&m);
        groups.nodes.push_back(0);
        slots_[i] = static_cast<std::uint32_t>(groups.reps.size());
        return groups.reps.size() - 1;
      }
      if (same_model(*groups.reps[slot - 1], m)) return slot - 1;
    }
  }

 private:
  void rehash(const std::vector<const model::PowerPerfModel*>& reps) {
    std::size_t size = 16;
    while (size < 2 * (reps.size() + 1)) size *= 2;
    slots_.assign(size, 0);
    shift_ = 64 - std::countr_zero(size);
    for (std::size_t k = 0; k < reps.size(); ++k) {
      std::size_t i = model_hash(*reps[k]) >> shift_;
      while (slots_[i] != 0) i = (i + 1) & (size - 1);
      slots_[i] = static_cast<std::uint32_t>(k + 1);
    }
  }

  std::vector<std::uint32_t> slots_;  // group + 1; 0 = empty
  int shift_ = 64;
};

/// Groups of the jobs, in job order.
///
/// A keyed job (JobPowerProfile::model_key) is checked with one same_model
/// against the group its key last mapped to, and goes through the model
/// index only when the key is new or the check fails.  Both paths return
/// the group whose rep equals the job's model, which is unique, so keys
/// change nothing: not the first-seen group order, not the merging of
/// equal models under different keys, not the one-group-per-job of NaN
/// models (a NaN model never passes the check).
ModelGroups group_models(const std::vector<JobPowerProfile>& jobs) {
  ModelGroups groups;
  ModelIndex index;
  std::vector<std::size_t> key_group;  // key -> group + 1, 0 = not seen
  groups.group_of.resize(jobs.size());
  // Integer accumulators keep the per-job adds off the floating-point
  // latency chain.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobPowerProfile& j = jobs[i];
    std::size_t k = 0;
    if (j.model_key >= 0 && j.model_key < JobPowerProfile::kMaxModelKey) {
      const auto key = static_cast<std::size_t>(j.model_key);
      if (key >= key_group.size()) key_group.resize(key + 1, 0);
      std::size_t& slot = key_group[key];
      if (slot != 0 && same_model(*groups.reps[slot - 1], j.model)) {
        k = slot - 1;
      } else {
        k = index.find_or_add(groups, j.model);
        slot = k + 1;
      }
    } else {
      k = index.find_or_add(groups, j.model);
    }
    groups.nodes[k] += j.nodes;
    groups.abs_nodes += std::abs(static_cast<std::int64_t>(j.nodes));
    groups.group_of[i] = k;
  }
  return groups;
}

/// Σ_k N_k·value(k), in group order.
template <class PerGroup>
double grouped_total(const ModelGroups& groups, PerGroup value) {
  double total = 0.0;
  for (std::size_t k = 0; k < groups.reps.size(); ++k) {
    total += static_cast<double>(groups.nodes[k]) * value(k);
  }
  return total;
}

/// Σ_j nodes_j·cap_j at the caps in groups.caps, in job order: the sum the
/// reference solve compares, whose order fixes the rounding.
double ordered_total(const std::vector<JobPowerProfile>& jobs, const ModelGroups& groups) {
  double total = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    total += jobs[i].nodes * groups.caps[groups.group_of[i]];
  }
  return total;
}

/// Multiplicative hash of a slowdown's bit pattern; a table of 2^b entries
/// indexes by its top b bits, which every input bit reaches.
std::uint64_t slowdown_hash(std::uint64_t bits) { return bits * 0x9E3779B97F4A7C15ULL; }

bool used(const std::vector<std::uint64_t>& bitmap, std::size_t i) {
  return (bitmap[i / 64] >> (i % 64) & 1) != 0;
}

}  // namespace

double EvenSlowdownBudgeter::CapTable::cap(const model::PowerPerfModel& m, double slowdown,
                                           std::uint64_t& hits, std::uint64_t& misses) {
  const auto key = std::bit_cast<std::uint64_t>(slowdown);
  if (count_ != 0) {
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t i = slowdown_hash(key) >> shift_; used(used_, i); i = (i + 1) & mask) {
      if (entries_[i].slowdown == key) {
        ++hits;
        return entries_[i].cap;
      }
    }
  }
  ++misses;
  const double cap = m.cap_for_slowdown(slowdown);
  insert(key, cap);
  return cap;
}

void EvenSlowdownBudgeter::CapTable::insert(std::uint64_t key, double cap) {
  if (2 * (count_ + 1) > entries_.size()) {
    if (entries_.size() < 2 * kMemoEntriesPerModel) {
      rehash(std::max(kMinCapacity, 2 * entries_.size()));
    } else {  // full at the bound: start over rather than grow
      std::fill(used_.begin(), used_.end(), 0);
      count_ = 0;
    }
  }
  const std::size_t mask = entries_.size() - 1;
  std::size_t i = slowdown_hash(key) >> shift_;
  while (used(used_, i)) i = (i + 1) & mask;
  used_[i / 64] |= std::uint64_t{1} << (i % 64);
  entries_[i] = {key, cap};
  ++count_;
}

void EvenSlowdownBudgeter::CapTable::rehash(std::size_t capacity) {
  const std::vector<Entry> old_entries = std::exchange(entries_, std::vector<Entry>(capacity));
  const std::vector<std::uint64_t> old_used =
      std::exchange(used_, std::vector<std::uint64_t>(capacity / 64, 0));
  shift_ = 64 - std::countr_zero(capacity);
  count_ = 0;
  for (std::size_t i = 0; i < old_entries.size(); ++i) {
    if (used(old_used, i)) insert(old_entries[i].slowdown, old_entries[i].cap);
  }
}

void EvenSlowdownBudgeter::map_memo_tables(const ModelGroups& groups) const {
  constexpr std::size_t kIndexSize = 2 * kMemoModels;  // load <= 1/2
  constexpr int kIndexShift = 64 - std::countr_zero(kIndexSize);
  if (memo_index_.empty()) {
    memo_index_.assign(kIndexSize, 0);
    memo_slots_.reserve(kMemoModels);  // never reallocates: the tables stay put
  }
  // The index position of group k's model: its slot's, or the empty one
  // where the slot would go.
  const auto position = [&](std::size_t k) {
    const model::PowerPerfModel& m = *groups.reps[k];
    const std::array<std::uint64_t, 5> bits = {
        std::bit_cast<std::uint64_t>(m.a()), std::bit_cast<std::uint64_t>(m.b()),
        std::bit_cast<std::uint64_t>(m.c()), std::bit_cast<std::uint64_t>(m.p_min_w()),
        std::bit_cast<std::uint64_t>(m.p_max_w())};
    std::size_t i = model_hash(m) >> kIndexShift;
    while (memo_index_[i] != 0 && memo_slots_[memo_index_[i] - 1].model != bits) {
      i = (i + 1) & (kIndexSize - 1);
    }
    return std::pair{i, bits};
  };
  group_tables_.assign(groups.reps.size(), nullptr);
  std::size_t unseen = 0;
  for (std::size_t k = 0; k < groups.reps.size(); ++k) {
    const std::uint32_t slot = memo_index_[position(k).first];
    if (slot != 0) {
      group_tables_[k] = &memo_slots_[slot - 1].caps;
    } else {
      ++unseen;
    }
  }
  if (unseen == 0) return;
  // Too few free slots: start over, unless this solve alone holds more
  // models than the memo does (dropping the slots would not make it fit).
  if (unseen > kMemoModels - memo_slots_.size() && groups.reps.size() <= kMemoModels) {
    memo_slots_.clear();
    std::fill(memo_index_.begin(), memo_index_.end(), 0);
    std::fill(group_tables_.begin(), group_tables_.end(), nullptr);
  }
  for (std::size_t k = 0; k < groups.reps.size(); ++k) {
    if (group_tables_[k] != nullptr) continue;
    const auto [i, bits] = position(k);  // an earlier group may have opened it
    if (memo_index_[i] == 0) {
      if (memo_slots_.size() == kMemoModels) continue;
      memo_slots_.push_back({bits, CapTable{}});
      memo_index_[i] = static_cast<std::uint32_t>(memo_slots_.size());
    }
    group_tables_[k] = &memo_slots_[memo_index_[i] - 1].caps;
  }
}

void EvenSlowdownBudgeter::caps_at_slowdown(ModelGroups& groups, double slowdown) const {
  for (std::size_t k = 0; k < groups.reps.size(); ++k) {
    const model::PowerPerfModel& m = *groups.reps[k];
    if (CapTable* table = group_tables_[k]; table != nullptr) {
      groups.caps[k] = table->cap(m, slowdown, memo_hits_, memo_misses_);
    } else {
      groups.caps[k] = m.cap_for_slowdown(slowdown);
      ++memo_misses_;
    }
  }
}

BudgetResult EvenSlowdownBudgeter::distribute(const std::vector<JobPowerProfile>& jobs,
                                              double budget_w) const {
  BudgetResult result;
  if (jobs.empty()) return result;

  ANOR_PROF_SCOPE("budget.solve");
  const std::uint64_t hits_before = memo_hits_;
  const std::uint64_t misses_before = memo_misses_;
  int bisect_iters = 0;

  ModelGroups groups = [&] {
    ANOR_PROF_SCOPE("budget.group");
    return group_models(jobs);
  }();
  groups.caps.resize(groups.reps.size());
  map_memo_tables(groups);

  // Every threshold decision below compares the grouped total
  // G = Σ_k N_k·x_k with the budget instead of the reference's job-ordered
  // total T = Σ_j nodes_j·x_j (x = p_max, p_min or the caps at a slowdown).
  // In exact arithmetic both equal S = Σ_j nodes_j·x_j: each N_k is an exact
  // integer sum and every job of group k has x_j == x_k.  Let u =
  // DBL_EPSILON/2 and W = Σ_j|nodes_j| · max_k max(|p_min_k|, |p_max_k|),
  // which bounds Σ_j|nodes_j·x_j| because every cap lies in [p_min, p_max].
  // Recursive summation (Higham, "Accuracy and Stability of Numerical
  // Algorithms", 2nd ed., sec. 4.2) with one rounded product per term gives
  // |T − S| <= γ_n·W and |G − S| <= γ_K·W for n jobs and K groups, where
  // γ_m = m·u/(1 − m·u); so |T − G| <= (γ_n + γ_K)·W ≈ (n + K)·u·W.
  // `bound` = 4·(n + K + 4)·DBL_EPSILON·scale = 8·(n + K + 4)·u·scale with
  // scale >= W is more than 4× that, and its 32·u·scale excess covers the
  // rounding of G − budget, of |G − budget| − tolerance, and of the
  // reference's own T − budget next to the tolerance.  When G lies farther
  // than `bound` from a threshold (the budget for the envelope branches and
  // the step direction, budget ± tolerance for the stop test), T lies on
  // the same side, so G decides as T would; otherwise the solve sums T.
  // Any NaN or infinity fails `far` and takes the exact sum too.
  double max_abs_cap = 0.0;
  for (const model::PowerPerfModel* rep : groups.reps) {
    max_abs_cap = std::max({max_abs_cap, std::abs(rep->p_min_w()), std::abs(rep->p_max_w())});
  }
  const double scale =
      std::max({static_cast<double>(groups.abs_nodes) * max_abs_cap, std::abs(budget_w),
                std::abs(tolerance_w_)});
  const double bound =
      4.0 * static_cast<double>(jobs.size() + groups.reps.size() + 4) * DBL_EPSILON * scale;
  const auto far = [bound](double total, double threshold) {
    return std::abs(total - threshold) > bound;
  };
  // max is exact in any order, so the deepest slowdown over the reps equals
  // the reference's max over jobs (equal models have equal max_slowdown).
  const auto deepest_slowdown = [&groups] {
    double deepest = 0.0;
    for (const model::PowerPerfModel* rep : groups.reps) {
      deepest = std::max(deepest, rep->max_slowdown());
    }
    return deepest;
  };

  const double g_max =
      grouped_total(groups, [&](std::size_t k) { return groups.reps[k]->p_max_w(); });
  const double g_min =
      grouped_total(groups, [&](std::size_t k) { return groups.reps[k]->p_min_w(); });
  double s = 0.0;
  if (far(g_max, budget_w) ? budget_w >= g_max : budget_w >= total_max_power_w(jobs)) {
    s = 0.0;
  } else if (far(g_min, budget_w) ? budget_w <= g_min : budget_w <= total_min_power_w(jobs)) {
    // Even the deepest common slowdown cannot get under the budget: every
    // job pins to its floor cap.
    s = deepest_slowdown();
  } else {
    // Total power is monotone non-increasing in s; bisect.
    double lo = 0.0;
    double hi = std::max(deepest_slowdown(), 1e-6);
    for (int iter = 0; iter < 100; ++iter) {
      ++bisect_iters;
      const double mid = 0.5 * (lo + hi);
      caps_at_slowdown(groups, mid);
      double total = grouped_total(groups, [&](std::size_t k) { return groups.caps[k]; });
      if (!far(total, budget_w) || !far(std::abs(total - budget_w), tolerance_w_)) {
        total = ordered_total(jobs, groups);
      }
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
