// Differential test: EvenSlowdownBudgeter::distribute against the
// job-ordered reference solve (reference_even_slowdown.hpp), bit for bit.
//
// The budgeter decides with grouped totals and sums in job order only when
// a grouped total lies within a rounding bound of a threshold.  Random job
// sets cover the common case; adversarial budgets sit exactly on the
// reference's thresholds (an envelope total, or the ordered total at a
// visited bisection midpoint, shifted by the tolerance and a few ulps), so
// a decision taken from the grouped total alone would flip and move the
// balance point.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "budget/even_slowdown.hpp"
#include "budget/reference_even_slowdown.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/rng.hpp"

namespace anor::budget {
namespace {


/// T(P) = t0 + k·(p_max − P)² on [p_min, p_max]: monotone, like a fitted
/// job curve, with random shape and envelope.
model::PowerPerfModel random_model(util::Rng& rng) {
  const double p_min = rng.uniform(100.0, 150.0);
  const double p_max = rng.uniform(190.0, 290.0);
  const double k = rng.uniform(1e-6, 2e-4);
  const double t0 = rng.uniform(0.5, 3.0);
  return model::PowerPerfModel(k, -2.0 * k * p_max, t0 + k * p_max * p_max, p_min, p_max);
}

/// Model pool: random curves plus signed-zero triplets.  The triplets
/// compare equal under ==, so they must share one group whose rep is the
/// first seen; pinned at the floor, every member's cap carries the rep's
/// p_min bits (+0.0 or -0.0).  Each pair differs in one zero's sign, so a
/// hash that did not fold -0.0 onto 0.0 would split them.
std::vector<model::PowerPerfModel> model_pool(util::Rng& rng, int count, bool signed_zeros) {
  std::vector<model::PowerPerfModel> pool;
  for (int i = 0; i < count; ++i) pool.push_back(random_model(rng));
  if (signed_zeros) {
    pool.emplace_back(0.0, -0.002, 2.0, -0.0, 250.0);  // p_min is -0.0
    pool.emplace_back(0.0, -0.002, 2.0, 0.0, 250.0);
    pool.emplace_back(-0.0, -0.002, 2.0, 0.0, 250.0);  // a is -0.0
  }
  return pool;
}

std::vector<JobPowerProfile> random_jobs(util::Rng& rng,
                                         const std::vector<model::PowerPerfModel>& pool,
                                         std::size_t count) {
  std::vector<JobPowerProfile> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs[i].job_id = static_cast<int>(i);
    jobs[i].nodes = static_cast<int>(rng.uniform_int(1, 8));
    jobs[i].model = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  }
  return jobs;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise_equal(const BudgetResult& want, const BudgetResult& got,
                          const std::string& where) {
  ASSERT_EQ(bits(want.balance_point), bits(got.balance_point))
      << where << ": balance point " << want.balance_point << " vs " << got.balance_point;
  ASSERT_EQ(bits(want.allocated_w), bits(got.allocated_w))
      << where << ": allocated " << want.allocated_w << " vs " << got.allocated_w;
  ASSERT_EQ(want.node_cap_w.size(), got.node_cap_w.size()) << where;
  for (std::size_t k = 0; k < want.node_cap_w.size(); ++k) {
    ASSERT_EQ(bits(want.node_cap_w[k]), bits(got.node_cap_w[k]))
        << where << ": cap " << k << " " << want.node_cap_w[k] << " vs " << got.node_cap_w[k];
  }
}

/// `budget` and the doubles up to `ulps` steps either side of it.
void add_with_neighbours(std::vector<double>& budgets, double budget, int ulps) {
  budgets.push_back(budget);
  double up = budget;
  double down = budget;
  for (int i = 0; i < ulps; ++i) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, -std::numeric_limits<double>::infinity());
    budgets.push_back(up);
    budgets.push_back(down);
  }
}

/// Budgets aimed at every threshold the reference decides on for `jobs`:
/// below the floor, above the max, in between, both envelope totals, and
/// for a few midpoints of an in-between solve the ordered total there and
/// that total ± tolerance (each ± a few ulps).
std::vector<double> threshold_budgets(util::Rng& rng, const std::vector<JobPowerProfile>& jobs,
                                      double tolerance_w) {
  const double max_total = total_max_power_w(jobs);
  const double min_total = total_min_power_w(jobs);
  std::vector<double> budgets = {0.0, 0.5 * min_total, 1.5 * max_total,
                                 rng.uniform(min_total, max_total)};
  add_with_neighbours(budgets, max_total, 3);
  add_with_neighbours(budgets, min_total, 3);
  std::vector<std::pair<double, double>> visited;
  reference::even_slowdown(jobs, rng.uniform(min_total, max_total), tolerance_w, &visited);
  for (std::size_t v = 0; v < visited.size(); v += 1 + visited.size() / 4) {
    const double total = visited[v].second;
    add_with_neighbours(budgets, total, 2);
    add_with_neighbours(budgets, total + tolerance_w, 3);
    add_with_neighbours(budgets, total - tolerance_w, 3);
  }
  return budgets;
}

void check_against_reference(std::uint64_t seed, std::size_t job_count, int model_count,
                             double tolerance_w) {
  util::Rng rng(seed);
  const std::vector<model::PowerPerfModel> pool =
      model_pool(rng, model_count, /*signed_zeros=*/seed % 2 == 0);
  const std::vector<JobPowerProfile> jobs = random_jobs(rng, pool, job_count);

  EvenSlowdownBudgeter budgeter(tolerance_w);
  for (double budget : threshold_budgets(rng, jobs, tolerance_w)) {
    const BudgetResult want = reference::even_slowdown(jobs, budget, tolerance_w);
    const std::string where = "seed " + std::to_string(seed) + ", " +
                              std::to_string(job_count) + " jobs, " +
                              std::to_string(pool.size()) + " models, tolerance " +
                              std::to_string(tolerance_w) + ", budget " +
                              std::to_string(budget);
    expect_bitwise_equal(want, budgeter.distribute(jobs, budget), where);
  }
}

TEST(EvenSlowdownDifferential, RandomJobSetsMatchTheReferenceBitForBit) {
  util::Rng sizes(2024);
  // Fixed sizes pin the smallest sets and a few thousand jobs; the rest
  // are log-uniform in [1, 6000].
  std::vector<std::size_t> job_counts = {1, 2, 4095, 4097, 6000};
  for (int i = 0; i < 11; ++i) {
    job_counts.push_back(
        static_cast<std::size_t>(std::exp(sizes.uniform(0.0, std::log(6000.0)))));
  }
  std::uint64_t seed = 1;
  for (std::size_t count : job_counts) {
    const int models = static_cast<int>(sizes.uniform_int(1, 12));
    // The default tolerance; zero, where the stop test fires only on exact
    // equality; and a negative one, where it never fires and the direction
    // of every step decides the path.
    for (double tolerance_w : {0.5, 0.0, -1.0}) {
      check_against_reference(seed++, count, models, tolerance_w);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(EvenSlowdownDifferential, NaNCoefficientModelsMatchTheReference) {
  // NaN never compares equal, so each NaN-model job opens its own group,
  // in the reference's scan and in the budgeter's table alike (dozens of
  // groups on one probe chain); the results must still match bit for bit.
  util::Rng rng(99);
  std::vector<model::PowerPerfModel> pool = model_pool(rng, 3, false);
  pool.emplace_back(std::numeric_limits<double>::quiet_NaN(), -0.004, 2.0, 120.0, 250.0);
  const std::vector<JobPowerProfile> jobs = random_jobs(rng, pool, 300);
  EvenSlowdownBudgeter budgeter;
  for (double budget : threshold_budgets(rng, jobs, 0.5)) {
    expect_bitwise_equal(reference::even_slowdown(jobs, budget), budgeter.distribute(jobs, budget),
                         "budget " + std::to_string(budget));
  }
}

/// Keyed profiles (JobPowerProfile::model_key) against the reference,
/// which ignores keys: a key steers only how the budgeter finds a job's
/// group, so every result must match bit for bit.
void check_keyed_against_reference(util::Rng& rng, const std::vector<JobPowerProfile>& jobs,
                                   const std::string& what) {
  EvenSlowdownBudgeter budgeter;
  for (double budget : threshold_budgets(rng, jobs, 0.5)) {
    const BudgetResult want = reference::even_slowdown(jobs, budget);
    const std::string where =
        what + ", " + std::to_string(jobs.size()) + " jobs, budget " + std::to_string(budget);
    expect_bitwise_equal(want, budgeter.distribute(jobs, budget), where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Jobs drawn from `pool`, each keyed with the key of its pool entry.
std::vector<JobPowerProfile> keyed_jobs(util::Rng& rng,
                                        const std::vector<model::PowerPerfModel>& pool,
                                        const std::vector<int>& keys, std::size_t count) {
  std::vector<JobPowerProfile> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    jobs[i].job_id = static_cast<int>(i);
    jobs[i].nodes = static_cast<int>(rng.uniform_int(1, 8));
    jobs[i].model = pool[pick];
    jobs[i].model_key = keys[pick];
  }
  return jobs;
}

// One job, hundreds and thousands.
constexpr std::size_t kKeyedSizes[] = {1, 300, 5000};

TEST(EvenSlowdownDifferential, KeysOverEqualModelsMergeIntoOneGroup) {
  // Two keys name equal models (one with a -0.0 where the other has 0.0):
  // both keys must land in the first-seen group, as equal models do
  // without keys.
  util::Rng rng(4101);
  std::vector<model::PowerPerfModel> pool = model_pool(rng, 3, false);
  pool.emplace_back(0.0, -0.002, 2.0, -0.0, 250.0);
  pool.emplace_back(0.0, -0.002, 2.0, 0.0, 250.0);
  pool.push_back(pool[0]);
  for (std::size_t count : kKeyedSizes) {
    check_keyed_against_reference(rng, keyed_jobs(rng, pool, {0, 1, 2, 3, 4, 5}, count),
                                  "equal models under two keys");
    if (HasFatalFailure()) return;
  }
}

TEST(EvenSlowdownDifferential, KeyOverANaNModelOpensAGroupPerJob) {
  // A NaN coefficient never compares equal, so a keyed NaN-model job
  // fails its key's check and opens its own group, as it does unkeyed.
  util::Rng rng(4102);
  std::vector<model::PowerPerfModel> pool = model_pool(rng, 3, false);
  pool.emplace_back(std::numeric_limits<double>::quiet_NaN(), -0.004, 2.0, 120.0, 250.0);
  for (std::size_t count : kKeyedSizes) {
    check_keyed_against_reference(rng, keyed_jobs(rng, pool, {0, 1, 2, 3}, count),
                                  "a keyed NaN model");
    if (HasFatalFailure()) return;
  }
}

TEST(EvenSlowdownDifferential, OneKeyOverTwoModelsFallsBack) {
  // A key that names two different models fails its check on every
  // switch between them and falls back to the model index.
  util::Rng rng(4103);
  const std::vector<model::PowerPerfModel> pool = model_pool(rng, 4, false);
  for (std::size_t count : kKeyedSizes) {
    check_keyed_against_reference(rng, keyed_jobs(rng, pool, {7, 7, 2, 7}, count),
                                  "one key over two models");
    if (HasFatalFailure()) return;
  }
}

TEST(EvenSlowdownDifferential, KeyedAndUnkeyedProfilesMix) {
  // Unkeyed profiles (-1), keys at the top of the keyed range and beyond
  // it (treated as no key) share models with keyed ones.
  util::Rng rng(4104);
  std::vector<model::PowerPerfModel> pool = model_pool(rng, 5, true);
  pool.push_back(pool[1]);
  pool.push_back(pool[2]);
  const int top = JobPowerProfile::kMaxModelKey - 1;
  // pool: five random curves, the signed-zero triplet, copies of 1 and 2.
  const std::vector<int> keys = {0, 1, -1, 3, top, 5, 5, 6, -1, JobPowerProfile::kMaxModelKey};
  for (std::size_t count : kKeyedSizes) {
    check_keyed_against_reference(rng, keyed_jobs(rng, pool, keys, count),
                                  "keyed and unkeyed");
    if (HasFatalFailure()) return;
  }
}

/// Memo lookups so far, as the budgeter flushes them to telemetry while
/// profiling is on: {hits, misses}.
std::pair<std::uint64_t, std::uint64_t> memo_counts() {
  auto& registry = telemetry::MetricsRegistry::global();
  return {registry.counter("budget.memo_hits").value(),
          registry.counter("budget.memo_misses").value()};
}

/// Groups of the reference's linear scan (== per coefficient, so each
/// NaN-model job is a group of its own).
std::size_t reference_groups(const std::vector<JobPowerProfile>& jobs) {
  std::vector<const model::PowerPerfModel*> reps;
  for (const JobPowerProfile& j : jobs) {
    bool seen = false;
    for (const model::PowerPerfModel* rep : reps) {
      seen = seen || (rep->a() == j.model.a() && rep->b() == j.model.b() &&
                      rep->c() == j.model.c() && rep->p_min_w() == j.model.p_min_w() &&
                      rep->p_max_w() == j.model.p_max_w());
    }
    if (!seen) reps.push_back(&j.model);
  }
  return reps.size();
}

std::array<std::uint64_t, 5> model_bits(const model::PowerPerfModel& m) {
  return {bits(m.a()), bits(m.b()), bits(m.c()), bits(m.p_min_w()), bits(m.p_max_w())};
}

TEST(EvenSlowdownDifferential, OneBudgeterThroughModelChurnAndMemoClears) {
  // One budgeter keeps its cap memo across thousands of solves, so the
  // memo fills and clears at both of its bounds: the job sets churn
  // through more distinct models than it keeps tables for, one job set
  // bisects to more distinct slowdowns than a table holds, and one solve
  // alone has more models than the memo.  NaN-coefficient models (two
  // payloads) and the signed-zero triplet ride along.  Every result must
  // match the reference bit for bit, and every cap lookup -- one per
  // group per bisection step, plus one per group for the final caps --
  // counts once, as a hit or as a miss.
  telemetry::prof::Profiler::global().set_enabled(true);
  struct ProfilingOff {
    ~ProfilingOff() { telemetry::prof::Profiler::global().set_enabled(false); }
  } profiling_off;
  constexpr std::size_t kModels = EvenSlowdownBudgeter::kMemoModels;
  constexpr std::size_t kEntries = EvenSlowdownBudgeter::kMemoEntriesPerModel;

  util::Rng rng(4105);
  std::vector<model::PowerPerfModel> pool = model_pool(rng, static_cast<int>(2 * kModels), true);
  pool.emplace_back(std::numeric_limits<double>::quiet_NaN(), -0.004, 2.0, 120.0, 250.0);
  pool.emplace_back(std::bit_cast<double>(std::uint64_t{0x7FF8000000000123}), -0.003, 2.0, 110.0,
                    240.0);
  // The tolerance never stops the bisection, so every in-between solve
  // takes all 100 steps down to adjacent doubles.
  constexpr double kTolerance = -1.0;
  EvenSlowdownBudgeter budgeter(kTolerance);
  std::set<std::array<std::uint64_t, 5>> models_seen;
  std::uint64_t total_hits = 0;
  // The last solve's result, midpoints and lookups per group.
  BudgetResult result;
  std::vector<std::pair<double, double>> visited;
  std::uint64_t probes_per_group = 0;

  // Returns the solve's {hits, misses}.
  const auto solve = [&](const std::vector<JobPowerProfile>& jobs, double budget,
                         const std::string& where) -> std::pair<std::uint64_t, std::uint64_t> {
    visited.clear();
    const BudgetResult want = reference::even_slowdown(jobs, budget, kTolerance, &visited);
    const auto before = memo_counts();
    result = budgeter.distribute(jobs, budget);
    expect_bitwise_equal(want, result, where);
    const auto after = memo_counts();
    probes_per_group = visited.size() + 1;
    EXPECT_EQ((after.first - before.first) + (after.second - before.second),
              reference_groups(jobs) * probes_per_group)
        << where << ": hits + misses against the lookups";
    total_hits += after.first - before.first;
    for (const JobPowerProfile& j : jobs) models_seen.insert(model_bits(j.model));
    return std::pair{after.first - before.first, after.second - before.second};
  };
  const auto in_between = [&](const std::vector<JobPowerProfile>& jobs) {
    return rng.uniform(total_min_power_w(jobs), total_max_power_w(jobs));
  };

  // Churn: each solve draws its jobs from a window of six pool models that
  // slides one model every four solves, so a model lives ~24 solves.
  // Envelope budgets (no bisection) come up now and then.
  for (std::size_t i = 0; i < 4 * (pool.size() - 5); ++i) {
    const std::vector<model::PowerPerfModel> window(
        pool.begin() + static_cast<std::ptrdiff_t>(i / 4),
        pool.begin() + static_cast<std::ptrdiff_t>(i / 4 + 6));
    const std::vector<JobPowerProfile> jobs = random_jobs(rng, window, 24);
    double budget = in_between(jobs);
    if (i % 17 == 0) budget = total_max_power_w(jobs);
    if (i % 23 == 0) budget = 0.5 * total_min_power_w(jobs);
    solve(jobs, budget, "churn solve " + std::to_string(i));
    if (HasFailure()) return;
  }
  EXPECT_GT(models_seen.size(), kModels) << "the churn must outgrow the memo's model bound";

  // Depth: one job set -- a curve, two of the signed-zero models (p_min
  // -0.0 and 0.0) and a NaN one -- bisected for random budgets until its
  // models' distinct slowdowns outnumber what a table holds by half.  The
  // set alternates with its reverse, whose signed-zero group has the other
  // rep, and both meet at the deepest slowdown under a budget below their
  // floor: a floor-pinned cap must carry its own rep's zero, so the two
  // reps must not share a table.  A solve repeated
  // twice hits every lookup the second time (the first repeat misses what
  // a clear inside the solve dropped).
  const std::vector<model::PowerPerfModel> deep_pool = {pool[0], pool[2 * kModels],
                                                        pool[2 * kModels + 1], pool.back()};
  std::vector<JobPowerProfile> deep_jobs[2] = {random_jobs(rng, deep_pool, 12)};
  deep_jobs[0].front().model = deep_pool[1];  // each set's first job is a signed-zero
  deep_jobs[0].back().model = deep_pool[2];   // one, a different one in each
  deep_jobs[1].assign(deep_jobs[0].rbegin(), deep_jobs[0].rend());
  std::set<std::uint64_t> slowdowns;
  int zero_caps = 0;  // solves whose signed-zero group sits at its floor
  for (int i = 0; slowdowns.size() <= kEntries + kEntries / 2; ++i) {
    ASSERT_LT(i, 10000) << "the bisections stopped finding new slowdowns";
    const std::vector<JobPowerProfile>& jobs = deep_jobs[i % 2];
    const double budget = i % 10 < 2 ? 0.5 * total_min_power_w(jobs) : in_between(jobs);
    solve(jobs, budget, "deep solve " + std::to_string(i));
    if (HasFailure()) return;
    for (const auto& [mid, total] : visited) slowdowns.insert(bits(mid));
    if (result.node_cap_w.front() == 0.0) ++zero_caps;
    if (i % 50 == 0) {
      solve(jobs, budget, "deep repeat " + std::to_string(i));
      const auto [hits, misses] = solve(jobs, budget, "deep repeat " + std::to_string(i));
      if (HasFailure()) return;
      EXPECT_EQ(misses, 0u) << "deep repeat " << i;
      EXPECT_GT(hits, 0u) << "deep repeat " << i;
    }
  }
  EXPECT_GT(zero_caps, 0) << "no solve pinned the signed-zero group at its floor";

  // Width: one solve with more distinct models than the memo keeps tables
  // for, twice.  The second can hit on at most kModels groups.
  std::vector<model::PowerPerfModel> wide_pool;
  for (std::size_t k = 0; k < kModels + 16; ++k) wide_pool.push_back(random_model(rng));
  std::vector<JobPowerProfile> wide_jobs = random_jobs(rng, wide_pool, 4 * wide_pool.size());
  for (std::size_t k = 0; k < wide_pool.size(); ++k) wide_jobs[k].model = wide_pool[k];
  const std::size_t wide_groups = reference_groups(wide_jobs);
  ASSERT_GT(wide_groups, kModels);
  const double wide_budget = in_between(wide_jobs);
  solve(wide_jobs, wide_budget, "wide solve");
  if (HasFailure()) return;
  const auto [hits, misses] = solve(wide_jobs, wide_budget, "wide repeat");
  if (HasFailure()) return;
  EXPECT_LE(hits, kModels * probes_per_group);
  EXPECT_GE(misses, (wide_groups - kModels) * probes_per_group);
  EXPECT_GT(total_hits, 0u);
}

}  // namespace
}  // namespace anor::budget
