// Performance-aware power balancer (paper Sec. 4.4.3, second policy).
//
//   p_cap_j = P_j( s * T_j(p_max_j) )
//
// One expected-slowdown limit s is chosen so the caps use the full budget;
// each job's model maps that slowdown back to a cap.  Jobs whose models
// are flat level off at the platform's minimum cap, which is what lets
// sensitive jobs keep more power (paper Fig. 4).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "budget/budgeter.hpp"

namespace anor::telemetry {
class Counter;
class Histogram;
}  // namespace anor::telemetry

namespace anor::budget {

/// Internal to the even-slowdown solve: jobs grouped by distinct model
/// (defined in even_slowdown.cpp).
struct ModelGroups;

class EvenSlowdownBudgeter final : public Budgeter {
 public:
  /// Bisection tolerance on total watts.
  explicit EvenSlowdownBudgeter(double tolerance_w = 0.5) : tolerance_w_(tolerance_w) {}

  std::string name() const override { return "even-slowdown"; }
  BudgetResult distribute(const std::vector<JobPowerProfile>& jobs,
                          double budget_w) const override;

  /// Parallel mode: job lists of at least 4096 build their model groups
  /// block-sharded over the team, merged in block order.  Caps and the
  /// balance point are bit-identical to the serial solve.
  void set_shard_workers(util::ShardWorkers* workers) override { workers_ = workers; }

 private:
  /// Fill groups.caps with each distinct model's cap at the slowdown,
  /// consulting the memo cache first.
  void caps_at_slowdown(ModelGroups& groups, double slowdown) const;

  double tolerance_w_;

  /// Memoized cap_for_slowdown results keyed on the exact bit patterns of
  /// (model coefficients, slowdown).  cap_for_slowdown is pure, so a hit
  /// returns the identical double the solve would have produced, and the
  /// outer bisection revisits the same dyadic slowdown values every
  /// control period (the interval [0, max max_slowdown] is fixed by the
  /// model set) — upper tree levels hit on nearly every call.  Instances
  /// are not shared across threads; concurrent trials each own a
  /// budgeter.
  struct CapKey {
    std::array<std::uint64_t, 6> bits;  // a, b, c, p_min, p_max, slowdown
    bool operator==(const CapKey&) const = default;
  };
  static CapKey cap_key(const model::PowerPerfModel& m, double slowdown);
  struct CapKeyHash {
    std::size_t operator()(const CapKey& key) const;
  };
  mutable std::unordered_map<CapKey, double, CapKeyHash> cap_cache_;
  /// Memo traffic tallied locally (no atomics on the solve path) and
  /// flushed to telemetry counters once per distribute() when profiling
  /// is enabled.
  mutable std::uint64_t memo_hits_ = 0;
  mutable std::uint64_t memo_misses_ = 0;
  /// Registry handles resolved once on the first flush (registrations are
  /// permanent, so the pointers stay valid across reset_values()); the
  /// name lookups are too slow for once-per-control-step work.
  mutable telemetry::Counter* memo_hits_counter_ = nullptr;
  mutable telemetry::Counter* memo_misses_counter_ = nullptr;
  mutable telemetry::Histogram* bisect_iters_hist_ = nullptr;

  /// Borrowed worker team (see set_shard_workers); nullptr = serial.
  util::ShardWorkers* workers_ = nullptr;
};

}  // namespace anor::budget
