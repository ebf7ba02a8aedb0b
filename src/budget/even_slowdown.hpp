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
#include <cstddef>
#include <cstdint>
#include <vector>

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

  /// Bounds of the cap memo (below): the distinct models it keeps a table
  /// for, and the entries one model's table holds before it is cleared.
  /// A full memo is 64 tables of 2^16 16-byte entries at load 1/2, 1 MiB
  /// each.
  static constexpr std::size_t kMemoModels = 64;
  static constexpr std::size_t kMemoEntriesPerModel = std::size_t{1} << 15;

 private:
  /// One model's memoized cap_for_slowdown results: an open-addressed
  /// table (linear probing, load <= 1/2) from the exact bit pattern of a
  /// slowdown to its cap, 16 bytes per entry.  Occupancy lives in a
  /// separate bitmap, so every 64-bit pattern is a key, NaNs included.
  /// cap_for_slowdown is pure, so a hit returns the identical double the
  /// solve would have produced, and the outer bisection revisits the same
  /// dyadic slowdown values every control period (the interval
  /// [0, max max_slowdown] is fixed by the model set): upper tree levels
  /// hit on nearly every call.  The capacity doubles from kMinCapacity up
  /// to 2 · kMemoEntriesPerModel, and at that capacity the table is
  /// cleared when it fills.
  class CapTable {
   public:
    static constexpr std::size_t kMinCapacity = 64;

    /// The cap of `m` at `slowdown`: the stored one (++hits), or computed
    /// and stored (++misses).
    double cap(const model::PowerPerfModel& m, double slowdown, std::uint64_t& hits,
               std::uint64_t& misses);

   private:
    struct Entry {
      std::uint64_t slowdown;  // bit pattern
      double cap;
    };
    void insert(std::uint64_t key, double cap);
    void rehash(std::size_t capacity);

    std::vector<Entry> entries_;
    std::vector<std::uint64_t> used_;  // bit i % 64 of word i / 64: entries_[i] holds a key
    std::size_t count_ = 0;
    int shift_ = 64;
  };

  /// Point group_tables_ at each group's memo table, found by the bits of
  /// the group's rep; opens slots for models not seen before.
  void map_memo_tables(const ModelGroups& groups) const;
  /// Fill groups.caps with each distinct model's cap at the slowdown,
  /// consulting the memo first.
  void caps_at_slowdown(ModelGroups& groups, double slowdown) const;

  double tolerance_w_;

  /// The memo: one CapTable per distinct model, keyed on the exact bit
  /// patterns of (a, b, c, p_min, p_max).  Each solve maps its groups'
  /// reps to their slots once, through an open-addressed index that reuses
  /// the grouping's model hash, so a bisection step probes one small table
  /// per group.  At most kMemoModels slots: a solve that brings more new
  /// models than there are free slots drops every slot first (refits
  /// under the feedback policy churn models), and a solve with more
  /// distinct models than that computes the rest unmemoized, each probe a
  /// miss.  Instances are not shared across threads; concurrent trials
  /// each own a budgeter.
  struct MemoSlot {
    std::array<std::uint64_t, 5> model;  // a, b, c, p_min, p_max bits
    CapTable caps;
  };
  mutable std::vector<MemoSlot> memo_slots_;
  mutable std::vector<std::uint32_t> memo_index_;  // slot + 1; 0 = empty
  /// Per group of the current solve: its memo table, or nullptr.
  mutable std::vector<CapTable*> group_tables_;
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
};

}  // namespace anor::budget
