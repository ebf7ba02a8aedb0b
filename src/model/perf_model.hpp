// The job power-performance model the cluster tier budgets with.
//
// Paper Sec. 4.2: "We fit T = A·P² + B·P + C for T seconds per epoch and
// power cap P watts below TDP."  A model also carries the job's achievable
// power range [p_min, p_max] so the budgeter knows the feasible cap span.
// Fitting normalizes P by TDP to keep the normal equations well
// conditioned; coefficients are stored in watt units.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "workload/job_type.hpp"

namespace anor::model {

class PowerPerfModel {
 public:
  PowerPerfModel() = default;

  /// Coefficients for T(P) = a·P² + b·P + c (P in watts at node level;
  /// T in seconds per epoch).
  PowerPerfModel(double a, double b, double c, double p_min_w, double p_max_w);

  /// Ground-truth model of a job type ("precharacterized"): samples the
  /// type's true curve and fits it exactly.
  static PowerPerfModel from_job_type(const workload::JobType& type);

  /// fit's precondition: at least 3 caps that differ at 1/16 W.  Callers
  /// that refit in a loop check it instead of catching fit's throw.
  static bool has_distinct_caps(std::span<const double> cap_w);

  /// Least-squares fit from cap/seconds-per-epoch observations.
  /// Requires has_distinct_caps(cap_w); throws NumericalError otherwise
  /// (and on a singular system).  Computes and stores the training R².
  static PowerPerfModel fit(std::span<const double> cap_w,
                            std::span<const double> sec_per_epoch, double p_min_w,
                            double p_max_w);

  double a() const { return a_; }
  double b() const { return b_; }
  double c() const { return c_; }
  double p_min_w() const { return p_min_w_; }
  double p_max_w() const { return p_max_w_; }
  double r2() const { return r2_; }
  bool valid() const { return p_max_w_ > p_min_w_; }

  /// Seconds per epoch at a node cap (cap clamps into [p_min, p_max];
  /// the model is also clamped below by its value at p_max so a noisy fit
  /// can never predict speedup beyond the uncapped rate).
  double time_at(double cap_w) const;

  /// Relative slowdown at a cap: time_at(cap)/time_at(p_max) - 1.
  double slowdown_at(double cap_w) const;

  /// Inverse: the smallest cap whose predicted time is <= t (the paper's
  /// P_j function).  Monotone bisection on [p_min, p_max]; clamps outside
  /// the achievable range.
  double cap_for_time(double t_sec_per_epoch) const;

  /// Cap achieving a relative slowdown target (paper's
  /// P_j(s·T_j(p_max))).
  double cap_for_slowdown(double slowdown) const;

  /// Maximum slowdown this model predicts (at p_min).
  double max_slowdown() const { return slowdown_at(p_min_w_); }

  std::string describe() const;

 private:
  double a_ = 0.0;
  double b_ = 0.0;
  double c_ = 1.0;
  double p_min_w_ = workload::kNodeMinCapW;
  double p_max_w_ = workload::kNodeMaxCapW;
  double r2_ = 1.0;
};

}  // namespace anor::model
