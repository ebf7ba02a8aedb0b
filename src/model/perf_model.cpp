#include "model/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/poly_fit.hpp"

namespace anor::model {

PowerPerfModel::PowerPerfModel(double a, double b, double c, double p_min_w, double p_max_w)
    : a_(a), b_(b), c_(c), p_min_w_(p_min_w), p_max_w_(p_max_w) {
  if (!(p_max_w > p_min_w)) {
    throw util::ConfigError("PowerPerfModel: p_max must exceed p_min");
  }
}

PowerPerfModel PowerPerfModel::from_job_type(const workload::JobType& type) {
  // Sample the ground-truth curve densely over the job's achievable power
  // range and fit; the truth is quadratic in P there, so the fit is exact
  // up to rounding.  (Above max_power_w the true curve is flat — a cap
  // beyond the job's draw does nothing — so the fit must not span that
  // kink.)
  const double lo = workload::kNodeMinCapW;
  const double hi = std::min(workload::kNodeMaxCapW, type.max_power_w);
  std::vector<double> caps;
  std::vector<double> times;
  const int samples = 16;
  for (int i = 0; i < samples; ++i) {
    const double cap = lo + (hi - lo) * i / (samples - 1);
    caps.push_back(cap);
    times.push_back(type.epoch_time_s(cap));
  }
  return fit(caps, times, lo, hi);
}

bool PowerPerfModel::has_distinct_caps(std::span<const double> cap_w) {
  // Count distinct caps at 1/16 W; stop counting at 3.
  long distinct[3] = {};
  std::size_t distinct_count = 0;
  for (std::size_t i = 0; i < cap_w.size() && distinct_count < 3; ++i) {
    const long key = std::lround(cap_w[i] * 16.0);
    if (std::find(distinct, distinct + distinct_count, key) == distinct + distinct_count) {
      distinct[distinct_count++] = key;
    }
  }
  return distinct_count == 3;
}

PowerPerfModel PowerPerfModel::fit(std::span<const double> cap_w,
                                   std::span<const double> sec_per_epoch, double p_min_w,
                                   double p_max_w) {
  if (cap_w.size() != sec_per_epoch.size()) {
    throw util::NumericalError("PowerPerfModel::fit: size mismatch");
  }
  if (!has_distinct_caps(cap_w)) {
    throw util::NumericalError("PowerPerfModel::fit: need >=3 observations at >=3 caps");
  }
  // Normalize power by TDP for conditioning; de-normalize coefficients.
  const double scale = workload::kNodeTdpW;
  std::vector<double> x(cap_w.size());
  for (std::size_t i = 0; i < cap_w.size(); ++i) x[i] = cap_w[i] / scale;
  const std::vector<double> coeffs = util::polyfit(x, sec_per_epoch, 2);
  PowerPerfModel model(coeffs[2] / (scale * scale), coeffs[1] / scale, coeffs[0], p_min_w,
                       p_max_w);
  model.r2_ = util::polyfit_r2(coeffs, x, sec_per_epoch);
  return model;
}

double PowerPerfModel::time_at(double cap_w) const {
  const double p = std::clamp(cap_w, p_min_w_, p_max_w_);
  const double t = (a_ * p + b_) * p + c_;
  // Never predict faster than the uncapped rate.
  const double t_max_cap = (a_ * p_max_w_ + b_) * p_max_w_ + c_;
  return std::max(t, t_max_cap > 0.0 ? t_max_cap : 1e-9);
}

double PowerPerfModel::slowdown_at(double cap_w) const {
  const double base = time_at(p_max_w_);
  return base > 0.0 ? time_at(cap_w) / base - 1.0 : 0.0;
}

double PowerPerfModel::cap_for_time(double t_sec_per_epoch) const {
  if (t_sec_per_epoch <= time_at(p_max_w_)) return p_max_w_;
  if (t_sec_per_epoch >= time_at(p_min_w_)) return p_min_w_;
  // T is monotone non-increasing in P on the valid range; bisect.  The
  // floor term of time_at is constant, and every midpoint lies inside
  // [p_min, p_max] (so time_at's clamp is the identity); hoisting both
  // out of the loop leaves each iterate's value bit-identical.
  const double t_raw_max = (a_ * p_max_w_ + b_) * p_max_w_ + c_;
  const double t_floor = t_raw_max > 0.0 ? t_raw_max : 1e-9;
  const auto time_inside = [&](double p) {
    return std::max((a_ * p + b_) * p + c_, t_floor);
  };
  // The loop below is the plain bisection
  //     mid = 0.5*(lo+hi); T(mid) > t ? lo = mid : hi = mid;
  // restructured so each iteration also evaluates T at *both* possible
  // next midpoints before the current comparison resolves.  Every value is
  // produced by the same floating-point expression the plain loop would
  // use, so the iterates — and the returned hi — are bit-identical; the
  // speculation only takes the (serial, latency-bound) T evaluation off
  // the compare/select critical path.  ~50 data-dependent iterations make
  // this the hot loop of the budgeter's nested solve.
  double lo = p_min_w_;
  double hi = p_max_w_;
  double mid = 0.5 * (lo + hi);
  double t_mid = time_inside(mid);
  double mid_below = 0.5 * (lo + mid);  // next mid if the answer is below mid
  double mid_above = 0.5 * (mid + hi);  // next mid if the answer is above mid
  double t_below = time_inside(mid_below);
  double t_above = time_inside(mid_above);
  for (int iter = 0; iter < 64; ++iter) {
    // At one-ULP width the midpoint collides with an endpoint, and the
    // invariants (time(lo) > t, time(hi) <= t) make the update a no-op:
    // every remaining iteration would leave lo and hi unchanged.
    if (mid == lo || mid == hi) break;
    const bool too_slow = t_mid > t_sec_per_epoch;  // need more power
    lo = too_slow ? mid : lo;
    hi = too_slow ? hi : mid;
    mid = too_slow ? mid_above : mid_below;
    t_mid = too_slow ? t_above : t_below;
    mid_below = 0.5 * (lo + mid);
    mid_above = 0.5 * (mid + hi);
    t_below = time_inside(mid_below);
    t_above = time_inside(mid_above);
  }
  return hi;
}

double PowerPerfModel::cap_for_slowdown(double slowdown) const {
  return cap_for_time(time_at(p_max_w_) * (1.0 + slowdown));
}

std::string PowerPerfModel::describe() const {
  std::ostringstream out;
  out << "T(P) = " << a_ << "*P^2 + " << b_ << "*P + " << c_ << " on [" << p_min_w_ << ", "
      << p_max_w_ << "] W, R2=" << r2_;
  return out.str();
}

}  // namespace anor::model
