#include "model/modeler.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace anor::model {

namespace {

/// Registry lookup of one rejection reason's counter.  Each call site keeps
/// the handle in a function static, so a reason registers at its first
/// rejection (never before) and later ones skip the label build and lock.
telemetry::Counter& refit_rejected_counter(const char* reason) {
  return telemetry::MetricsRegistry::global().counter("job.modeler.refit_rejected",
                                                      {{"reason", reason}});
}

/// A refit the pooled caps cannot support: too few distinct caps, or a
/// singular system.
void count_numerical_rejection() {
  static auto& numerical = refit_rejected_counter("numerical");
  numerical.inc();
}

}  // namespace

void aggregate_by_cap(std::span<const EpochObservation> observations,
                      std::vector<CapAggregate>& pool, double bucket_w, bool clean_only) {
  // While pooling, a bucket's cap_w holds its epoch-weighted cap sum and
  // sec_per_epoch its span sum; both divide by the epochs at the end.
  pool.clear();
  for (const EpochObservation& obs : observations) {
    if (obs.epochs <= 0 || (clean_only && obs.mixed_cap)) continue;
    const long key = std::lround(obs.avg_cap_w / bucket_w);
    auto bucket = std::lower_bound(
        pool.begin(), pool.end(), key,
        [](const CapAggregate& aggregate, long k) { return aggregate.key < k; });
    if (bucket == pool.end() || bucket->key != key) {
      bucket = pool.insert(bucket, CapAggregate{0.0, 0.0, 0, key});
    }
    bucket->sec_per_epoch += obs.t_end_s - obs.t_start_s;
    bucket->cap_w += obs.avg_cap_w * static_cast<double>(obs.epochs);
    bucket->epochs += obs.epochs;
  }
  for (CapAggregate& bucket : pool) {
    bucket.cap_w /= static_cast<double>(bucket.epochs);
    bucket.sec_per_epoch /= static_cast<double>(bucket.epochs);
  }
}

OnlineModeler::OnlineModeler(PowerPerfModel initial_model, ModelerConfig config)
    : model_(std::move(initial_model)), config_(config) {}

void OnlineModeler::window_changed() {
  pool_stale_ = true;
  ++revision_;
}

std::span<const CapAggregate> OnlineModeler::clean_pool() {
  if (pool_stale_) {
    aggregate_by_cap(observations_, clean_pool_, 5.0, true);
    clean_count_ = 0;
    for (const EpochObservation& obs : observations_) clean_count_ += obs.mixed_cap ? 0 : 1;
    pool_stale_ = false;
  }
  return clean_pool_;
}

std::size_t OnlineModeler::clean_observation_count() {
  (void)clean_pool();
  return clean_count_;
}

void OnlineModeler::record_cap(double t_s, double cap_w) {
  if (!cap_change_times_.empty() && t_s < cap_change_times_.back()) {
    // Late-arriving cap records are clamped forward; the tiers are
    // asynchronous and minor reordering is expected.
    t_s = cap_change_times_.back();
  }
  if (!cap_values_.empty() && cap_values_.back() == cap_w) return;
  cap_change_times_.push_back(t_s);
  cap_values_.push_back(cap_w);
}

double OnlineModeler::average_cap_over(double t0_s, double t1_s) const {
  if (cap_change_times_.empty() || t1_s <= t0_s) {
    return cap_values_.empty() ? workload::kNodeMaxCapW : cap_values_.back();
  }
  double integral = 0.0;
  double covered = 0.0;
  for (std::size_t i = 0; i < cap_change_times_.size(); ++i) {
    const double seg_start = std::max(cap_change_times_[i], t0_s);
    const double seg_end =
        std::min(i + 1 < cap_change_times_.size() ? cap_change_times_[i + 1] : t1_s, t1_s);
    if (seg_end <= seg_start) continue;
    integral += cap_values_[i] * (seg_end - seg_start);
    covered += seg_end - seg_start;
  }
  if (covered <= 0.0) return cap_values_.back();
  // Time before the first cap record is treated as running at the first
  // recorded cap (jobs start uncapped and the start is recorded).
  return integral / covered;
}

std::optional<EpochObservation> OnlineModeler::add_epoch_sample(double t_s, long epoch_count) {
  if (last_epoch_count_ < 0) {
    last_epoch_count_ = epoch_count;
    last_epoch_time_s_ = t_s;
    return std::nullopt;
  }
  if (epoch_count <= last_epoch_count_) return std::nullopt;

  const long delta_epochs = epoch_count - last_epoch_count_;
  const double span = t_s - last_epoch_time_s_;
  if (span < config_.min_span_s) {
    // Too fine-grained to attribute; wait for more epochs to accumulate.
    return std::nullopt;
  }
  EpochObservation obs;
  obs.t_start_s = last_epoch_time_s_;
  obs.t_end_s = t_s;
  obs.epochs = delta_epochs;
  obs.sec_per_epoch = span / static_cast<double>(delta_epochs);
  obs.avg_cap_w = average_cap_over(last_epoch_time_s_, t_s);
  const auto [cap_lo, cap_hi] = cap_range_over(last_epoch_time_s_, t_s);
  obs.cap_min_w = cap_lo;
  obs.cap_max_w = cap_hi;
  obs.mixed_cap = cap_hi - cap_lo > config_.max_cap_spread_w;

  last_epoch_count_ = epoch_count;
  last_epoch_time_s_ = t_s;

  if (observations_seen_ < config_.skip_observations) {
    ++observations_seen_;
    return std::nullopt;
  }
  ++observations_seen_;
  observations_.push_back(obs);
  if (observations_.size() > config_.max_observations) {
    observations_.erase(observations_.begin(),
                        observations_.begin() +
                            static_cast<long>(observations_.size() - config_.max_observations));
  }
  window_changed();
  epochs_since_train_ += delta_epochs;
  maybe_detect_phase_change();
  maybe_retrain();
  return obs;
}

void OnlineModeler::maybe_detect_phase_change() {
  if (config_.phase_shift_threshold <= 0.0) return;
  if (observations_.size() < config_.phase_window * 3) return;

  // Split clean observations into "recent" (the newest phase_window) and
  // "older"; compare pooled rates per cap bucket that appears in both.
  // The recent window starts at observations_[split]: from there on lie
  // exactly phase_window clean spans.
  std::size_t clean = 0;
  std::size_t split = observations_.size();
  for (std::size_t i = observations_.size(); i-- > 0;) {
    if (observations_[i].mixed_cap) continue;
    if (++clean == config_.phase_window) split = i;
  }
  if (clean < config_.phase_window * 3) return;
  const std::span<const EpochObservation> window(observations_);
  aggregate_by_cap(window.first(split), older_pool_, 5.0, true);
  aggregate_by_cap(window.subspan(split), recent_pool_, 5.0, true);

  for (const CapAggregate& n : recent_pool_) {
    for (const CapAggregate& o : older_pool_) {
      if (std::abs(n.cap_w - o.cap_w) > 5.0) continue;
      if (o.sec_per_epoch <= 0.0) continue;
      const double shift = std::abs(n.sec_per_epoch - o.sec_per_epoch) / o.sec_per_epoch;
      if (shift > config_.phase_shift_threshold) {
        // The job changed behavior: everything before the recent window
        // describes a previous phase.  Keep only the recent clean evidence.
        observations_.erase(observations_.begin(),
                            observations_.begin() + static_cast<long>(split));
        std::erase_if(observations_, [](const EpochObservation& obs) { return obs.mixed_cap; });
        window_changed();
        fitted_ = false;  // any previous refit described the old phase
        epochs_since_train_ = 0;
        ++phase_changes_;
        static auto& phase_changes =
            telemetry::MetricsRegistry::global().counter("job.modeler.phase_changes");
        phase_changes.inc();
        return;
      }
    }
  }
}

void OnlineModeler::maybe_retrain() {
  if (epochs_since_train_ < config_.retrain_epochs) return;
  if (retrain()) epochs_since_train_ = 0;
}

std::pair<double, double> OnlineModeler::cap_range_over(double t0_s, double t1_s) const {
  if (cap_values_.empty()) return {workload::kNodeMaxCapW, workload::kNodeMaxCapW};
  double lo = 0.0;
  double hi = 0.0;
  bool found = false;
  for (std::size_t i = 0; i < cap_change_times_.size(); ++i) {
    // Segment i covers [change_time[i], change_time[i+1]).
    const double seg_start = cap_change_times_[i];
    const double seg_end =
        i + 1 < cap_change_times_.size() ? cap_change_times_[i + 1] : t1_s + 1.0;
    const bool overlaps = seg_start < t1_s && seg_end > t0_s;
    // The segment active at t0 also counts even if it began earlier.
    const bool active_at_start = seg_start <= t0_s && seg_end > t0_s;
    if (!overlaps && !active_at_start) continue;
    if (!found) {
      lo = hi = cap_values_[i];
      found = true;
    } else {
      lo = std::min(lo, cap_values_[i]);
      hi = std::max(hi, cap_values_[i]);
    }
  }
  if (!found) {
    const double last = cap_values_.back();
    return {last, last};
  }
  return {lo, hi};
}

bool OnlineModeler::retrain() {
  static auto& attempts =
      telemetry::MetricsRegistry::global().counter("job.modeler.refit_attempts");
  static auto& accepted =
      telemetry::MetricsRegistry::global().counter("job.modeler.refit_accepted");
  static auto& fit_r2 = telemetry::MetricsRegistry::global().gauge("job.modeler.fit_r2");
  static auto& fit_error =
      telemetry::MetricsRegistry::global().gauge("job.modeler.refit_error");
  attempts.inc();
  if (clean_observation_count() < config_.min_fit_observations) {
    static auto& too_few = refit_rejected_counter("too_few_observations");
    too_few.inc();
    return false;
  }
  // Fit against cap-pooled rates (quantization-free), weighting each cap
  // level by the epochs observed there.
  fit_caps_.clear();
  fit_times_.clear();
  for (const CapAggregate& aggregate : clean_pool()) {
    fit_caps_.push_back(aggregate.cap_w);
    fit_times_.push_back(aggregate.sec_per_epoch);
  }
  // Not enough cap diversity yet (e.g. the job has run under a single cap
  // so far): keep serving the current model.  Most refit attempts end
  // here, so this is checked up front rather than caught from fit.
  if (!PowerPerfModel::has_distinct_caps(fit_caps_)) {
    count_numerical_rejection();
    return false;
  }
  try {
    PowerPerfModel refit =
        PowerPerfModel::fit(fit_caps_, fit_times_, config_.fit_p_min_w, config_.fit_p_max_w);
    // Reject non-physical fits (time increasing with power) — noise at
    // nearly identical caps can produce them.
    if (refit.time_at(refit.p_min_w()) + 1e-12 < refit.time_at(refit.p_max_w())) {
      static auto& non_physical = refit_rejected_counter("non_physical");
      non_physical.inc();
      return false;
    }
    // Reject poorly conditioned fits: observations clustered at one or
    // two caps produce wild quadratics with near-zero R².
    if (refit.r2() < config_.min_r2) {
      static auto& low_r2 = refit_rejected_counter("low_r2");
      low_r2.inc();
      return false;
    }
    // Reject fits that do not actually explain the raw observations —
    // per-cap pooling can average mutually contradictory spans into
    // innocuous-looking points.
    double raw_error = 0.0;
    std::size_t counted = 0;
    for (const EpochObservation& obs : observations_) {
      if (obs.mixed_cap || obs.sec_per_epoch <= 0.0) continue;
      raw_error += std::abs(refit.time_at(obs.avg_cap_w) - obs.sec_per_epoch) /
                   obs.sec_per_epoch;
      ++counted;
    }
    const double mean_error =
        counted > 0 ? raw_error / static_cast<double>(counted) : 0.0;
    if (counted == 0 || mean_error > config_.max_refit_error) {
      static auto& high_error = refit_rejected_counter("high_refit_error");
      high_error.inc();
      return false;
    }
    model_ = refit;
    fitted_ = true;
    ++revision_;
    accepted.inc();
    fit_r2.set(refit.r2());
    fit_error.set(mean_error);
    return true;
  } catch (const util::NumericalError&) {
    // A singular system despite distinct caps.
    count_numerical_rejection();
    return false;
  }
}

}  // namespace anor::model
