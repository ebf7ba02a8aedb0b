// Online job-tier power modeler (paper Sec. 4.2, Fig. 2).
//
// One modeler runs per job, next to the GEOPM endpoint.  It receives epoch
// counts from the agent, records the time since the last epoch update and
// the average power cap applied over that span, and refits
// T = A·P² + B·P + C whenever at least `retrain_epochs` new epochs have
// accumulated.  Until a fit exists it serves a default model.  All samples
// are timestamped because the tiers run their control loops at different
// rates (the asynchrony challenge of Sec. 7.2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "model/perf_model.hpp"

namespace anor::model {

struct ModelerConfig {
  /// Minimum new epochs between refits (the paper retrains every >= 10).
  long retrain_epochs = 10;
  /// Epoch deltas accumulate until the span reaches this length before an
  /// observation is cut.  Epoch completions are only visible at the
  /// agent's sampling grid, so short spans carry quantization error that
  /// systematically favors faster-looking models; 4 s spans amortize a
  /// 0.5 s sampling period to a few percent (the "many samples" lesson of
  /// paper Sec. 7.2).
  double min_span_s = 4.0;
  /// Keep at most this many observations (sliding window).
  std::size_t max_observations = 512;
  /// Cap range refitted models are valid over.  This is the *platform's*
  /// cap range, not the initial model's power range — a misclassified job
  /// may turn out to reach power levels its assumed class never could.
  double fit_p_min_w = workload::kNodeMinCapW;
  double fit_p_max_w = workload::kNodeMaxCapW;
  /// Reject refits whose training R² falls below this (the paper's
  /// precharacterized fits score 0.84-0.99; an online fit worse than this
  /// is noise and must not replace the served model).
  double min_r2 = 0.70;
  /// Discard this many leading observations: the first epoch spans are
  /// polluted by job setup (low-power, epoch-free time).
  std::size_t skip_observations = 1;
  /// Refuse to fit on fewer clean observations than this — a quadratic
  /// through 3-4 points explains anything.
  std::size_t min_fit_observations = 6;
  /// A span whose cap wandered by more than this is marked mixed.
  double max_cap_spread_w = 6.0;
  /// Reject refits whose mean relative error against the raw (unpooled)
  /// clean observations exceeds this — pooling can hide within-bucket
  /// garbage that R² on the pooled points cannot see.
  double max_refit_error = 0.15;

  /// Phase-change handling (paper Sec. 8: jobs with several power-
  /// sensitivity profiles).  When the newest observations at a cap level
  /// disagree with the older pooled rate at the same level by more than
  /// this relative shift, the job's behavior changed: stale observations
  /// are discarded so models refit against the current phase only.
  /// 0 disables detection.
  double phase_shift_threshold = 0.25;
  /// Newest observations compared against the older pool.
  std::size_t phase_window = 3;
};

/// One (average cap, seconds per epoch) observation.
struct EpochObservation {
  double avg_cap_w = 0.0;
  double sec_per_epoch = 0.0;
  double t_start_s = 0.0;
  double t_end_s = 0.0;
  long epochs = 0;
  /// Cap extremes over the span.  When they differ by more than the
  /// modeler's tolerance the epochs mixed materially different speeds and
  /// the observation is unreliable for fitting (Sec. 7.2's asynchrony
  /// problem); small closed-loop nudges are tolerated.
  double cap_min_w = 0.0;
  double cap_max_w = 0.0;
  bool mixed_cap = false;
};

/// Observations pooled per cap level.  Individual epoch spans carry heavy
/// sampling quantization (an agent only reports epoch counts on its
/// control grid, so a 4 s span holds "2 or 3" epochs, never 2.7); pooling
/// all spans at one cap — total time over total epochs — recovers the
/// true rate.  Model-vs-observation comparisons and refits consume these.
struct CapAggregate {
  double cap_w = 0.0;         // epoch-weighted mean cap of the bucket
  double sec_per_epoch = 0.0; // total span / total epochs
  long epochs = 0;
  long key = 0;               // bucket index: lround(cap / bucket width)
};

/// Pool observations with epochs into cap buckets of the given width,
/// replacing the contents of `pool` (a buffer the caller keeps, so
/// repeated pooling does not allocate).  Buckets come out sorted by key,
/// and each sums its observations in input order.  `clean_only` skips
/// mixed-cap spans, so the modeler's whole window pools as its clean
/// observations would.
void aggregate_by_cap(std::span<const EpochObservation> observations,
                      std::vector<CapAggregate>& pool, double bucket_w = 5.0,
                      bool clean_only = false);

class OnlineModeler {
 public:
  OnlineModeler(PowerPerfModel initial_model, ModelerConfig config = {});

  /// Record that the cap changed at virtual time t (used to compute the
  /// average cap over each epoch span).  Must be called whenever the
  /// budgeter issues a new cap.
  void record_cap(double t_s, double cap_w);

  /// Feed a timestamped epoch-count sample from the endpoint.  Returns
  /// the new observation if this sample closed out one or more epochs.
  std::optional<EpochObservation> add_epoch_sample(double t_s, long epoch_count);

  /// The model currently served to the cluster tier.
  const PowerPerfModel& model() const { return model_; }

  /// True once at least one successful refit replaced the initial model.
  bool has_fitted_model() const { return fitted_; }

  std::size_t observation_count() const { return observations_.size(); }
  /// The observation window; spans marked mixed_cap are unsafe to fit
  /// against and are skipped wherever the window is pooled.
  const std::vector<EpochObservation>& observations() const { return observations_; }

  /// The window's clean spans pooled by cap (aggregate_by_cap with
  /// clean_only), rebuilt at the first read after the window changes.
  /// Refits and the endpoint's feedback scoring both read it.
  std::span<const CapAggregate> clean_pool();
  /// Clean (single-cap) spans in the window.
  std::size_t clean_observation_count();
  /// Changes whenever the window or the served model does, so callers can
  /// keep what they computed from clean_pool() and model() until then.
  std::uint64_t revision() const { return revision_; }

  /// Force a refit attempt now (normally triggered automatically).
  /// Returns true if the model was replaced.
  bool retrain();

  /// Number of phase changes detected so far (observation-window resets).
  int phase_changes_detected() const { return phase_changes_; }

 private:
  void maybe_retrain();
  void maybe_detect_phase_change();
  /// Mark the window changed: the clean pool is stale.
  void window_changed();
  double average_cap_over(double t0_s, double t1_s) const;
  /// Min/max cap over a window (first = min, second = max).
  std::pair<double, double> cap_range_over(double t0_s, double t1_s) const;

  PowerPerfModel model_;
  ModelerConfig config_;
  bool fitted_ = false;

  // Cap history as step function: (time, cap) change points.
  std::vector<double> cap_change_times_;
  std::vector<double> cap_values_;

  long last_epoch_count_ = -1;
  double last_epoch_time_s_ = 0.0;
  long epochs_since_train_ = 0;
  std::size_t observations_seen_ = 0;
  int phase_changes_ = 0;

  std::vector<EpochObservation> observations_;
  std::uint64_t revision_ = 0;
  // The clean pool and its clean-span count, valid while !pool_stale_.
  std::vector<CapAggregate> clean_pool_;
  std::size_t clean_count_ = 0;
  bool pool_stale_ = true;
  // Phase-check and fitting scratch, reused across calls.
  std::vector<CapAggregate> older_pool_;
  std::vector<CapAggregate> recent_pool_;
  std::vector<double> fit_caps_;
  std::vector<double> fit_times_;
};

}  // namespace anor::model
