#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "telemetry/prof/prof.hpp"
#include "util/add_repeated.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace anor::sim {

TabularSimulator::TabularSimulator(SimConfig config, workload::Schedule schedule,
                                   util::Rng rng)
    : TabularSimulator(std::move(config), std::move(schedule), rng, nullptr) {}

TabularSimulator::TabularSimulator(SimConfig config, workload::Schedule schedule,
                                   util::Rng rng, WarmStart* warm)
    : config_(std::move(config)),
      schedule_(std::move(schedule)),
      rng_(rng),
      // Adopt the pooled table's allocations when one is offered; reset()
      // below restores exact fresh-construction state either way.
      nodes_(warm != nullptr && warm->nodes != nullptr ? std::move(*warm->nodes)
                                                       : NodeTable(config_.node_count)),
      scheduler_([&] {
        sched::SchedulerConfig sc;
        sc.cluster_nodes = config_.node_count;
        sc.queue_weights = config_.queue_weights;
        sc.power_aware_admission = config_.power_aware_admission;
        sc.backfill = config_.backfill;
        sc.single_queue = config_.single_queue;
        if (config_.backfill) {
          // Estimate with the type's unconstrained execution time.
          auto types = config_.job_types;
          sc.runtime_estimate = [types](const std::string& name) {
            for (const auto& t : types) {
              if (t.name == name) return t.time_at_pmax_s;
            }
            return 600.0;
          };
        }
        return sc;
      }()),
      completion_queue_(kCompletionHorizonSteps * config_.step_s) {
  if (config_.job_types.empty()) throw util::ConfigError("TabularSimulator: no job types");
  nodes_.reset(config_.node_count);
  budgeter_ = budget::instrument_budgeter(config_.budgeter_factory());

  for (std::size_t i = 0; i < config_.job_types.size(); ++i) {
    type_index_by_name_.emplace(config_.job_types[i].name, static_cast<int>(i));
  }

  // Budgeter-facing models, one per type (the *classified* type indexes
  // into these).  The fit is a pure function of the type fields, so a
  // warm pool fitted for an equal type vector supplies identical models.
  if (warm != nullptr && warm->job_types == config_.job_types) {
    type_models_ = warm->type_models;
  } else {
    type_models_.reserve(config_.job_types.size());
    for (const SimJobType& t : config_.job_types) type_models_.push_back(t.budget_model());
    if (warm != nullptr) {
      warm->job_types = config_.job_types;
      warm->type_models = type_models_;
    }
  }

  // Node-to-node performance variation, fixed for the simulation's
  // lifetime (paper Sec. 5.6).  The draws depend only on the stream seed,
  // sigma, and node count, so a warm pool that drew the same triple
  // replays its column instead of re-sampling O(nodes) truncated normals.
  if (config_.perf_variation_sigma > 0.0) {
    util::Rng node_rng = rng_.child("node-variation");
    const bool pooled = warm != nullptr && warm->perf_nodes == config_.node_count &&
                        warm->perf_sigma == config_.perf_variation_sigma &&
                        warm->perf_stream_seed == node_rng.seed() &&
                        warm->perf_multipliers.size() ==
                            static_cast<std::size_t>(config_.node_count);
    if (pooled) {
      nodes_.set_perf_multipliers(warm->perf_multipliers);
    } else {
      if (warm != nullptr) {
        warm->perf_multipliers.clear();
        warm->perf_multipliers.reserve(static_cast<std::size_t>(config_.node_count));
      }
      for (int n = 0; n < config_.node_count; ++n) {
        const double mult =
            node_rng.truncated_normal(1.0, config_.perf_variation_sigma, 0.5, 1.5);
        nodes_.set_perf_multiplier(n, mult);
        if (warm != nullptr) warm->perf_multipliers.push_back(mult);
      }
      if (warm != nullptr) {
        warm->perf_stream_seed = node_rng.seed();
        warm->perf_sigma = config_.perf_variation_sigma;
        warm->perf_nodes = config_.node_count;
      }
    }
  }

  // Idle nodes draw idle power from t=0.
  nodes_.set_idle_power_w(config_.idle_power_w);

  if (config_.telemetry_enabled) {
    auto& registry = telemetry::MetricsRegistry::global();
    metrics_.ticks = &registry.counter("sim.ticks");
    metrics_.power = &registry.gauge("sim.power_w");
    metrics_.running = &registry.gauge("sim.running_jobs");
  }

  std::sort(schedule_.jobs.begin(), schedule_.jobs.end(),
            [](const workload::JobRequest& a, const workload::JobRequest& b) {
              return a.submit_time_s < b.submit_time_s;
            });
  jobs_.reserve(schedule_.jobs.size());
  result_.jobs_submitted = static_cast<int>(schedule_.jobs.size());
  result_.completed.reserve(schedule_.jobs.size());
  result_.qos.reserve(schedule_.jobs.size());
}

void TabularSimulator::recycle(WarmStart& warm) {
  if (warm.nodes == nullptr) {
    warm.nodes = std::make_unique<NodeTable>(std::move(nodes_));
  } else {
    *warm.nodes = std::move(nodes_);
  }
}

int TabularSimulator::type_index(const std::string& name) const {
  const auto it = type_index_by_name_.find(name);
  if (it == type_index_by_name_.end()) {
    throw util::ConfigError("TabularSimulator: unknown job type '" + name + "'");
  }
  return it->second;
}

double TabularSimulator::current_target_w() const {
  return config_.power_targets.empty() ? 0.0 : config_.power_targets.sample_at(now_s_);
}

void TabularSimulator::set_row_cap(std::size_t row_index, double cap_w) {
  if (nodes_.row_cap_w(row_index) == cap_w) return;
  nodes_.set_row_cap(row_index, cap_w);
  queue_row_refresh(row_index);
}

void TabularSimulator::queue_row_refresh(std::size_t row_index) {
  JobRow& row = jobs_.row(row_index);
  if (row.cap_queued) return;
  row.cap_queued = true;
  pending_rows_.push_back(row_index);
}

template <class F>
bool TabularSimulator::every_lane(const JobRow& row, F&& f) const {
  if (row.lane >= 0) return f(row.lane, row.nodes.front());
  for (int n : row.nodes) {
    if (!f(nodes_.lane(n), n)) return false;
  }
  return true;
}

void TabularSimulator::refresh_lanes() {
  // progress_rate is a pure function of the type and the cap, and the
  // budgeter gives every job of a model group one cap, so a refresh asks
  // for few distinct pairs: remember the last cap per real type and its
  // rate.
  struct RateMemo {
    std::uint64_t cap_bits = 0;
    double rate = 0.0;
    bool valid = false;
  };
  std::vector<RateMemo> memo(config_.job_types.size());
  for (std::size_t i = 0; i < pending_rows_.size(); ++i) {
    JobRow& row = jobs_.row(pending_rows_[i]);
    const double cap_w = nodes_.row_cap_w(pending_rows_[i]);
    RateMemo& m = memo[static_cast<std::size_t>(row.type_index)];
    if (!m.valid || m.cap_bits != std::bit_cast<std::uint64_t>(cap_w)) {
      m = {std::bit_cast<std::uint64_t>(cap_w), job_type(row).progress_rate(cap_w), true};
    }
    const double row_rate = m.rate;
    // Multiply by the lane's precomputed reciprocal instead of dividing.
    // With no performance variation the multiplier is exactly 1.0 and the
    // product is the unscaled rate bit for bit.
    every_lane(row, [&](int lane, int) {
      nodes_.set_lane_rate(lane, row_rate * nodes_.lane_inv_multiplier(lane));
      return true;
    });
    repredict_row_completion(row);
    row.cap_queued = false;
    // Re-key the completion queue from the new prediction.  The queue
    // keeps its own copy of each key, so its heap order never sees a
    // prediction change under it.  Rows become pending only in the
    // control phase, which follows the tick's completions, so a finished
    // row never re-enters the queue.
    if (row.started() && !row.finished()) {
      completion_queue_.set(pending_rows_[i], row.earliest_done_s);
    }
  }
}

void TabularSimulator::repredict_row_completion(JobRow& row) {
  // Rates are constant until the next cap event, so "all lanes reach
  // progress 1" cannot happen before now + max remaining time.  The
  // margin (relative 1e-9 plus two steps) covers the rounding drift of
  // the additive progress accumulation; the completion scan still does
  // the exact per-lane test once the skip window closes.  The prediction
  // is a conservative gate, never hashed.
  if (!row.started() || row.finished()) return;
  double max_remaining_s = 0.0;
  every_lane(row, [&](int lane, int) {
    const double remaining = 1.0 - nodes_.lane_progress(lane);
    if (remaining <= 0.0) return true;
    const double rate = nodes_.lane_rate(lane);
    if (rate <= 0.0) {
      max_remaining_s = std::numeric_limits<double>::infinity();
      return false;
    }
    max_remaining_s = std::max(max_remaining_s, remaining / rate);
    return true;
  });
  row.earliest_done_s = now_s_ + max_remaining_s * (1.0 - 1e-9) - 2.0 * config_.step_s;
}

void TabularSimulator::refresh_rows() {
  ANOR_PROF_SCOPE("sim.refresh");
  // Power sources move here and nowhere else, which is what makes a new
  // cap take effect one tick late and a released node show its job's
  // power for the tick it finished (and, when a job started on it in the
  // same tick, until this refresh).  A finished row's nodes that are
  // still idle draw idle power; a started row's nodes draw its power.
  for (std::size_t row_index : finished_rows_) {
    nodes_.draw_idle_power(jobs_.row(row_index).nodes);
  }
  for (std::size_t row_index : started_rows_) {
    nodes_.draw_row_power(row_index, jobs_.row(row_index).nodes);
  }
  for (std::size_t row_index : pending_rows_) {
    nodes_.set_row_power(row_index,
                         job_type(jobs_.row(row_index)).power_at(nodes_.row_cap_w(row_index)));
  }

  refresh_lanes();
  pending_rows_.clear();
  started_rows_.clear();
  finished_rows_.clear();
}

void TabularSimulator::flush_sweep() {
  if (sweep_lag_ == 0) return;
  const long lag = sweep_lag_;
  sweep_lag_ = 0;
  const int count = nodes_.lane_end();
  // No span of its own: the engine.node_update component span covers this
  // sweep (minus sim.refresh, which is recorded separately), and an extra
  // span here would eat the profiler-overhead budget.
  nodes_.advance_progress_batch(0, count, config_.step_s, lag);
}

double TabularSimulator::virtual_progress(int lane) const {
  double p = nodes_.lane_progress(lane);
  if (sweep_lag_ > 0) {
    const double d = nodes_.lane_rate(lane) * config_.step_s;
    // Replay the owed per-step additions exactly (see
    // NodeTable::advance_progress_batch); d == 0 adds nothing.
    if (d != 0.0) {
      for (long k = 0; k < sweep_lag_; ++k) p += d;
    }
  }
  return p;
}

void TabularSimulator::update_nodes(double dt_s) {
  if (!pending_rows_.empty() || !finished_rows_.empty()) {
    // A row event is about to rewrite rates: settle every owed substep at
    // the old rates first, exactly where the per-tick sweep would have
    // applied them.
    flush_sweep();
    refresh_rows();
  }
  busy_node_seconds_ += static_cast<double>(nodes_.busy_count()) * dt_s;
  // This tick's substep is owed from here on; it is applied by the next
  // flush (or replayed virtually by readers before then).
  sweep_lag_ += 1;
}

void TabularSimulator::complete_finished_jobs() {
  // Only the rows predicted done by now are tested (none, on most ticks):
  // every other running row would fail the prediction gate of a full scan
  // of the running set, so visiting only these cannot change the trace.
  finished_scratch_.clear();
  completion_queue_.for_each_due(now_s_, [&](std::size_t i) {
    // Progress through *this* tick, with owed substeps replayed virtually
    // — the freed lanes below are zeroed anyway, so the table itself need
    // not be flushed to decide completion.
    if (every_lane(jobs_.row(i),
                   [&](int lane, int) { return virtual_progress(lane) >= 1.0; })) {
      finished_scratch_.push_back(i);
    }
  });
  if (finished_scratch_.empty()) return;
  ANOR_PROF_SCOPE("sim.complete");
  // Ascending row order, as a scan of the running set finds them: the
  // result records and the scheduler's releases follow it.
  std::sort(finished_scratch_.begin(), finished_scratch_.end());
  for (std::size_t i : finished_scratch_) completion_queue_.erase(i);
  jobs_.mark_finished(finished_scratch_, now_s_);
  for (std::size_t i : finished_scratch_) {
    const JobRow& row = jobs_.row(i);
    const SimJobType& type = job_type(row);
    // A row event: the lanes free now, the nodes' idle power waits for
    // the next refresh.
    nodes_.finish_row(row.nodes);
    finished_rows_.push_back(i);
    busy_floor_w_ = util::add_repeated(busy_floor_w_, -type.p_min_w,
                                       static_cast<std::int64_t>(row.nodes.size()));
    scheduler_.job_finished(type.name, static_cast<int>(row.nodes.size()));
    ++result_.jobs_completed;

    // The shared per-job record, filled with what the linear model knows.
    engine::CompletedJob completed;
    completed.request.job_id = row.job_id;
    completed.request.type_name = type.name;
    if (row.classified_index != row.type_index) {
      completed.request.classified_as =
          config_.job_types[static_cast<std::size_t>(row.classified_index)].name;
    }
    completed.request.submit_time_s = row.submit_s;
    completed.request.nodes = static_cast<int>(row.nodes.size());
    completed.submit_s = row.submit_s;
    completed.start_s = row.start_s;
    completed.end_s = row.end_s;
    completed.reference_runtime_s = type.time_at_pmax_s;
    completed.report.runtime_s = row.end_s - row.start_s;
    result_.completed.push_back(std::move(completed));

    sched::JobQosRecord record;
    record.job_id = row.job_id;
    record.type_name = type.name;
    record.submit_s = row.submit_s;
    record.start_s = row.start_s;
    record.end_s = row.end_s;
    record.t_min_s = type.time_at_pmax_s;
    result_.qos.add(std::move(record));
  }
}

void TabularSimulator::admit_arrivals() {
  const auto arrived = [this] {
    return next_arrival_ < schedule_.jobs.size() &&
           schedule_.jobs[next_arrival_].submit_time_s <= now_s_;
  };
  // Most ticks admit nothing; a span is opened only on ticks that do.
  if (!arrived()) return;
  ANOR_PROF_SCOPE("sim.arrivals");
  while (arrived()) {
    const workload::JobRequest& req = schedule_.jobs[next_arrival_];
    JobRow row;
    row.job_id = req.job_id;
    row.type_index = type_index(req.type_name);
    row.classified_index = type_index(req.effective_class());
    row.submit_s = req.submit_time_s;
    const int real_type = row.type_index;
    jobs_.add(std::move(row));
    // The scheduler sees the instance's real node demand (the type's
    // default unless the request overrides it).
    workload::JobRequest for_queue = req;
    if (for_queue.nodes <= 0) {
      for_queue.nodes = config_.job_types[static_cast<std::size_t>(real_type)].nodes;
    }
    scheduler_.submit(for_queue, now_s_);
    ++next_arrival_;
  }
}

double TabularSimulator::projected_qos(std::size_t row_index) const {
  // Computed from the cap as written (not the cached rates): inside a
  // control tick, freshly started rows carry stale rates until the next
  // node-update phase.
  const JobRow& row = jobs_.row(row_index);
  const SimJobType& type = job_type(row);
  const double row_rate = type.progress_rate(nodes_.row_cap_w(row_index));
  double worst_end = now_s_;
  const bool finite = every_lane(row, [&](int lane, int node) {
    const double progress = nodes_.lane_progress(lane);
    if (progress >= 1.0) return true;
    const double rate = row_rate / nodes_.perf_multiplier(node);
    if (rate <= 0.0) return false;
    worst_end = std::max(worst_end, now_s_ + (1.0 - progress) / rate);
    return true;
  });
  if (!finite) return std::numeric_limits<double>::infinity();
  const double t_min = type.time_at_pmax_s;
  return t_min > 0.0 ? (worst_end - row.submit_s - t_min) / t_min : 0.0;
}

void TabularSimulator::schedule_and_cap() {
  // No span of its own: the engine.control component span is this
  // function wall-for-wall.  sched.schedule, sim.start, budget.profiles,
  // budget.solve and budget.apply split it; what is left in
  // engine.control's self time is the scheduler view and the loop glue.
  //
  // Only these two variants read node progress during control; the common
  // path leaves the owed substeps lazy (assignments zero their nodes'
  // progress, and a zero-rate node accrues exactly zero either way).
  if (config_.backfill || config_.protect_at_risk_jobs) flush_sweep();
  // --- scheduling ---
  sched::SchedulerView view;
  view.free_nodes = nodes_.idle_count();
  view.power_target_w = current_target_w();
  // Floor power today: busy nodes cannot go below their job's p_min (the
  // incrementally maintained busy_floor_w_); idle nodes draw idle power.
  view.min_feasible_power_w =
      static_cast<double>(nodes_.idle_count()) * config_.idle_power_w + busy_floor_w_;
  view.per_node_floor_increase_w = workload::kNodeMinCapW - config_.idle_power_w;
  view.now_s = now_s_;
  if (config_.backfill) {
    // Cached rates are valid here: every running job's nodes were
    // refreshed in this step's node-update phase, and no caps have been
    // rewritten yet this control tick.
    for (std::size_t i : jobs_.running()) {
      const JobRow& row = jobs_.row(i);
      double worst_end = now_s_;
      every_lane(row, [&](int lane, int) {
        const double rate = nodes_.lane_rate(lane);
        if (rate > 0.0) {
          worst_end = std::max(worst_end, now_s_ + (1.0 - nodes_.lane_progress(lane)) / rate);
        }
        return true;
      });
      view.projected_releases.emplace_back(worst_end, static_cast<int>(row.nodes.size()));
    }
  }

  std::vector<workload::JobRequest> to_start;
  {
    ANOR_PROF_SCOPE("sched.schedule");
    to_start = scheduler_.schedule(view);
  }
  if (!to_start.empty()) {
    ANOR_PROF_SCOPE("sim.start");
    for (const workload::JobRequest& req : to_start) {
      // A row event: the job takes the lowest-numbered idle nodes, opens
      // its lanes and writes its cap; its nodes keep drawing their old
      // power until the next refresh, which every start queues (even when
      // the start cap equals the row's initial 0).  The refresh also puts
      // the row on the completion queue.
      const std::size_t row_index = jobs_.index_of(req.job_id);
      JobRow& row = jobs_.row(row_index);
      jobs_.mark_started(row_index, now_s_);
      const SimJobType& type = job_type(row);
      row.nodes.clear();
      nodes_.lowest_idle_nodes(req.nodes, row.nodes);
      busy_floor_w_ = util::add_repeated(busy_floor_w_, type.p_min_w,
                                         static_cast<std::int64_t>(row.nodes.size()));
      row.lane = nodes_.start_row(row_index, req.job_id, row.nodes);
      started_rows_.push_back(row_index);
      // Start at the type's max power until the budgeter runs.
      set_row_cap(row_index, type.p_max_w);
      queue_row_refresh(row_index);
    }
  }

  apply_budget();
}

void TabularSimulator::apply_budget() {
  const double target = current_target_w();
  const std::vector<std::size_t>& running = jobs_.running();
  if (running.empty()) return;

  if (target <= 0.0) {
    // No tracking: run everything uncapped.
    for (std::size_t i : running) {
      const JobRow& row = jobs_.row(i);
      set_row_cap(i, config_.job_types[static_cast<std::size_t>(row.type_index)].p_max_w);
    }
    return;
  }

  // profiles_[k] describes row budget_rows_[k]; the budgeter's caps come
  // back in the same positions.  Both scratch vectors keep their capacity
  // across ticks.  Returns what the budget leaves for the profiled jobs.
  const double budget = [&] {
    ANOR_PROF_SCOPE("budget.profiles");
    double jobs_budget = target - nodes_.idle_count() * config_.idle_power_w;
    profiles_.clear();
    budget_rows_.clear();
    for (std::size_t i : running) {
      const JobRow& row = jobs_.row(i);
      if (config_.protect_at_risk_jobs) {
        const SimJobType& type = job_type(row);
        if (projected_qos(i) > config_.at_risk_fraction * type.qos_limit) {
          // Exempt from capping: gets max power off the top of the budget.
          // (projected_qos reads only this row's cap, so capping it here
          // cannot change a later row's verdict.)
          jobs_budget -= static_cast<double>(row.nodes.size()) * type.p_max_w;
          set_row_cap(i, type.p_max_w);
          continue;
        }
      }
      budget::JobPowerProfile profile;
      profile.job_id = row.job_id;
      profile.nodes = static_cast<int>(row.nodes.size());
      profile.model = type_models_[static_cast<std::size_t>(row.classified_index)];
      // Every job classified as one type carries that type's model.
      profile.model_key = row.classified_index;
      profiles_.push_back(profile);
      budget_rows_.push_back(i);
    }
    return jobs_budget;
  }();

  if (profiles_.empty()) return;
  const budget::BudgetResult result = budgeter_->distribute(profiles_, std::max(budget, 0.0));
  budget::require_cap_per_job(*budgeter_, result, profiles_.size());
  ANOR_PROF_SCOPE("budget.apply");
  for (std::size_t k = 0; k < budget_rows_.size(); ++k) {
    set_row_cap(budget_rows_[k], result.node_cap_w[k]);
  }
}

void TabularSimulator::set_table_log(std::ostream* out, int every_n_steps) {
  table_log_ = out;
  table_log_stride_ = std::max(1, every_n_steps);
}

void TabularSimulator::append_table_log() {
  if (table_log_ == nullptr || step_index_ % table_log_stride_ != 0) return;
  flush_sweep();  // the log snapshots the progress column
  // Format into one buffer and hand the stream a single write per logged
  // step instead of seven operator<< calls per node row.  %g matches the
  // default ostream precision-6 formatting byte for byte.
  log_buffer_.clear();
  char line[192];
  for (int n = 0; n < nodes_.size(); ++n) {
    const int len =
        std::snprintf(line, sizeof(line), "N,%g,%d,%d,%g,%g,%g\n", now_s_, n,
                      nodes_.job_id(n), nodes_.cap_w(n), nodes_.power_w(n),
                      nodes_.progress(n));
    if (len > 0) log_buffer_.append(line, static_cast<std::size_t>(len));
  }
  const auto& rows = jobs_.rows();
  // Rows before log_skip_rows_ finished more than a step ago and were
  // already logged once; the cutoff only moves forward in time.
  while (log_skip_rows_ < rows.size() && rows[log_skip_rows_].finished() &&
         rows[log_skip_rows_].end_s < now_s_ - config_.step_s) {
    ++log_skip_rows_;
  }
  for (std::size_t i = log_skip_rows_; i < rows.size(); ++i) {
    const JobRow& row = rows[i];
    if (row.finished() && row.end_s < now_s_ - config_.step_s) continue;  // log once
    const int len = std::snprintf(
        line, sizeof(line), "J,%g,%d,%s,%g,%g,%g\n", now_s_, row.job_id,
        config_.job_types[static_cast<std::size_t>(row.type_index)].name.c_str(),
        row.submit_s, row.start_s, row.end_s);
    if (len > 0) log_buffer_.append(line, static_cast<std::size_t>(len));
  }
  table_log_->write(log_buffer_.data(), static_cast<std::streamsize>(log_buffer_.size()));
}

void TabularSimulator::build_engine() {
  // Phase order is the paper's step loop (Sec. 5.6) and the determinism
  // contract: node update, completions, arrivals, the control cadence,
  // then the log.  The clock advances after the phases (kAdvanceLast) —
  // they see the tick's start time, as the hand-rolled loop's did.
  engine_ = std::make_unique<engine::DiscreteEngine>(
      config_.step_s, engine::DiscreteEngine::ClockMode::kAdvanceLast);
  engine_->add_component("node_update", 0.0, [this](double, double dt) {
    // First component of the tick: sync the clock/tick mirrors here so a
    // batched engine_->run() keeps every later phase seeing the tick-start
    // time, exactly as the per-step() loop did.  (kAdvanceLast: the
    // engine's clock still holds the tick's start during components.)
    now_s_ = engine_->now_s();
    step_index_ = engine_->step_index();
    if (config_.telemetry_enabled) metrics_.ticks->inc();
    update_nodes(dt);
  });
  // Completions, arrivals, and the log sampler are tens of ns on most
  // ticks — below the span clock's own cost — so they share one
  // "engine.housekeeping" span instead of paying a clock read each.  Only
  // a tick on which jobs finish opens a "sim.complete" child span.
  engine_->add_component(
      "complete_jobs", 0.0, [this](double, double) { complete_finished_jobs(); },
      engine::DiscreteEngine::SpanMode::kHousekeeping);
  engine_->add_component(
      "admit_arrivals", 0.0, [this](double, double) { admit_arrivals(); },
      engine::DiscreteEngine::SpanMode::kHousekeeping);
  engine_->add_component("control", config_.control_period_s,
                         [this](double, double) { schedule_and_cap(); });
  engine_->add_component(
      "log_sampler", 0.0,
      [this](double, double) {
        const double power_w = nodes_.total_power_w();
        result_.power_w.add(now_s_, power_w);
        if (!config_.power_targets.empty()) {
          result_.target_w.add(now_s_, config_.power_targets.sample_at(now_s_));
        }
        append_table_log();
        if (config_.telemetry_enabled) {
          metrics_.power->set(power_w);
          metrics_.running->set(static_cast<double>(jobs_.running_count()));
        }
        if (artifacts_ != nullptr) artifacts_->maybe_sample(now_s_);
      },
      engine::DiscreteEngine::SpanMode::kHousekeeping);
  engine_->set_stop_predicate([this](double now) {
    const bool horizon_passed = now >= config_.duration_s;
    const bool drained = next_arrival_ >= schedule_.jobs.size() &&
                         jobs_.running_count() == 0 && !scheduler_.has_pending();
    const bool hard_stop = now >= config_.duration_s * 4.0;
    return (horizon_passed && drained) || hard_stop;
  });
}

bool TabularSimulator::step() {
  if (done_) return false;
  if (engine_ == nullptr) build_engine();
  engine_->step();
  now_s_ = engine_->now_s();
  step_index_ = engine_->step_index();
  done_ = engine_->stopped();
  // Single-step callers inspect the tables between ticks: settle the owed
  // substeps so progress reads exactly as the per-tick sweep left it.
  flush_sweep();
  return !done_;
}

SimResult TabularSimulator::run() {
  if (result_taken_) {
    throw std::logic_error("TabularSimulator::run: the result was already handed over");
  }
  // Batched path: hand the whole loop to the engine.  Nothing observes the
  // tables between ticks, so the deferred sweep only settles at rate
  // events (and once here at the end) instead of every tick.
  if (!done_) {
    if (engine_ == nullptr) build_engine();
    engine_->run();
    now_s_ = engine_->now_s();
    step_index_ = engine_->step_index();
    done_ = true;
  }
  flush_sweep();
  result_.end_time_s = now_s_;
  if (!config_.power_targets.empty()) {
    engine::finalize_tracking(result_, config_.tracking_reserve_w, config_.tracking_warmup_s);
  }
  const double elapsed = std::max(now_s_, config_.step_s);
  result_.mean_utilization = busy_node_seconds_ / (elapsed * config_.node_count);
  result_taken_ = true;
  return std::move(result_);
}

TabularSimulator make_simulation(SimConfig config, const workload::DemandResponseBid& bid,
                                 double utilization, std::uint64_t seed) {
  util::Rng rng(seed);
  const util::Rng sim_rng = rng.child("sim");
  set_bid_targets(config, bid, sim_rng);
  std::vector<workload::JobType> gen_types;
  gen_types.reserve(config.job_types.size());
  for (const SimJobType& t : config.job_types) {
    workload::JobType gt;
    gt.name = t.name;
    gt.nodes = t.nodes;
    gt.base_epoch_s = t.time_at_pmax_s / 100.0;
    gt.epochs = 100;
    gen_types.push_back(std::move(gt));
  }
  workload::PoissonScheduleConfig sched_config;
  sched_config.duration_s = config.duration_s;
  sched_config.utilization = utilization;
  sched_config.cluster_nodes = config.node_count;
  workload::Schedule schedule =
      workload::generate_poisson_schedule(gen_types, sched_config, rng.child("schedule"));
  return TabularSimulator(std::move(config), std::move(schedule), sim_rng);
}

SimResult run_simulation(const SimConfig& config, const workload::DemandResponseBid& bid,
                         double utilization, std::uint64_t seed,
                         telemetry::RunArtifactWriter* artifacts) {
  TabularSimulator simulator = make_simulation(config, bid, utilization, seed);
  simulator.set_artifacts(artifacts);
  return simulator.run();
}

std::uint64_t trace_hash(const SimResult& result) {
  const std::vector<double>& power = result.power_w.values();
  std::uint64_t h =
      util::fnv1a(power.data(), power.size() * sizeof(double), util::kFnv1aRecordBasis);
  for (const sched::JobQosRecord& q : result.qos.records()) {
    h = util::fnv1a(&q.job_id, sizeof(q.job_id), h);
    h = util::fnv1a(&q.submit_s, sizeof(q.submit_s), h);
    h = util::fnv1a(&q.start_s, sizeof(q.start_s), h);
    h = util::fnv1a(&q.end_s, sizeof(q.end_s), h);
  }
  return h;
}

}  // namespace anor::sim
