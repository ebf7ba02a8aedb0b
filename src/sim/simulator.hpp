// The tabular cluster simulator's step loop (paper Sec. 5.6).
//
// "Each simulated second, the simulator updates the state of the node
// table, then updates the view of the cluster seen by the job scheduler
// and power manager, then schedules jobs and caps power.  The policy
// updates inputs to the node table that will be processed in the
// node-update stage of the next time step."
//
// Hot-path layout (see DESIGN.md "Performance model of the simulator"):
// each tick is one serial pass over the tables (DESIGN.md 6h: runs go
// parallel across a sweep's run workers, never within a tick); the node
// table keeps progress and rate per progress lane (the nodes of a job
// that share a multiplier: one lane per row without node variation) and
// cap and power per row; a job
// start, finish or cap change is a row event that the next node update
// refreshes, writing one rate per lane and one power per row;
// the running-job set / idle count / floor power / total power are
// maintained incrementally, the floor with one util::add_repeated call per
// start or finish and the total with one per run of nodes that share a
// power source, each bit for bit its per-node sum; a job start costs the
// job (an idle-bitmap hint, a lazily merged running set), the completion
// phase visits only the rows a completion queue ordered by predicted
// finish time says may be done, and the budgeter groups jobs by their
// classified type before it compares models; the per-tick progress
// sweep is *deferred* —
// ticks between two rate-change events owe one `rate * dt` substep each,
// and the owed substeps are flushed in one batched pass over the lanes
// (bit-identical to per-tick sweeps) right before anything reads or
// rewrites a rate.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include <iosfwd>

#include "engine/discrete_engine.hpp"
#include "engine/scenario.hpp"
#include "sched/aqa_scheduler.hpp"
#include "sched/qos.hpp"
#include "sim/sim_config.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/metrics.hpp"
#include "sim/tables.hpp"
#include "util/rng.hpp"
#include "util/time_series.hpp"
#include "workload/schedule.hpp"

namespace anor::sim {

/// Both backends share the engine's result schema; the old simulator-local
/// name remains as an alias.
using SimResult = engine::RunResult;

/// Pooled across-run resources for the sweep executor (DESIGN.md 6i).
///
/// A cold TabularSimulator construction pays for a NodeTable's column
/// allocations and one quadratic model fit per job type — neither of
/// which depends on the run's policy or signal.  A WarmStart carries
/// those across runs: the constructor takes what fits (table via
/// reset(), fitted models when the job-type vector compares equal) and
/// `recycle()` returns the reusable parts after run().  Reuse is
/// bit-invisible by construction — reset() restores exact fresh-table
/// state and equal job types fit identical models — and pinned by the
/// WarmStart parity tests.
struct WarmStart {
  std::unique_ptr<NodeTable> nodes;
  /// Signature for the fitted-model cache: models are valid for exactly
  /// this job-type vector (order included — the classified index points
  /// into it).
  std::vector<SimJobType> job_types;
  std::vector<model::PowerPerfModel> type_models;
  /// Node-variation multipliers are a pure function of the variation
  /// stream's seed, sigma, and node count — O(nodes) truncated-normal
  /// draws that every same-seed cell of a sweep would otherwise repeat.
  /// The cached column replays as plain writes when the triple matches.
  std::uint64_t perf_stream_seed = 0;
  double perf_sigma = 0.0;
  int perf_nodes = 0;
  std::vector<double> perf_multipliers;
};

class TabularSimulator {
 public:
  /// The schedule supplies arrivals; type names must exist in
  /// config.job_types (classified_as may name any type as well).
  TabularSimulator(SimConfig config, workload::Schedule schedule, util::Rng rng);

  /// Same, reusing whatever the warm pool can supply (see WarmStart).
  /// `warm` may be nullptr (cold) and is consumed: reused parts are moved
  /// out of it.  Call recycle(*warm) after run() to return them.
  TabularSimulator(SimConfig config, workload::Schedule schedule, util::Rng rng,
                   WarmStart* warm);

  /// Return the pooled resources to `warm` for the next run.  The
  /// simulator must not step again afterwards (its tables are moved out).
  void recycle(WarmStart& warm);

  /// Run to completion (duration plus drain of running jobs, bounded by
  /// 4x duration) and hand the result over by move.  Callable once: a
  /// second call throws std::logic_error.
  SimResult run();

  /// Single-step interface for tests: advance one step_s.  Returns false
  /// once the simulation is over.
  bool step();

  /// Append the node- and job-table state to the stream each step, as the
  /// paper's simulator does ("before starting the next iteration, we
  /// append the current state of all tables to a file", Sec. 5.6).  CSV:
  ///   N,<t>,<node>,<job_id>,<cap_w>,<power_w>,<progress>
  ///   J,<t>,<job_id>,<type>,<submit>,<start>,<end>
  /// The stream must outlive the simulator; pass nullptr to stop logging.
  /// `every_n_steps` thins the output (1 = every step).
  void set_table_log(std::ostream* out, int every_n_steps = 1);

  /// Sample the given artifact writer once per simulated second for the
  /// rest of the run.  The writer must outlive the simulator (or be
  /// detached with nullptr); the caller finalizes it.
  void set_artifacts(telemetry::RunArtifactWriter* artifacts) { artifacts_ = artifacts; }

  double now_s() const { return now_s_; }
  long steps_taken() const { return step_index_; }
  const NodeTable& node_table() const { return nodes_; }
  const JobTable& job_table() const { return jobs_; }
  const sched::AqaScheduler& scheduler() const { return scheduler_; }

 private:
  /// Register the simulator's phases on the shared engine (built lazily at
  /// the first step; the clock advances after the phases, so they see the
  /// tick's start time as before).
  void build_engine();
  /// The only cap write: sets the row's cap (one store) and queues the
  /// row for one rate/power refresh.  A write that does not change the
  /// row's cap returns at once (caps are rewritten every control period
  /// even when the budget is unchanged).
  void set_row_cap(std::size_t row_index, double cap_w);
  /// Queue the row for the next refresh, once (a start always queues).
  void queue_row_refresh(std::size_t row_index);
  /// The node update's refresh: moves the power sources of the rows that
  /// started or finished since the last one, and gives every queued row
  /// its power, its lanes' rates and a new completion prediction.
  void refresh_rows();
  /// Rates, predictions and completion keys for the queued rows, in queue
  /// order.  One progress_rate call per real type and cap, memoized.
  void refresh_lanes();
  /// Recompute `earliest_done_s` for one running row from its lanes.
  void repredict_row_completion(JobRow& row);
  /// Calls f(lane, node) for each progress lane of a started row — its
  /// shared lane with its first node, or each node's own lane — while f
  /// returns true; returns whether every call did.
  template <class F>
  bool every_lane(const JobRow& row, F&& f) const;
  /// Apply every owed `progress += rate * dt` substep (one per elapsed
  /// tick since the last flush) in a single batched sweep over the lanes.
  /// Bit-identical to having swept every tick: rates are constant between
  /// flush points by construction (any rate write is preceded by a flush).
  void flush_sweep();
  /// A lane's progress as it will read after the owed substeps are
  /// flushed — the exact per-step accumulation replayed without touching
  /// the table.
  double virtual_progress(int lane) const;
  void update_nodes(double dt_s);
  void append_table_log();
  void complete_finished_jobs();
  void admit_arrivals();
  void schedule_and_cap();
  void apply_budget();
  int type_index(const std::string& name) const;
  double current_target_w() const;
  const SimJobType& job_type(const JobRow& row) const {
    return config_.job_types[static_cast<std::size_t>(row.type_index)];
  }
  /// Projected QoS degradation of a running job at its current cap.
  double projected_qos(std::size_t row_index) const;

  SimConfig config_;
  workload::Schedule schedule_;
  std::size_t next_arrival_ = 0;
  util::Rng rng_;

  NodeTable nodes_;
  JobTable jobs_;
  sched::AqaScheduler scheduler_;
  std::unique_ptr<budget::Budgeter> budgeter_;
  std::vector<model::PowerPerfModel> type_models_;  // budgeter view per type
  std::unordered_map<std::string, int> type_index_by_name_;

  SimResult result_;
  std::unique_ptr<engine::DiscreteEngine> engine_;
  /// Mirrors of the engine clock/tick, refreshed after every engine step
  /// (during a tick they hold the tick-start time / tick index the phase
  /// methods expect).
  double now_s_ = 0.0;
  double busy_node_seconds_ = 0.0;
  /// Sum over busy nodes of their type's p_min, maintained at
  /// assign/release (the busy half of the cluster's floor power): one
  /// add per node, taken as one util::add_repeated call per start/finish.
  double busy_floor_w_ = 0.0;
  bool done_ = false;
  bool result_taken_ = false;  // run() handed result_ over

  /// Owed progress substeps (one per tick since the last flush_sweep).
  long sweep_lag_ = 0;
  /// The running rows keyed on earliest_done_s: the completion phase
  /// tests only the rows whose key is <= now.  Re-keyed by each refresh
  /// from the rows' new predictions; a finished row leaves it.  Started
  /// rows join at their first refresh, which always precedes their first
  /// completion phase.  Its heap covers the next kCompletionHorizonSteps
  /// steps.
  CompletionQueue completion_queue_;
  /// One pass over the rows beyond the horizon per this many steps, and a
  /// heap of about this many steps' completions.
  static constexpr double kCompletionHorizonSteps = 64.0;

  /// Per-instance telemetry handles, resolved once in the constructor so
  /// the step loop never touches the registry map (concurrent seeded
  /// trials share the cells; updates are relaxed atomics).
  struct StepMetrics {
    telemetry::Counter* ticks = nullptr;
    telemetry::Gauge* power = nullptr;
    telemetry::Gauge* running = nullptr;
  };
  StepMetrics metrics_;

  // Row events since the last refresh, in event order.
  std::vector<std::size_t> pending_rows_;   // started or cap changed (cap_queued)
  std::vector<std::size_t> started_rows_;   // power sources to move to the row
  std::vector<std::size_t> finished_rows_;  // power sources to move to idle
  std::vector<std::size_t> finished_scratch_;      // scratch: completions this tick
  std::vector<budget::JobPowerProfile> profiles_;  // scratch: budgeted jobs this tick
  std::vector<std::size_t> budget_rows_;           // scratch: row of each profile
  std::string log_buffer_;                         // table-log formatting buffer

  std::ostream* table_log_ = nullptr;
  int table_log_stride_ = 1;
  std::size_t log_skip_rows_ = 0;  // prefix of job rows already fully logged
  long step_index_ = 0;
  telemetry::RunArtifactWriter* artifacts_ = nullptr;
};

/// The simulator for a config, a bid, a utilization and a seed: a
/// Poisson schedule of config.job_types (at their configured node counts)
/// filling `utilization` of the cluster over config.duration_s, drawn
/// from Rng(seed).child("schedule"), run on Rng(seed).child("sim"), which
/// also draws the bid's regulation walk (set_bid_targets).  This is the
/// one mapping from those inputs to a run; run_simulation, `anorctl
/// simulate` (with or without --table-log), bench_sim_scale and
/// bench_prof_overhead all use it.
TabularSimulator make_simulation(SimConfig config, const workload::DemandResponseBid& bid,
                                 double utilization, std::uint64_t seed);

/// Build with make_simulation, run, and return the result.  Used by
/// benches and the bid/weight evaluators.  A non-null `artifacts` writer
/// is sampled once per simulated second (the caller finalizes it).
SimResult run_simulation(const SimConfig& config, const workload::DemandResponseBid& bid,
                         double utilization, std::uint64_t seed,
                         telemetry::RunArtifactWriter* artifacts = nullptr);

/// FNV-1a over a run's power trace and QoS records (job id, submit,
/// start, end): the trace hash the determinism goldens and the
/// simulator benches record.
std::uint64_t trace_hash(const SimResult& result);

}  // namespace anor::sim
