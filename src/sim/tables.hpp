// The simulator's state tables (paper Sec. 5.6).
//
// "The simulator is implemented as a collection of tables that store the
// current state of nodes and jobs in the cluster."  Structure-of-arrays
// layout: the per-second update sweeps every node, and SoA keeps those
// sweeps cache-friendly at 1000+ nodes.
//
// Beyond the raw columns, the node table caches derived per-node state
// (progress rate, power draw, owning job row) that changes only at
// assign/release/cap events — never mid-tick — so the per-tick sweep is a
// branch-light `progress += rate * dt` over contiguous arrays.  Nodes whose
// ownership changed are queued in a pending-refresh list; cap changes are
// per job row (every node of a job runs at its row's cap) and the
// simulator queues the row.  It drains both queues at the top of the next
// node-update phase; see DESIGN.md "Performance model of the simulator".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace anor::sim {

/// Per-node state.  job_id < 0 means idle.
class NodeTable {
 public:
  explicit NodeTable(int node_count);

  /// Restore the exact state of a freshly constructed NodeTable(node_count)
  /// while reusing the column allocations — the warm-start path pools one
  /// table across sweep runs instead of reallocating eight columns per run.
  /// Bit-equivalence with fresh construction is load-bearing (warm runs
  /// must hash identically to cold ones) and pinned by WarmStart tests.
  void reset(int node_count);

  int size() const { return static_cast<int>(job_id_.size()); }

  int job_id(int node) const { return job_id_[idx(node)]; }
  double cap_w(int node) const { return cap_w_[idx(node)]; }
  double power_w(int node) const { return power_w_[idx(node)]; }
  double progress(int node) const { return progress_[idx(node)]; }
  double perf_multiplier(int node) const { return perf_mult_[idx(node)]; }
  bool idle(int node) const { return job_id_[idx(node)] < 0; }

  /// Cached progress per second under the current cap (0 while idle).
  /// Owned by the simulator's pending-refresh pass; stale between a cap
  /// write and the next refresh.
  double rate(int node) const { return rate_[idx(node)]; }
  void set_rate(int node, double rate) { rate_[idx(node)] = rate; }

  /// Row index of the owning job in the JobTable (-1 while idle).
  int job_row(int node) const { return job_row_[idx(node)]; }

  /// Precomputed 1 / perf_multiplier, kept alongside the multiplier so
  /// the refresh sweep multiplies instead of dividing per node.
  double inv_perf_multiplier(int node) const { return inv_perf_mult_[idx(node)]; }

  void set_perf_multiplier(int node, double m) {
    perf_mult_[idx(node)] = m;
    inv_perf_mult_[idx(node)] = 1.0 / m;
  }
  /// Plain write: the caller (the simulator's per-row cap write) queues
  /// the refresh, once per row rather than per node.
  void set_cap(int node, double cap_w) { cap_w_[idx(node)] = cap_w; }
  void set_power(int node, double power_w) {
    power_w_[idx(node)] = power_w;
    power_clean_ = false;
  }
  void add_progress(int node, double delta) { progress_[idx(node)] += delta; }

  /// progress[n] += rate[n] * dt for n in [begin, end).  Idle nodes have
  /// rate 0, so the sweep needs no busy test.  Writes only the progress
  /// column of its own range — shards over disjoint ranges never race.
  void advance_progress(int begin, int end, double dt_s);

  /// Apply `substeps` consecutive per-step sweeps in one pass: each node
  /// receives its additive updates in step order, so the result is
  /// bit-identical to calling advance_progress(begin, end, dt_s)
  /// `substeps` times — but the rate/progress columns are streamed once,
  /// not `substeps` times (the deferred-sweep flush in the simulator
  /// batches all steps between two rate-change events into one call).
  void advance_progress_batch(int begin, int end, double dt_s, long substeps);

  /// Direct access to the derived-state columns for the sharded refresh
  /// sweep: workers write disjoint [begin, end) ranges of rate/power, so
  /// no per-call bookkeeping is allowed here.  Callers that touch the
  /// power column must call mark_power_dirty() (once, from one thread)
  /// so total_power_w() recomputes.
  double* rate_data() { return rate_.data(); }
  double* power_data() { return power_w_.data(); }
  void mark_power_dirty() { power_clean_ = false; }

  void assign(int node, int job, int job_row = -1);
  void release(int node);

  std::vector<int> idle_nodes() const;
  /// O(1): maintained incrementally at assign/release.
  int idle_count() const { return idle_count_; }
  int busy_count() const { return size() - idle_count_; }

  /// Left-to-right sum over the power column, cached between power
  /// writes.  Power changes only at refresh/assign/release events, so
  /// steady-state ticks pay O(1) here.
  double total_power_w() const;

  /// Nodes with an ownership change (assign/release) since the last
  /// clear, in event order (each node listed at most once).
  const std::vector<int>& pending_refresh() const { return pending_; }
  void clear_pending_refresh();

 private:
  static std::size_t idx(int node) { return static_cast<std::size_t>(node); }
  void mark_pending(int node);

  std::vector<int> job_id_;
  std::vector<double> cap_w_;
  std::vector<double> power_w_;
  std::vector<double> progress_;
  std::vector<double> perf_mult_;
  std::vector<double> inv_perf_mult_;
  std::vector<double> rate_;
  std::vector<int> job_row_;

  int idle_count_ = 0;
  std::vector<int> pending_;
  std::vector<std::uint8_t> pending_flag_;
  mutable double total_power_cache_ = 0.0;
  mutable bool power_clean_ = false;
};

/// Per-job lifecycle state.
struct JobRow {
  int job_id = 0;
  int type_index = 0;        // into SimConfig::job_types
  int classified_index = 0;  // what the policy believes (== type_index normally)
  double submit_s = 0.0;
  double start_s = -1.0;
  double end_s = -1.0;
  /// Earliest simulated time the job can possibly finish given the rates
  /// at the last cap event; the completion scan skips the job until then.
  double earliest_done_s = 0.0;
  std::vector<int> nodes;    // assigned node ids (empty while queued)
  /// The cap every node in `nodes` runs at (0 until the first write, like
  /// a fresh or released node's cap).
  double cap_w = 0.0;
  /// Queued for a rate/power refresh since its cap last changed.
  bool cap_queued = false;

  bool started() const { return start_s >= 0.0; }
  bool finished() const { return end_s >= 0.0; }
};

class JobTable {
 public:
  /// Returns the row index.
  std::size_t add(JobRow row);

  JobRow& row(std::size_t index) { return rows_[index]; }
  const JobRow& row(std::size_t index) const { return rows_[index]; }
  std::size_t size() const { return rows_.size(); }

  JobRow& by_job_id(int job_id);
  const JobRow& by_job_id(int job_id) const;
  std::size_t index_of(int job_id) const;

  /// Record the start/end transitions and maintain the running set.  A
  /// repeated transition is a no-op.  mark_finished takes a whole batch
  /// (a tick's completions) and drops the finished rows from the running
  /// set in one stable compaction pass, instead of one mid-vector erase
  /// per row.
  void mark_started(std::size_t index, double start_s);
  void mark_finished(const std::vector<std::size_t>& indices, double end_s);

  /// Indices of running (started, unfinished) jobs, ascending: the
  /// simulator's floating-point sums iterate this set, so its order is
  /// part of the determinism contract.  Exact after every mark_* call —
  /// no per-tick rebuild.
  const std::vector<std::size_t>& running() const { return running_; }

  const std::vector<JobRow>& rows() const { return rows_; }

 private:
  std::vector<JobRow> rows_;
  std::vector<std::size_t> by_id_;  // job_id -> row index
  std::vector<std::size_t> running_;
};

}  // namespace anor::sim
