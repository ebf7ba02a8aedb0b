// The simulator's state tables (paper Sec. 5.6).
//
// "The simulator is implemented as a collection of tables that store the
// current state of nodes and jobs in the cluster."  Structure-of-arrays
// layout throughout.
//
// Every node of a job runs at its row's cap, and without node variation
// at the same rate too, so the node table keeps one copy of what those
// nodes share instead of one per node:
//   * A *progress lane* is the set of a job row's nodes that share one
//     performance multiplier bit for bit: one lane per row without node
//     variation, one lane per node with it.  Progress, rate and the
//     reciprocal multiplier live in dense per-lane columns whose slots are
//     reused after a job finishes, and the per-tick sweep is
//     `progress += rate * dt` over those columns.
//   * Cap and power are per job row (indexed like JobTable's rows).  Each
//     node points at a *power source*, idle or a row, and draws that
//     source's power.  Sources move only at the simulator's refresh, so a
//     node released and re-assigned in one tick draws its old job's power
//     until the next node update.
//   * Consecutive nodes with one power source form a *power run*.  A
//     run-break bitmap marks where runs start; the draws update it only at
//     the edges of each contiguous block of nodes they move.  The total
//     power then sums each run's equal terms with one util::add_repeated
//     call, bit for bit the left-to-right node loop.
// Per node the table keeps ownership (job id), the lane index, the power
// source, the performance multiplier (once some node's differs from 1.0),
// an idle bitmap and the run-break bitmap; the per-node getters derive
// progress, rate, cap and power from lanes and rows.  A job start costs
// the job, not the cluster: the idle scan starts at a hint (the lowest
// bitmap word that may hold an idle bit), start and finish write each
// contiguous block of the job's nodes with one fill per column and its
// idle bits a word at a time, and JobTable appends starts to an unsorted
// tail that the next read of the running set sorts and merges in.
// CompletionQueue orders the running rows by predicted completion, so the
// completion phase visits only the rows that may be done.  See DESIGN.md
// "Performance model of the simulator".
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace anor::sim {

/// Per-node state, its progress lanes and the per-row cap and power.
/// job_id < 0 means idle.
class NodeTable {
 public:
  explicit NodeTable(int node_count);

  /// Restore the exact state of a freshly constructed NodeTable(node_count)
  /// while reusing the column allocations — the warm-start path pools one
  /// table across sweep runs instead of reallocating its columns per run.
  /// Bit-equivalence with fresh construction is load-bearing (warm runs
  /// must hash identically to cold ones) and pinned by WarmStart tests.
  void reset(int node_count);

  int size() const { return static_cast<int>(job_id_.size()); }

  // --- per node ---------------------------------------------------------

  int job_id(int node) const { return job_id_[idx(node)]; }
  bool idle(int node) const { return job_id_[idx(node)] < 0; }
  /// Progress lane of a busy node (-1 while idle).
  int lane(int node) const { return lane_[idx(node)]; }
  /// Row index of the owning job in the JobTable (-1 while idle).
  int job_row(int node) const {
    const int l = lane(node);
    return l < 0 ? -1 : lane_row_[idx(l)];
  }
  /// The node's lane's progress and cached rate (0 while idle).
  double progress(int node) const {
    const int l = lane(node);
    return l < 0 ? 0.0 : lane_progress_[idx(l)];
  }
  double rate(int node) const {
    const int l = lane(node);
    return l < 0 ? 0.0 : lane_rate_[idx(l)];
  }
  /// The owning row's cap (0 while idle).
  double cap_w(int node) const {
    const int l = lane(node);
    return l < 0 ? 0.0 : row_cap_w_[idx(lane_row_[idx(l)])];
  }
  /// Power the node draws: its power source's.
  double power_w(int node) const { return source_power_w(power_source_[idx(node)]); }
  /// The row whose power the node draws, or -1 for idle power.
  int power_source(int node) const { return power_source_[idx(node)]; }
  /// Whether a power run starts at the node: node 0, or a node whose power
  /// source differs from the node before it.
  bool starts_power_run(int node) const {
    return (run_starts_[idx(node) / 64] >> (idx(node) % 64) & 1) != 0;
  }
  /// Number of power runs (1 when every node draws from one source).
  int power_runs() const { return power_runs_; }

  double perf_multiplier(int node) const {
    return perf_mult_.empty() ? 1.0 : perf_mult_[idx(node)];
  }
  double inv_perf_multiplier(int node) const { return 1.0 / perf_multiplier(node); }
  void set_perf_multiplier(int node, double m) {
    if (perf_mult_.empty()) {
      if (m == 1.0) return;
      perf_mult_.assign(job_id_.size(), 1.0);
    }
    perf_mult_[idx(node)] = m;
  }
  /// Every node's multiplier at once, one per node in node order.
  void set_perf_multipliers(const std::vector<double>& multipliers) { perf_mult_ = multipliers; }

  // --- job rows -----------------------------------------------------------

  /// Make the idle `nodes` the nodes of job `job_id`, JobTable row `row`,
  /// and open the row's lanes at progress 0 and rate 0: one lane when
  /// every node has the same multiplier, else one per node, opened in
  /// node order.  Returns the shared lane, or -1 when each node has its
  /// own (read it with lane(node)).  The row's cap starts at 0 and its
  /// nodes keep their power source.  `nodes` must be ascending
  /// (lowest_idle_nodes' order): ownership, a shared lane and the idle
  /// bits are written per contiguous block (the bits a word at a time),
  /// and the multiplier comparison is skipped until some node is given a
  /// multiplier other than 1.0.  O(blocks · log(block size)) plus the
  /// fills, and O(nodes) for per-node lanes.
  int start_row(std::size_t row, int job_id, const std::vector<int>& nodes);
  /// Free the lanes of a finished row's `nodes` and make them idle (cap,
  /// rate and progress read 0).  They keep drawing the row's power until
  /// draw_idle_power().  `nodes` is the row's ascending list: a shared
  /// lane is freed once (two nodes of a row share a lane only when all
  /// do), per-node lanes in node order, and ownership, lanes and idle bits
  /// are written per contiguous block, as in start_row.
  void finish_row(const std::vector<int>& nodes);

  /// Cap of a started row; a plain write (the simulator queues the
  /// refresh, once per row).
  double row_cap_w(std::size_t row) const { return row_cap_w_[row]; }
  void set_row_cap(std::size_t row, double cap_w) { row_cap_w_[row] = cap_w; }
  /// Power each node drawing from a started row draws.
  void set_row_power(std::size_t row, double power_w);
  /// Power an idle-sourced node draws (0 in a fresh table).
  void set_idle_power_w(double power_w);

  /// Power-source moves, made by the simulator's refresh: `nodes` draw
  /// `row`'s power from now on; of `nodes`, those still idle draw idle
  /// power (a node re-assigned since is left to its new row).  `nodes`
  /// must be ascending (lowest_idle_nodes' order): a galloping search
  /// finds the end of each contiguous block, the idle draw finds the idle
  /// stretches in a block a bitmap word at a time, and each stretch
  /// rewrites the run breaks at its two edges and clears the ones inside
  /// it a word at a time.  O(blocks · log(block size)) plus the fill.
  void draw_row_power(std::size_t row, const std::vector<int>& nodes);
  void draw_idle_power(const std::vector<int>& nodes);

  // --- lanes --------------------------------------------------------------

  /// Every open lane is in [0, lane_end()); a free slot has rate 0.
  int lane_end() const { return static_cast<int>(lane_progress_.size()); }
  double lane_progress(int lane) const { return lane_progress_[idx(lane)]; }
  double lane_rate(int lane) const { return lane_rate_[idx(lane)]; }
  /// 1 / the lane's multiplier, computed once when the lane opens.
  double lane_inv_multiplier(int lane) const { return lane_inv_mult_[idx(lane)]; }
  int lane_row(int lane) const { return lane_row_[idx(lane)]; }
  /// Cached progress per second under the row's cap.  Owned by the
  /// simulator's refresh; stale between a cap write and the next refresh.
  void set_lane_rate(int lane, double rate) { lane_rate_[idx(lane)] = rate; }

  /// Apply `substeps` consecutive `progress += rate * dt_s` sweeps to the
  /// lanes [begin, end) in one pass: each lane receives its additive
  /// updates in step order, so the result is bit-identical to sweeping
  /// `substeps` times — but the rate/progress columns are streamed once
  /// (the deferred-sweep flush in the simulator batches all steps between
  /// two rate-change events into one call).
  void advance_progress_batch(int begin, int end, double dt_s, long substeps);

  // --- idle set and totals ------------------------------------------------

  std::vector<int> idle_nodes() const;
  /// Append the `count` lowest-numbered idle nodes to `out`, ascending:
  /// the prefix of idle_nodes(), found through the idle bitmap without
  /// walking the busy nodes one by one.  The scan starts at the idle hint
  /// and moves it past the all-busy words it skips, so a start costs its
  /// own nodes plus the words that filled since the last start; an
  /// all-idle word appends its 64 ids without a walk over its bits.
  /// Throws std::logic_error when fewer than `count` nodes are idle.
  void lowest_idle_nodes(int count, std::vector<int>& out) const;
  /// O(1): maintained incrementally at start/finish.
  int idle_count() const { return idle_count_; }
  int busy_count() const { return size() - idle_count_; }

  /// Left-to-right sum of power_w(n) over the nodes, bit for bit, cached
  /// between power changes (refresh events), so steady-state ticks pay
  /// O(1) here.  A recompute adds each power run with one
  /// util::add_repeated call, O(runs); when runs are short on average (a
  /// job-dense table) it keeps the node loop, which is cheaper there.
  double total_power_w() const;

 private:
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }
  double source_power_w(int source) const {
    return source < 0 ? idle_power_w_ : row_power_w_[idx(source)];
  }
  int open_lane(std::size_t row, double multiplier);
  void free_lane(int lane);
  /// Point nodes [first, last] at `source`, keeping the run breaks exact:
  /// only the block's two edges can start a run.
  void draw_block(int source, std::size_t first, std::size_t last);
  /// Set or clear node n's run-break bit, keeping power_runs_.
  void set_run_start(std::size_t n, bool starts);
  /// Clear the run-break bits of nodes [first, last).
  void clear_run_starts(std::size_t first, std::size_t last);

  // Per node.
  std::vector<int> job_id_;
  std::vector<int> lane_;
  std::vector<int> power_source_;
  std::vector<double> perf_mult_;  // empty until a multiplier other than 1.0 is set
  std::vector<std::uint64_t> idle_bits_;  // bit n % 64 of word n / 64: node n idle
  int idle_count_ = 0;
  /// Every idle_bits_ word below this one is zero (no idle node).
  /// finish_row lowers it; lowest_idle_nodes moves it past zero words.
  mutable std::size_t idle_hint_ = 0;
  std::vector<std::uint64_t> run_starts_;  // same layout: starts_power_run(n)
  int power_runs_ = 0;                     // popcount of run_starts_

  // Per lane.
  std::vector<double> lane_progress_;
  std::vector<double> lane_rate_;
  std::vector<double> lane_inv_mult_;
  std::vector<int> lane_row_;  // -1 for a free slot
  std::vector<int> free_lanes_;

  // Per job row.
  std::vector<double> row_cap_w_;
  std::vector<double> row_power_w_;
  double idle_power_w_ = 0.0;

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
  /// at the last cap event; the completion phase skips the job until
  /// then (the simulator's CompletionQueue holds a copy as its key).
  double earliest_done_s = 0.0;
  std::vector<int> nodes;    // assigned node ids (empty while queued)
  /// The row's progress lane when all its nodes share one, or -1 when
  /// each node has its own (NodeTable::start_row).
  int lane = -1;
  /// Queued for a rate/power refresh since it started or its cap changed.
  bool cap_queued = false;

  bool started() const { return start_s >= 0.0; }
  bool finished() const { return end_s >= 0.0; }
};

class JobTable {
 public:
  /// Returns the row index.
  std::size_t add(JobRow row);
  /// Reserve capacity for `rows` rows (the simulator knows its schedule).
  void reserve(std::size_t rows) { rows_.reserve(rows); }

  JobRow& row(std::size_t index) { return rows_[index]; }
  const JobRow& row(std::size_t index) const { return rows_[index]; }
  std::size_t size() const { return rows_.size(); }

  JobRow& by_job_id(int job_id);
  const JobRow& by_job_id(int job_id) const;
  std::size_t index_of(int job_id) const;

  /// Record the start/end transitions.  A repeated transition is a no-op.
  /// Both are O(1) per row: mark_started appends the row to an unsorted
  /// tail, and mark_finished (a tick's completions, in one batch) only
  /// marks its rows.  The next running() read merges both in.
  void mark_started(std::size_t index, double start_s);
  void mark_finished(const std::vector<std::size_t>& indices, double end_s);

  /// Indices of running (started, unfinished) jobs, ascending: the
  /// simulator's floating-point sums iterate this set, so its order is
  /// part of the determinism contract.  Exact at every read: a read after
  /// starts or finishes sorts the started tail and merges it into the
  /// set, dropping finished rows, in one pass.  Because a read may merge,
  /// it must not race with any other use of the table.
  const std::vector<std::size_t>& running() const {
    if (!started_tail_.empty() || finished_since_merge_) merge_running();
    return running_;
  }
  /// Size of running(), O(1) and without a merge.
  std::size_t running_count() const { return running_count_; }

  const std::vector<JobRow>& rows() const { return rows_; }

 private:
  void merge_running() const;

  std::vector<JobRow> rows_;
  std::vector<std::size_t> by_id_;  // job_id -> row index
  // running() as of the last merge, plus what changed since: the rows
  // started since (unsorted) and whether any running row finished since.
  mutable std::vector<std::size_t> running_;
  mutable std::vector<std::size_t> started_tail_;
  mutable std::vector<std::size_t> merge_scratch_;
  mutable bool finished_since_merge_ = false;
  std::size_t running_count_ = 0;
};

/// Running rows keyed on predicted completion time, for the completion
/// phase's walk over the rows that may be done.  The rows whose key lies
/// within a horizon sit in an indexed binary min-heap; the rest sit
/// unordered, so re-keying a row that stays beyond the horizon is one
/// store.  A walk past the horizon first moves it `horizon_s` beyond the
/// walk's time and moves the rows it now covers into the heap: one pass
/// over the far rows per horizon.  The queue holds its own copy of each
/// key and changes it only through set(), so a row's prediction can be
/// rewritten without disturbing the heap order.  A NaN key is never due.
class CompletionQueue {
 public:
  explicit CompletionQueue(double horizon_s) : horizon_s_(horizon_s) {}

  /// Queue `row` under `key`, or move it to `key` when already queued.
  void set(std::size_t row, double key);
  /// Remove `row`; a no-op when it is not queued.
  void erase(std::size_t row);
  bool contains(std::size_t row) const {
    return row < rows_.size() && rows_[row].slot != kAbsent;
  }
  std::size_t size() const { return heap_.size() + far_.size(); }

  /// Call f(row) for every queued row whose key is <= t, in no particular
  /// order.  O(1) while no key is, else O(due rows): a heap entry above t
  /// hides its whole subtree.  f must not change the queue.
  template <class F>
  void for_each_due(double t, F&& f) {
    if (!(t <= horizon_end_)) advance(t);
    if (heap_.empty() || !(heap_.front().key <= t)) return;
    due_stack_.assign(1, 0);
    while (!due_stack_.empty()) {
      const std::size_t i = due_stack_.back();
      due_stack_.pop_back();
      f(heap_[i].row);
      for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < heap_.size(); ++c) {
        if (heap_[c].key <= t) due_stack_.push_back(c);
      }
    }
  }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  static constexpr std::size_t kFar = std::size_t{1} << 62;  // flag on a far_ index
  struct Entry {
    double key;
    std::size_t row;
  };
  /// Move the horizon to t + horizon_s and the far rows it covers into the heap.
  void advance(double t);
  void heap_push(std::size_t row, double key);
  void heap_erase(std::size_t slot);
  void far_push(std::size_t row);
  void far_erase(std::size_t index);
  /// Put `e` at heap slot i and record the row's slot.
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    rows_[e.row].slot = i;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  double horizon_s_;
  /// Every queued row whose key is <= this is in the heap.
  double horizon_end_ = -std::numeric_limits<double>::infinity();
  std::vector<Entry> heap_;
  std::vector<std::size_t> far_;  // rows with key > horizon_end_ (or NaN), unordered
  struct RowState {
    double key = 0.0;             // while queued
    std::size_t slot = kAbsent;  // heap slot, kFar | far_ index, or kAbsent
  };
  std::vector<RowState> rows_;  // by row index
  std::vector<std::size_t> due_stack_;
};

}  // namespace anor::sim
