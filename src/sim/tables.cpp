#include "sim/tables.hpp"

#include <algorithm>
#include <stdexcept>

namespace anor::sim {

NodeTable::NodeTable(int node_count)
    : job_id_(static_cast<std::size_t>(node_count), -1),
      cap_w_(static_cast<std::size_t>(node_count), 0.0),
      power_w_(static_cast<std::size_t>(node_count), 0.0),
      progress_(static_cast<std::size_t>(node_count), 0.0),
      perf_mult_(static_cast<std::size_t>(node_count), 1.0),
      inv_perf_mult_(static_cast<std::size_t>(node_count), 1.0),
      rate_(static_cast<std::size_t>(node_count), 0.0),
      job_row_(static_cast<std::size_t>(node_count), -1),
      idle_count_(node_count),
      pending_flag_(static_cast<std::size_t>(node_count), 0) {
  if (node_count <= 0) throw std::invalid_argument("NodeTable: node_count <= 0");
}

void NodeTable::reset(int node_count) {
  if (node_count <= 0) throw std::invalid_argument("NodeTable: node_count <= 0");
  const auto n = static_cast<std::size_t>(node_count);
  job_id_.assign(n, -1);
  cap_w_.assign(n, 0.0);
  power_w_.assign(n, 0.0);
  progress_.assign(n, 0.0);
  perf_mult_.assign(n, 1.0);
  inv_perf_mult_.assign(n, 1.0);
  rate_.assign(n, 0.0);
  job_row_.assign(n, -1);
  idle_count_ = node_count;
  pending_.clear();
  pending_flag_.assign(n, 0);
  total_power_cache_ = 0.0;
  power_clean_ = false;
}

void NodeTable::mark_pending(int node) {
  if (pending_flag_[idx(node)]) return;
  pending_flag_[idx(node)] = 1;
  pending_.push_back(node);
}

void NodeTable::advance_progress(int begin, int end, double dt_s) {
  double* progress = progress_.data();
  const double* rate = rate_.data();
  for (int n = begin; n < end; ++n) progress[n] += rate[n] * dt_s;
}

// Cache-line aligned so the 14-byte inner add loop always sits inside one
// 64-byte line.  Its placement otherwise follows whatever code links
// before src/sim: on a 4-vCPU x86-64 host, 32 bytes of padding there put
// the loop across a line boundary and cost the wide-job tabular workload
// 0-9 % of its sim rate, and a 5.6 KB shrink of that code cost 5-20 %,
// all of it inside the unchanged progress sweep.
[[gnu::aligned(64)]] void NodeTable::advance_progress_batch(int begin, int end, double dt_s,
                                                            long substeps) {
  if (substeps <= 0) return;
  double* progress = progress_.data();
  const double* rate = rate_.data();
  for (int n = begin; n < end; ++n) {
    // Repeated addition, not d * substeps: floating-point accumulation is
    // not distributive, and the batch must land on the exact bits the
    // per-step sweep would have produced.  The per-node delta is loop
    // invariant, so the inner loop is a register-only add chain.
    const double d = rate[n] * dt_s;
    if (d == 0.0) continue;
    double p = progress[n];
    for (long k = 0; k < substeps; ++k) p += d;
    progress[n] = p;
  }
}

void NodeTable::assign(int node, int job, int job_row) {
  if (job_id_[idx(node)] < 0) --idle_count_;
  job_id_[idx(node)] = job;
  job_row_[idx(node)] = job_row;
  progress_[idx(node)] = 0.0;
  mark_pending(node);
}

void NodeTable::release(int node) {
  if (job_id_[idx(node)] >= 0) ++idle_count_;
  job_id_[idx(node)] = -1;
  job_row_[idx(node)] = -1;
  progress_[idx(node)] = 0.0;
  cap_w_[idx(node)] = 0.0;
  rate_[idx(node)] = 0.0;
  mark_pending(node);
}

std::vector<int> NodeTable::idle_nodes() const {
  std::vector<int> idle;
  idle.reserve(static_cast<std::size_t>(idle_count_));
  for (int n = 0; n < size(); ++n) {
    if (job_id_[idx(n)] < 0) idle.push_back(n);
  }
  return idle;
}

double NodeTable::total_power_w() const {
  if (!power_clean_) {
    double total = 0.0;
    for (double p : power_w_) total += p;
    total_power_cache_ = total;
    power_clean_ = true;
  }
  return total_power_cache_;
}

void NodeTable::clear_pending_refresh() {
  for (int n : pending_) pending_flag_[idx(n)] = 0;
  pending_.clear();
}

std::size_t JobTable::add(JobRow row) {
  const auto id = static_cast<std::size_t>(row.job_id);
  if (by_id_.size() <= id) by_id_.resize(id + 1, SIZE_MAX);
  by_id_[id] = rows_.size();
  const bool running = row.started() && !row.finished();
  rows_.push_back(std::move(row));
  if (running) running_.push_back(rows_.size() - 1);
  return rows_.size() - 1;
}

std::size_t JobTable::index_of(int job_id) const {
  const auto id = static_cast<std::size_t>(job_id);
  if (id >= by_id_.size() || by_id_[id] == SIZE_MAX) {
    throw std::out_of_range("JobTable: unknown job id");
  }
  return by_id_[id];
}

JobRow& JobTable::by_job_id(int job_id) { return rows_[index_of(job_id)]; }

const JobRow& JobTable::by_job_id(int job_id) const { return rows_[index_of(job_id)]; }

void JobTable::mark_started(std::size_t index, double start_s) {
  JobRow& job = rows_[index];
  if (job.started()) return;
  job.start_s = start_s;
  running_.insert(std::lower_bound(running_.begin(), running_.end(), index), index);
}

void JobTable::mark_finished(const std::vector<std::size_t>& indices, double end_s) {
  bool any = false;
  for (std::size_t index : indices) {
    JobRow& job = rows_[index];
    if (job.finished()) continue;
    job.end_s = end_s;
    any = true;
  }
  // erase_if keeps the survivors' relative order, so the set stays ascending.
  if (any) std::erase_if(running_, [this](std::size_t i) { return rows_[i].finished(); });
}

}  // namespace anor::sim
