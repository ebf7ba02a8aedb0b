#include "sim/tables.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/add_repeated.hpp"

namespace anor::sim {
namespace {

/// A recompute walks the power runs when they average at least this many
/// nodes.  add_repeated costs about as much as 30-40 plain adds, so
/// shorter runs (1-2 node jobs) sum faster node by node.
constexpr int kMinMeanRunNodes = 64;

// Every caller passes an ascending node list (lowest_idle_nodes' output),
// so entries i..j name one contiguous block exactly when
// nodes[j] - nodes[i] == j - i, a predicate that holds on a prefix of j:
// a galloping search finds a block's end in O(log block) steps.
std::size_t block_end(const std::vector<int>& nodes, std::size_t i) {
  const auto contiguous = [&](std::size_t j) {
    return static_cast<std::size_t>(nodes[j] - nodes[i]) == j - i;
  };
  std::size_t good = i;  // contiguous(good) holds
  std::size_t step = 1;
  std::size_t bad = nodes.size();  // first index known not to hold (or the end)
  while (good + step < nodes.size()) {
    if (!contiguous(good + step)) {
      bad = good + step;
      break;
    }
    good += step;
    step *= 2;
  }
  while (bad - good > 1) {
    const std::size_t mid = good + (bad - good) / 2;
    if (contiguous(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  return good;
}

/// The first node m in [n, end) whose bit in `bits` equals `set`, or
/// `end`: a word of the bitmap at a time.
std::size_t next_with_bit(const std::vector<std::uint64_t>& bits, std::size_t n,
                          std::size_t end, bool set) {
  const std::uint64_t flip = set ? 0 : ~std::uint64_t{0};
  std::size_t w = n / 64;
  std::uint64_t word = (bits[w] ^ flip) & (~std::uint64_t{0} << (n % 64));
  while (word == 0) {
    if (++w * 64 >= end) return end;
    word = bits[w] ^ flip;
  }
  return std::min(end, w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
}

/// Call f(word, mask) for every word of `bits` that holds bits of nodes
/// [first, last), with `mask` selecting those bits.
template <class F>
void for_each_word(std::vector<std::uint64_t>& bits, std::size_t first, std::size_t last, F f) {
  if (first >= last) return;
  const std::size_t first_word = first / 64;
  const std::size_t last_word = (last - 1) / 64;
  for (std::size_t w = first_word; w <= last_word; ++w) {
    std::uint64_t mask = ~std::uint64_t{0};
    if (w == first_word) mask &= ~std::uint64_t{0} << (first % 64);
    if (w == last_word) mask &= ~std::uint64_t{0} >> (63 - (last - 1) % 64);
    f(bits[w], mask);
  }
}

/// Call f(first, last) for each contiguous block [first, last] of the
/// ascending node list, in order.
template <class F>
void for_each_block(const std::vector<int>& nodes, F f) {
  for (std::size_t i = 0; i < nodes.size();) {
    const std::size_t j = block_end(nodes, i);
    f(static_cast<std::size_t>(nodes[i]), static_cast<std::size_t>(nodes[j]));
    i = j + 1;
  }
}

}  // namespace

NodeTable::NodeTable(int node_count) { reset(node_count); }

void NodeTable::reset(int node_count) {
  if (node_count <= 0) throw std::invalid_argument("NodeTable: node_count <= 0");
  const auto n = static_cast<std::size_t>(node_count);
  job_id_.assign(n, -1);
  lane_.assign(n, -1);
  power_source_.assign(n, -1);
  perf_mult_.clear();
  idle_bits_.assign((n + 63) / 64, ~std::uint64_t{0});
  if (n % 64 != 0) idle_bits_.back() = (std::uint64_t{1} << (n % 64)) - 1;
  idle_count_ = node_count;
  idle_hint_ = 0;
  // One run: every node draws idle power.
  run_starts_.assign((n + 63) / 64, 0);
  run_starts_.front() = 1;
  power_runs_ = 1;
  lane_progress_.clear();
  lane_rate_.clear();
  lane_inv_mult_.clear();
  lane_row_.clear();
  free_lanes_.clear();
  row_cap_w_.clear();
  row_power_w_.clear();
  idle_power_w_ = 0.0;
  total_power_cache_ = 0.0;
  power_clean_ = false;
}

int NodeTable::open_lane(std::size_t row, double multiplier) {
  int lane = 0;
  if (free_lanes_.empty()) {
    lane = lane_end();
    lane_progress_.push_back(0.0);
    lane_rate_.push_back(0.0);
    lane_inv_mult_.push_back(0.0);
    lane_row_.push_back(-1);
  } else {
    lane = free_lanes_.back();
    free_lanes_.pop_back();
  }
  lane_inv_mult_[idx(lane)] = 1.0 / multiplier;
  lane_row_[idx(lane)] = static_cast<int>(row);
  return lane;
}

int NodeTable::start_row(std::size_t row, int job_id, const std::vector<int>& nodes) {
  if (row >= row_cap_w_.size()) {
    row_cap_w_.resize(row + 1, 0.0);
    row_power_w_.resize(row + 1, 0.0);
  }
  if (nodes.empty()) return -1;
  const double first = perf_multiplier(nodes.front());
  // Without a multiplier column every node runs at 1.0.
  const bool shared = perf_mult_.empty() ||
                      std::all_of(nodes.begin(), nodes.end(),
                                  [&](int n) { return perf_mult_[idx(n)] == first; });
  const int shared_lane = shared ? open_lane(row, first) : -1;
  if (!shared) {
    for (int n : nodes) lane_[idx(n)] = open_lane(row, perf_mult_[idx(n)]);
  }
  for_each_block(nodes, [&](std::size_t lo, std::size_t hi) {
    std::fill(job_id_.begin() + static_cast<std::ptrdiff_t>(lo),
              job_id_.begin() + static_cast<std::ptrdiff_t>(hi + 1), job_id);
    if (shared) {
      std::fill(lane_.begin() + static_cast<std::ptrdiff_t>(lo),
                lane_.begin() + static_cast<std::ptrdiff_t>(hi + 1), shared_lane);
    }
    for_each_word(idle_bits_, lo, hi + 1, [](std::uint64_t& word, std::uint64_t mask) {
      word &= ~mask;
    });
  });
  idle_count_ -= static_cast<int>(nodes.size());
  return shared_lane;
}

void NodeTable::finish_row(const std::vector<int>& nodes) {
  if (nodes.empty()) return;
  // Two nodes of one row share a lane only when all of them do.
  if (nodes.size() == 1 || lane_[idx(nodes[0])] == lane_[idx(nodes[1])]) {
    free_lane(lane_[idx(nodes[0])]);
  } else {
    for (int n : nodes) free_lane(lane_[idx(n)]);
  }
  for_each_block(nodes, [&](std::size_t lo, std::size_t hi) {
    std::fill(job_id_.begin() + static_cast<std::ptrdiff_t>(lo),
              job_id_.begin() + static_cast<std::ptrdiff_t>(hi + 1), -1);
    std::fill(lane_.begin() + static_cast<std::ptrdiff_t>(lo),
              lane_.begin() + static_cast<std::ptrdiff_t>(hi + 1), -1);
    for_each_word(idle_bits_, lo, hi + 1, [](std::uint64_t& word, std::uint64_t mask) {
      word |= mask;
    });
  });
  idle_hint_ = std::min(idle_hint_, idx(nodes.front()) / 64);
  idle_count_ += static_cast<int>(nodes.size());
}

void NodeTable::free_lane(int lane) {
  lane_progress_[idx(lane)] = 0.0;
  lane_rate_[idx(lane)] = 0.0;  // the sweep adds nothing to a free slot
  lane_row_[idx(lane)] = -1;
  free_lanes_.push_back(lane);
}

void NodeTable::set_row_power(std::size_t row, double power_w) {
  row_power_w_[row] = power_w;
  power_clean_ = false;
}

void NodeTable::set_idle_power_w(double power_w) {
  idle_power_w_ = power_w;
  power_clean_ = false;
}

void NodeTable::draw_row_power(std::size_t row, const std::vector<int>& nodes) {
  for_each_block(nodes, [&](std::size_t lo, std::size_t hi) {
    draw_block(static_cast<int>(row), lo, hi);
  });
  power_clean_ = false;
}

void NodeTable::draw_idle_power(const std::vector<int>& nodes) {
  // Every node of a block is listed: move its idle stretches.
  for_each_block(nodes, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t n = lo; n <= hi;) {
      const std::size_t first = next_with_bit(idle_bits_, n, hi + 1, true);
      if (first > hi) break;
      n = next_with_bit(idle_bits_, first, hi + 1, false);
      draw_block(-1, first, n - 1);
    }
  });
  power_clean_ = false;
}

void NodeTable::draw_block(int source, std::size_t first, std::size_t last) {
  std::fill(power_source_.begin() + static_cast<std::ptrdiff_t>(first),
            power_source_.begin() + static_cast<std::ptrdiff_t>(last + 1), source);
  // Only the block's edges can start a run; any node between them
  // follows a node with the same source.
  clear_run_starts(first + 1, last + 1);
  set_run_start(first, first == 0 || power_source_[first - 1] != source);
  if (last + 1 < power_source_.size()) {
    set_run_start(last + 1, power_source_[last + 1] != source);
  }
}

void NodeTable::set_run_start(std::size_t n, bool starts) {
  std::uint64_t& word = run_starts_[n / 64];
  const std::uint64_t bit = std::uint64_t{1} << (n % 64);
  if (((word & bit) != 0) == starts) return;
  word ^= bit;
  power_runs_ += starts ? 1 : -1;
}

void NodeTable::clear_run_starts(std::size_t first, std::size_t last) {
  for_each_word(run_starts_, first, last, [&](std::uint64_t& word, std::uint64_t mask) {
    power_runs_ -= std::popcount(word & mask);
    word &= ~mask;
  });
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
  double* progress = lane_progress_.data();
  const double* rate = lane_rate_.data();
  for (int l = begin; l < end; ++l) {
    // Repeated addition, not d * substeps: floating-point accumulation is
    // not distributive, and the batch must land on the exact bits the
    // per-step sweep would have produced.  The per-lane delta is loop
    // invariant, so the inner loop is a register-only add chain.
    const double d = rate[l] * dt_s;
    if (d == 0.0) continue;
    double p = progress[l];
    for (long k = 0; k < substeps; ++k) p += d;
    progress[l] = p;
  }
}

std::vector<int> NodeTable::idle_nodes() const {
  std::vector<int> idle;
  lowest_idle_nodes(idle_count_, idle);
  return idle;
}

void NodeTable::lowest_idle_nodes(int count, std::vector<int>& out) const {
  if (count > idle_count_) {
    throw std::logic_error("NodeTable: " + std::to_string(count) + " nodes requested, " +
                           std::to_string(idle_count_) + " idle");
  }
  out.reserve(out.size() + static_cast<std::size_t>(std::max(count, 0)));
  if (count <= 0) return;
  // count <= idle_count_, so an idle bit lies ahead and the skip stops.
  while (idle_bits_[idle_hint_] == 0) ++idle_hint_;
  for (std::size_t w = idle_hint_; count > 0; ++w) {
    if (idle_bits_[w] == ~std::uint64_t{0} && count >= 64) {  // all 64 idle: no bit walk
      out.resize(out.size() + 64);
      std::iota(out.end() - 64, out.end(), static_cast<int>(w * 64));
      count -= 64;
      continue;
    }
    for (std::uint64_t bits = idle_bits_[w]; bits != 0 && count > 0; bits &= bits - 1) {
      out.push_back(static_cast<int>(w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      --count;
    }
  }
}

double NodeTable::total_power_w() const {
  if (power_clean_) return total_power_cache_;
  double total = 0.0;
  if (power_runs_ > size() / kMinMeanRunNodes) {
    for (int source : power_source_) total += source_power_w(source);
  } else {
    // Every node of a run adds the same power, so the run's adds are one
    // add_repeated call: the same bits in O(binade crossings).
    std::size_t start = 0;  // node 0 always starts a run
    std::uint64_t bits = run_starts_.front() & ~std::uint64_t{1};
    for (std::size_t w = 0;;) {
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t next = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        total = util::add_repeated(total, source_power_w(power_source_[start]),
                                   static_cast<std::int64_t>(next - start));
        start = next;
      }
      if (++w == run_starts_.size()) break;
      bits = run_starts_[w];
    }
    total = util::add_repeated(total, source_power_w(power_source_[start]),
                               static_cast<std::int64_t>(power_source_.size() - start));
  }
  total_power_cache_ = total;
  power_clean_ = true;
  return total;
}

std::size_t JobTable::add(JobRow row) {
  const auto id = static_cast<std::size_t>(row.job_id);
  if (by_id_.size() <= id) by_id_.resize(id + 1, SIZE_MAX);
  by_id_[id] = rows_.size();
  const bool running = row.started() && !row.finished();
  rows_.push_back(std::move(row));
  if (running) {
    started_tail_.push_back(rows_.size() - 1);
    ++running_count_;
  }
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
  if (job.finished()) return;
  started_tail_.push_back(index);
  ++running_count_;
}

void JobTable::mark_finished(const std::vector<std::size_t>& indices, double end_s) {
  for (std::size_t index : indices) {
    JobRow& job = rows_[index];
    if (job.finished()) continue;
    job.end_s = end_s;
    if (!job.started()) continue;
    --running_count_;
    finished_since_merge_ = true;
  }
}

void JobTable::merge_running() const {
  // Rows start once, so the tail and the merged set are disjoint; a row
  // that finished before this read since its start is dropped here too.
  std::sort(started_tail_.begin(), started_tail_.end());
  merge_scratch_.clear();
  merge_scratch_.reserve(running_count_);
  auto a = running_.begin();
  auto b = started_tail_.begin();
  while (a != running_.end() || b != started_tail_.end()) {
    const std::size_t i =
        b == started_tail_.end() || (a != running_.end() && *a < *b) ? *a++ : *b++;
    if (!rows_[i].finished()) merge_scratch_.push_back(i);
  }
  running_.swap(merge_scratch_);
  started_tail_.clear();
  finished_since_merge_ = false;
}

void CompletionQueue::set(std::size_t row, double key) {
  if (row >= rows_.size()) rows_.resize(row + 1);
  rows_[row].key = key;
  const bool near = key <= horizon_end_;
  const std::size_t slot = rows_[row].slot;
  if (slot == kAbsent) {
    if (near) {
      heap_push(row, key);
    } else {
      far_push(row);
    }
  } else if ((slot & kFar) != 0) {
    if (near) {  // else the stored key is all that changes
      far_erase(slot & ~kFar);
      heap_push(row, key);
    }
  } else if (near) {
    const double old_key = heap_[slot].key;
    heap_[slot].key = key;
    if (key < old_key) {
      sift_up(slot);
    } else {
      sift_down(slot);
    }
  } else {
    heap_erase(slot);
    far_push(row);
  }
}

void CompletionQueue::erase(std::size_t row) {
  if (!contains(row)) return;
  const std::size_t slot = rows_[row].slot;
  if ((slot & kFar) != 0) {
    far_erase(slot & ~kFar);
  } else {
    heap_erase(slot);
  }
  rows_[row].slot = kAbsent;
}

void CompletionQueue::advance(double t) {
  horizon_end_ = t + horizon_s_;
  for (std::size_t i = 0; i < far_.size();) {
    const std::size_t row = far_[i];
    if (rows_[row].key <= horizon_end_) {
      far_erase(i);  // moves the last far row to i
      heap_push(row, rows_[row].key);
    } else {
      ++i;
    }
  }
}

void CompletionQueue::heap_push(std::size_t row, double key) {
  heap_.push_back({key, row});
  rows_[row].slot = heap_.size() - 1;
  sift_up(heap_.size() - 1);
}

void CompletionQueue::heap_erase(std::size_t slot) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (slot == heap_.size()) return;  // it was the last slot
  place(slot, last);
  if (slot > 0 && last.key < heap_[(slot - 1) / 2].key) {
    sift_up(slot);
  } else {
    sift_down(slot);
  }
}

void CompletionQueue::far_push(std::size_t row) {
  rows_[row].slot = kFar | far_.size();
  far_.push_back(row);
}

void CompletionQueue::far_erase(std::size_t index) {
  const std::size_t moved = far_.back();
  far_[index] = moved;
  rows_[moved].slot = kFar | index;
  far_.pop_back();
}

void CompletionQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(e.key < heap_[parent].key)) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void CompletionQueue::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && heap_[child + 1].key < heap_[child].key) ++child;
    if (!(heap_[child].key < e.key)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

}  // namespace anor::sim
