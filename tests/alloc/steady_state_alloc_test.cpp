// The emulated tier's steady-state tick allocates nothing.
//
// Every emulated control period steps the hardware (RAPL registers,
// package response) and runs each job's agent tree: PlatformIO batches,
// policy split, sample reduce, endpoint rings.  Those layers keep their
// records in fixed-size arrays and scratch sized when a job starts, which
// is what makes a tick's cost small constant work per node and per job.
// This executable replaces the global operator new with a counting one
// (counting only inside a scope, on the calling thread) and pins that
// property: after one warm-up tick, 100 ticks of ClusterHw::step plus
// JobController::control_step allocate nothing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "geopm/controller.hpp"
#include "geopm/signals.hpp"
#include "platform/cluster_hw.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "workload/job_type.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t size, std::size_t alignment) {
  if (t_counting) ++t_allocations;
  if (size == 0) size = 1;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Counts this thread's operator-new calls while alive.
class AllocationScope {
 public:
  AllocationScope() {
    t_allocations = 0;
    t_counting = true;
  }
  ~AllocationScope() { t_counting = false; }
  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;

  std::size_t count() const { return t_allocations; }
};

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace anor {
namespace {

constexpr int kNodes = 8;

/// Operator-new calls over 100 steady-state ticks of an 8-node job held
/// at a fixed cap, one control step per tick.
std::size_t steady_state_allocations(geopm::AgentKind agent) {
  util::VirtualClock clock;
  platform::ClusterHwConfig hw_config;
  hw_config.node_count = kNodes;
  hw_config.perf_variation_sigma = 0.06;  // nodes drift apart: the balancer shifts power
  platform::ClusterHw hw(hw_config, util::Rng(11));
  std::vector<platform::Node*> nodes;
  for (int n = 0; n < kNodes; ++n) nodes.push_back(&hw.node(n));

  geopm::ControllerConfig config;
  config.agent = agent;
  geopm::JobController controller("alloc-" + std::to_string(static_cast<int>(agent)),
                                  workload::find_job_type("bt.D.x"), nodes, clock,
                                  util::Rng(5), config);
  controller.endpoint().write_policy(0.0, geopm::Policy{200.0});
  std::vector<geopm::TimedSample> drained;
  drained.reserve(64);
  const double dt = config.control_period_s;
  const auto tick = [&] {
    clock.advance(dt);
    hw.step(dt);
    controller.control_step(clock.now());
    controller.endpoint().read_samples(drained);
  };

  // Warm-up: the cap change, metric handles and the balancer's lag state.
  tick();
  std::size_t allocations = 0;
  {
    const AllocationScope scope;
    for (int i = 0; i < 100; ++i) tick();
    allocations = scope.count();
  }
  EXPECT_FALSE(controller.complete());
  EXPECT_EQ(drained.size(), 1u);
  EXPECT_DOUBLE_EQ(controller.current_cap_w(), 200.0);
  return allocations;
}

TEST(SteadyStateAllocation, CountsInsideTheScopeOnly) {
  std::size_t counted = 0;
  {
    const AllocationScope scope;
    auto* boxed = new std::vector<double>(16, 1.0);  // two allocations
    delete boxed;
    counted = scope.count();
  }
  EXPECT_EQ(counted, 2u);
  const std::vector<double> outside(16, 1.0);
  EXPECT_EQ(outside.size(), 16u);
  const AllocationScope later;
  EXPECT_EQ(later.count(), 0u);
}

TEST(SteadyStateAllocation, GovernorTickAllocatesNothing) {
  EXPECT_EQ(steady_state_allocations(geopm::AgentKind::kPowerGovernor), 0u);
}

TEST(SteadyStateAllocation, BalancerTickAllocatesNothing) {
  EXPECT_EQ(steady_state_allocations(geopm::AgentKind::kPowerBalancer), 0u);
}

}  // namespace
}  // namespace anor
