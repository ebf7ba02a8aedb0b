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
// JobController::control_step allocate nothing.  The head node's tick
// holds to the same between rebudgets: polling a job's channel, taking
// its heartbeat, the liveness checks and heartbeating it back.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <variant>
#include <vector>

#include "cluster/cluster_manager.hpp"
#include "cluster/messages.hpp"
#include "cluster/reliable_channel.hpp"
#include "cluster/transport.hpp"
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

TEST(SteadyStateAllocation, HeadNodeTickAllocatesNothing) {
  util::VirtualClock clock;
  cluster::ClusterManagerConfig config;
  config.cluster_nodes = 4;
  config.control_period_s = 1000.0;  // one rebudget, at registration
  config.heartbeat_period_s = 1.0;   // a heartbeat down on every tick
  cluster::ClusterManager manager(config);
  cluster::InprocPair pair = cluster::make_inproc_pair(clock, 0.01);
  manager.attach_channel(std::move(pair.a));
  cluster::ReliableChannel endpoint(*pair.b);

  cluster::JobHelloMsg hello;
  hello.job_id = 1;
  hello.job_name = "bt.D.x#1";
  hello.classified_as = "bt.D.x";
  hello.nodes = 2;
  ASSERT_TRUE(endpoint.send(hello));
  std::size_t beats_down = 0;
  const auto tick = [&] {
    clock.advance(1.0);
    endpoint.poll(clock.now());
    cluster::HeartbeatMsg beat;
    beat.job_id = 1;
    beat.timestamp_s = clock.now();
    endpoint.send(beat);
    manager.step(clock.now());
    while (auto message = endpoint.receive()) {
      if (std::holds_alternative<cluster::HeartbeatMsg>(*message)) ++beats_down;
    }
  };

  // Warm-up: registration and its rebudget, the budget message, the
  // links' first ring slots and the metric handles, the lease counter's
  // at the first liveness scan (once a lease may be 6 s old).
  for (int i = 0; i < 10; ++i) tick();
  ASSERT_EQ(manager.active_jobs(), 1u);
  const std::size_t beats_before = beats_down;
  std::size_t allocations = 0;
  {
    const AllocationScope scope;
    for (int i = 0; i < 100; ++i) tick();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(beats_down - beats_before, 100u);
  EXPECT_EQ(manager.active_jobs(), 1u);
  EXPECT_FALSE(manager.liveness_suspect());
  EXPECT_EQ(manager.leases_expired(), 0u);
}

}  // namespace
}  // namespace anor
