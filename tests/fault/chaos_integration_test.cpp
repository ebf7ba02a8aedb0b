// Closed-loop chaos acceptance: the hardened two-tier stack under the
// drop10_crash1 plan recovers to within 5 % of the power target with no
// budget leaked to dead jobs, and identical plan + seed replays a
// byte-identical fault-event trace.
#include "fault/chaos.hpp"

#include <gtest/gtest.h>

#include <string>

#include "fault/fault_plan.hpp"
#include "util/hash.hpp"

namespace anor::fault {
namespace {

TEST(ChaosIntegration, CleanRunTracksWithoutFaults) {
  ChaosConfig config;
  config.plan = FaultPlan::preset("none");
  config.duration_s = 120.0;
  const ChaosResult result = run_chaos(config);
  EXPECT_EQ(result.fault_events, 0u);
  EXPECT_EQ(result.leases_expired, 0u);
  EXPECT_TRUE(result.recovered);
  EXPECT_LE(result.final_error_frac, config.recovery_band_frac);
  EXPECT_DOUBLE_EQ(result.leaked_budget_w, 0.0);
  EXPECT_TRUE(result.event_trace.empty());
}

TEST(ChaosIntegration, AcceptanceDropTenPercentPlusOneCrash) {
  ChaosConfig config;
  config.plan = FaultPlan::preset("drop10_crash1");
  const ChaosResult result = run_chaos(config);

  // Faults actually flew and the crash cost the dead job its lease.
  EXPECT_GT(result.fault_events, 0u);
  EXPECT_GE(result.leases_expired, 1u);
  EXPECT_NE(result.event_trace.find("kind=crash"), std::string::npos);
  EXPECT_NE(result.event_trace.find("kind=restart"), std::string::npos);
  EXPECT_NE(result.event_trace.find("kind=drop"), std::string::npos);

  // The acceptance bar: recovery into the 5 % band, nothing allocated to
  // the dead.
  EXPECT_TRUE(result.recovered);
  EXPECT_LE(result.final_error_frac, 0.05);
  EXPECT_GE(result.recovery_latency_s, 0.0);
  EXPECT_DOUBLE_EQ(result.leaked_budget_w, 0.0);
}

TEST(ChaosIntegration, SamePlanAndSeedReplayByteIdenticalTraces) {
  ChaosConfig config;
  config.plan = FaultPlan::preset("drop10_crash1");
  const ChaosResult first = run_chaos(config);
  const ChaosResult second = run_chaos(config);
  EXPECT_FALSE(first.event_trace.empty());
  EXPECT_EQ(first.event_trace, second.event_trace);
  EXPECT_EQ(first.leases_expired, second.leases_expired);
  EXPECT_DOUBLE_EQ(first.final_error_frac, second.final_error_frac);
}

TEST(ChaosIntegration, DifferentFaultSeedChangesTheTrace) {
  ChaosConfig config;
  config.plan = FaultPlan::preset("drop10");
  const ChaosResult first = run_chaos(config);
  config.plan.seed = 2;
  const ChaosResult second = run_chaos(config);
  EXPECT_FALSE(first.event_trace.empty());
  EXPECT_NE(first.event_trace, second.event_trace);
}

// The fault-event traces themselves, pinned: the replay tests above only
// check that two runs agree, so a change to when the manager polls its
// channels (which releases delayed sends) would pass them unnoticed.
TEST(ChaosIntegration, GoldenEventTraceDropTenPercentPlusOneCrash) {
  ChaosConfig config;
  config.plan = FaultPlan::preset("drop10_crash1");
  const ChaosResult result = run_chaos(config);
  EXPECT_EQ(result.event_trace.size(), 5903u);
  EXPECT_EQ(util::hex16(util::fnv1a(result.event_trace)), "34fbbae98e14bd66");
}

TEST(ChaosIntegration, GoldenEventTraceKitchenSink) {
  ChaosConfig config;
  config.plan = FaultPlan::preset("chaos");
  const ChaosResult result = run_chaos(config);
  EXPECT_EQ(result.event_trace.size(), 31540u);
  EXPECT_EQ(util::hex16(util::fnv1a(result.event_trace)), "4dcd9a9c774c4dda");
}

TEST(ChaosIntegration, KitchenSinkPlanStillRecovers) {
  ChaosConfig config;
  config.plan = FaultPlan::preset("chaos");
  const ChaosResult result = run_chaos(config);
  EXPECT_GT(result.fault_events, 0u);
  EXPECT_TRUE(result.recovered);
  EXPECT_DOUBLE_EQ(result.leaked_budget_w, 0.0);
}

}  // namespace
}  // namespace anor::fault
