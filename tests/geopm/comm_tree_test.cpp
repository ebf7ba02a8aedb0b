#include "geopm/comm_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "geopm/signals.hpp"

namespace anor::geopm {
namespace {

/// Scripted agent for exercising the tree choreography without hardware.
class ScriptedAgent final : public Agent {
 public:
  explicit ScriptedAgent(double power) : power_(power) {}

  std::string name() const override { return "scripted"; }
  void validate_policy(const Policy& policy) const override {
    if (!(policy[kPolicyPowerCap] > 0.0)) throw std::invalid_argument("zero cap");
  }
  void adjust_platform(const Policy& policy) override {
    applied_policies.push_back(policy[0]);
  }
  Sample sample_platform() override {
    Sample sample{};
    sample[kSamplePower] = power_;
    sample[kSampleEpochCount] = power_;  // distinct per agent for min checks
    return sample;
  }
  Sample aggregate_samples(std::span<const Sample> child_samples) const override {
    Sample agg{};
    double min_epoch = child_samples.front()[kSampleEpochCount];
    for (const auto& s : child_samples) {
      agg[kSamplePower] += s[kSamplePower];
      min_epoch = std::min(min_epoch, s[kSampleEpochCount]);
    }
    agg[kSampleEpochCount] = min_epoch;
    return agg;
  }

  std::vector<double> applied_policies;

 private:
  double power_;
};

/// Children of `index` as a list, from the topology's arithmetic.
std::vector<int> children_of(const TreeTopology& topo, int index) {
  std::vector<int> children;
  for (int c = 0; c < topo.child_count(index); ++c) children.push_back(topo.first_child(index) + c);
  return children;
}

TEST(TreeTopology, SingleNode) {
  TreeTopology topo{1, 4};
  EXPECT_TRUE(children_of(topo, 0).empty());
  EXPECT_EQ(topo.parent_of(0), -1);
  EXPECT_EQ(topo.depth(), 0);
}

TEST(TreeTopology, FanoutStructure) {
  TreeTopology topo{7, 2};
  EXPECT_EQ(children_of(topo, 0), (std::vector<int>{1, 2}));
  EXPECT_EQ(children_of(topo, 1), (std::vector<int>{3, 4}));
  EXPECT_EQ(children_of(topo, 2), (std::vector<int>{5, 6}));
  EXPECT_TRUE(children_of(topo, 3).empty());
  EXPECT_EQ(topo.parent_of(5), 2);
  EXPECT_EQ(topo.depth(), 2);
}

TEST(TreeTopology, PartialLastLevel) {
  TreeTopology topo{5, 4};
  EXPECT_EQ(children_of(topo, 0), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(children_of(topo, 1).empty());
  EXPECT_EQ(topo.depth(), 1);
}

TEST(AgentTree, ValidatesConstruction) {
  ScriptedAgent agent(1.0);
  EXPECT_THROW(AgentTree(TreeTopology{0, 4}, {}), std::invalid_argument);
  EXPECT_THROW(AgentTree(TreeTopology{2, 4}, {&agent}), std::invalid_argument);
  EXPECT_THROW(AgentTree(TreeTopology{1, 0}, {&agent}), std::invalid_argument);
  EXPECT_THROW(AgentTree(TreeTopology{1, 4}, {nullptr}), std::invalid_argument);
}

TEST(AgentTree, PolicyReachesEveryAgent) {
  std::vector<ScriptedAgent> agents(9, ScriptedAgent(10.0));
  std::vector<Agent*> ptrs;
  for (auto& a : agents) ptrs.push_back(&a);
  AgentTree tree(TreeTopology{9, 2}, ptrs);
  tree.distribute_policy({180.0});
  for (const auto& a : agents) {
    ASSERT_EQ(a.applied_policies.size(), 1u);
    EXPECT_DOUBLE_EQ(a.applied_policies[0], 180.0);
  }
}

TEST(AgentTree, ReduceSumsPowerAcrossAllNodes) {
  std::vector<ScriptedAgent> agents;
  agents.reserve(6);
  for (int i = 0; i < 6; ++i) agents.emplace_back(100.0 + i);
  std::vector<Agent*> ptrs;
  for (auto& a : agents) ptrs.push_back(&a);
  AgentTree tree(TreeTopology{6, 3}, ptrs);
  const auto sample = tree.reduce_samples();
  EXPECT_DOUBLE_EQ(sample[kSamplePower], 100 + 101 + 102 + 103 + 104 + 105);
  EXPECT_DOUBLE_EQ(sample[kSampleEpochCount], 100.0);  // min
}

TEST(AgentTree, PropagationHopsEqualsDepth) {
  std::vector<ScriptedAgent> agents(16, ScriptedAgent(1.0));
  std::vector<Agent*> ptrs;
  for (auto& a : agents) ptrs.push_back(&a);
  AgentTree tree(TreeTopology{16, 4}, ptrs);
  EXPECT_EQ(tree.propagation_hops(), 2);
}

TEST(AgentTree, InvalidPolicyRejectedBeforeDistribution) {
  ScriptedAgent agent(1.0);
  AgentTree tree(TreeTopology{1, 4}, {&agent});
  EXPECT_THROW(tree.distribute_policy({}), std::invalid_argument);
  EXPECT_TRUE(agent.applied_policies.empty());
}

}  // namespace
}  // namespace anor::geopm
