#include "geopm/comm_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace anor::geopm {

int TreeTopology::child_count(int index) const {
  return std::clamp(node_count - first_child(index), 0, fanout);
}

int TreeTopology::parent_of(int index) const {
  if (index <= 0) return -1;
  return (index - 1) / fanout;
}

int TreeTopology::depth() const {
  int max_depth = 0;
  for (int i = 0; i < node_count; ++i) {
    int depth = 0;
    for (int p = i; p > 0; p = parent_of(p)) ++depth;
    if (depth > max_depth) max_depth = depth;
  }
  return max_depth;
}

AgentTree::AgentTree(TreeTopology topology, std::vector<Agent*> agents)
    : topology_(topology), agents_(std::move(agents)) {
  if (topology_.node_count < 1) throw std::invalid_argument("AgentTree: empty topology");
  if (topology_.fanout < 1) throw std::invalid_argument("AgentTree: fanout < 1");
  if (agents_.size() != static_cast<std::size_t>(topology_.node_count)) {
    throw std::invalid_argument("AgentTree: agent count != node count");
  }
  for (Agent* a : agents_) {
    if (a == nullptr) throw std::invalid_argument("AgentTree: null agent");
  }
  const auto count = static_cast<std::size_t>(topology_.node_count);
  policies_.resize(count);
  sample_offset_.resize(count);
  int offset = 0;
  for (int i = 0; i < topology_.node_count; ++i) {
    sample_offset_[static_cast<std::size_t>(i)] = offset;
    offset += 1 + topology_.child_count(i);
  }
  samples_.resize(static_cast<std::size_t>(offset));
}

void AgentTree::distribute_from(int index, const Policy& policy) {
  Agent& agent = *agents_[static_cast<std::size_t>(index)];
  agent.adjust_platform(policy);
  const int count = topology_.child_count(index);
  if (count == 0) return;
  const int first = topology_.first_child(index);
  const std::span<Policy> split(policies_.data() + first, static_cast<std::size_t>(count));
  agent.split_policy(policy, split);
  for (int c = 0; c < count; ++c) distribute_from(first + c, split[static_cast<std::size_t>(c)]);
}

void AgentTree::distribute_policy(const Policy& policy) {
  agents_.front()->validate_policy(policy);
  distribute_from(0, policy);
}

Sample AgentTree::reduce_from(int index) {
  Agent& agent = *agents_[static_cast<std::size_t>(index)];
  const int count = topology_.child_count(index);
  const int first = topology_.first_child(index);
  Sample* samples = samples_.data() + sample_offset_[static_cast<std::size_t>(index)];
  samples[0] = agent.sample_platform();
  for (int c = 0; c < count; ++c) samples[1 + c] = reduce_from(first + c);
  const std::span<const Sample> reduced(samples, static_cast<std::size_t>(1 + count));
  agent.observe_child_samples(reduced);
  return agent.aggregate_samples(reduced);
}

Sample AgentTree::reduce_samples() { return reduce_from(0); }

}  // namespace anor::geopm
