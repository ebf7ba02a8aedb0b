// Hierarchical agent communication tree.
//
// Agents on multi-node jobs interact across nodes through a balanced
// k-ary tree (paper Sec. 4.3): when the endpoint sends a new power cap to
// the root, the cap fans out level by level to every agent instance;
// samples reduce up the same tree.  We build the tree explicitly — with
// per-link latency accounting — so the communication structure and its
// aggregation semantics are tested, even though all agents of an emulated
// job live in one process.
#pragma once

#include <vector>

#include "geopm/agent.hpp"

namespace anor::geopm {

struct TreeTopology {
  int node_count = 1;
  int fanout = 4;

  /// Children of tree position `index` are the contiguous positions
  /// [first_child(index), first_child(index) + child_count(index)).
  int first_child(int index) const { return index * fanout + 1; }
  int child_count(int index) const;
  /// Parent of position `index`, or -1 for the root (index 0).
  int parent_of(int index) const;
  /// Tree depth (root at depth 0); the deepest leaf's depth.
  int depth() const;
};

/// Runs the fan-out / reduce protocol over a set of per-node agents.
/// Agents are owned by the caller (the job Controller); the tree only
/// choreographs them.  The records every position exchanges live in
/// scratch sized at construction, so neither direction allocates.
class AgentTree {
 public:
  /// All agents must outlive the tree; agents[0] is the root.
  AgentTree(TreeTopology topology, std::vector<Agent*> agents);

  const TreeTopology& topology() const { return topology_; }

  /// Fan a policy out from the root to every agent and apply it at each
  /// leaf level (every agent applies; GEOPM applies at leaves, and every
  /// tree node is also a leaf for its own hardware).
  void distribute_policy(const Policy& policy);

  /// Sample every agent and reduce up the tree; returns the root sample.
  Sample reduce_samples();

  /// Number of tree hops a policy traverses root→deepest leaf; used to
  /// model propagation latency in the emulation.
  int propagation_hops() const { return topology_.depth(); }

 private:
  Sample reduce_from(int index);
  void distribute_from(int index, const Policy& policy);

  TreeTopology topology_;
  std::vector<Agent*> agents_;
  /// policies_[c] is the record position c's parent split to it.
  std::vector<Policy> policies_;
  /// Position i reduces [own sample, one per child] at
  /// samples_[sample_offset_[i]...].
  std::vector<Sample> samples_;
  std::vector<int> sample_offset_;
};

}  // namespace anor::geopm
