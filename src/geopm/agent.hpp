// Agent interface of the GEOPM-like runtime.
//
// Agents periodically read signals and write controls in response
// (paper Sec. 4).  A multi-node job runs one agent instance per node; the
// instances form a communication tree (comm_tree.hpp).  Policies flow down
// the tree, samples aggregate up; the root's samples are visible through
// the endpoint.  Both are fixed-size records (signals.hpp): an agent
// returns its sample by value and reads or writes its children's records
// through spans over the tree's scratch, so a control step allocates
// nothing.
#pragma once

#include <span>
#include <string>

#include "geopm/platform_io.hpp"
#include "geopm/signals.hpp"

namespace anor::geopm {

class Agent {
 public:
  virtual ~Agent() = default;

  virtual std::string name() const = 0;

  /// Sanity-check a policy; throw ConfigError on bad values.
  virtual void validate_policy(const Policy& policy) const = 0;

  /// Apply a policy to this node through PlatformIO (leaf level).
  virtual void adjust_platform(const Policy& policy) = 0;

  /// Read this node's signals into a sample (leaf level).
  virtual Sample sample_platform() = 0;

  /// Split a policy received from the parent across the children, one
  /// record per child in child order (the tree owns the records).  The
  /// default broadcasts unchanged.
  virtual void split_policy(const Policy& policy, std::span<Policy> children) const;

  /// Called during the reduce with this tree node's child samples (its own
  /// sample first, then one aggregate per child subtree, in child order).
  /// Balancing agents remember these to steer the next policy split; the
  /// default ignores them.
  virtual void observe_child_samples(std::span<const Sample> samples);

  /// Aggregate child samples into one sample for the parent.
  virtual Sample aggregate_samples(std::span<const Sample> child_samples) const = 0;

  /// Control-loop period in seconds.
  virtual double period_s() const { return 0.5; }
};

}  // namespace anor::geopm
