// GEOPM endpoint: the shared-memory interface between the agent tree's
// root and the job-tier power modeler.
//
// The modeler writes policies (new power caps) and reads summarized state
// updates (samples) — paper Sec. 4.  Both directions go through SPSC ring
// buffers, mimicking the lock-free shmem mailboxes of the real endpoint.
// Every record carries a virtual timestamp: the paper calls out
// asynchronous sample management across tiers as a practical challenge
// (Sec. 7.2), and timestamps are its fix.  Records hold the fixed-size
// Policy and Sample arrays, so the rings move plain values, and the
// modeler drains samples into a buffer it keeps across periods: neither
// side allocates per record.
#pragma once

#include <mutex>
#include <optional>
#include <vector>

#include "geopm/signals.hpp"
#include "util/ring_buffer.hpp"

namespace anor::geopm {

struct TimedPolicy {
  double timestamp_s = 0.0;
  Policy policy{};
};

struct TimedSample {
  double timestamp_s = 0.0;
  Sample sample{};
};

class Endpoint {
 public:
  explicit Endpoint(std::size_t ring_capacity = 64)
      : policies_(ring_capacity), samples_(ring_capacity) {}

  // ---- modeler (writer) side ----
  /// Queue a policy for the agent; returns false if the ring is full
  /// (callers treat a full ring as "agent stalled" and retry next period).
  bool write_policy(double timestamp_s, const Policy& policy);

  /// Drain all pending samples into `drained` (its previous contents are
  /// replaced), newest last.  Returns the number drained.
  std::size_t read_samples(std::vector<TimedSample>& drained);

  /// Most recent sample ever read (age bookkeeping for the modeler).
  std::optional<TimedSample> latest_sample() const;

  // ---- agent (reader) side ----
  /// Latest pending policy (intermediate queued policies are superseded,
  /// as only the newest cap matters); nullopt when none pending.
  std::optional<TimedPolicy> read_policy();

  bool write_sample(double timestamp_s, const Sample& sample);

 private:
  util::SpscRingBuffer<TimedPolicy> policies_;
  util::SpscRingBuffer<TimedSample> samples_;
  mutable std::mutex latest_mutex_;
  std::optional<TimedSample> latest_sample_;
};

}  // namespace anor::geopm
