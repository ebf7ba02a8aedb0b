// Message transports between the power-management tiers.
//
// The experiments use a deterministic in-process channel whose delivery
// obeys the virtual clock (messages become visible `latency_s` after
// sending); an equivalent real TCP transport lives in tcp_transport.hpp
// and is exercised by integration tests and the tcp_demo example.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "cluster/messages.hpp"
#include "util/clock.hpp"

namespace anor::cluster {

/// One end of a bidirectional message channel.
class MessageChannel {
 public:
  virtual ~MessageChannel() = default;

  /// Queue a message to the peer.  Returns false if the channel is down.
  virtual bool send(const Message& message) = 0;

  /// Non-blocking receive; nullopt when nothing is deliverable yet.
  virtual std::optional<Message> receive() = 0;

  virtual bool connected() const = 0;
};

/// A pair of in-process channel ends with per-direction latency measured
/// on a shared virtual clock.
struct InprocPair {
  std::unique_ptr<MessageChannel> a;  // e.g. cluster-manager side
  std::unique_ptr<MessageChannel> b;  // e.g. job-endpoint side
};

/// Create a connected pair.  The clock must outlive both ends.  Messages
/// sent at time t become receivable at t + latency_s.
///
/// Thread contract: the pair takes no lock.  Both ends and the clock must
/// be used from one thread at a time, as they are inside one emulated run
/// (which steps serially; whole runs go to the sweep's run workers, never
/// single ends).  Handing a pair to another thread needs a happens-before
/// edge, as a thread start or a join gives.
InprocPair make_inproc_pair(const util::VirtualClock& clock, double latency_s = 0.005);

}  // namespace anor::cluster
