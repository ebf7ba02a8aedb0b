// Reliability decorator for the tier link.
//
// `MessageChannel::send()` can fail (socket backpressure, injected faults,
// a peer mid-restart) and the bare channels deliver whatever arrives, in
// whatever order.  ReliableChannel wraps any channel with the hardening
// both tiers need:
//
//   - outbound: every message is stamped with a per-channel sequence
//     number; failed sends land in a bounded outbox and are retried with
//     exponential backoff plus deterministic jitter (seeded, so emulated
//     runs stay reproducible).  The outbox preserves send order; when it
//     overflows, the oldest (most stale) message is dropped — the
//     protocol is state-carrying, so the newest budget/model always wins.
//   - inbound: duplicates and stale reorders (seq <= last seen) are
//     rejected; sequence gaps are counted.  A JobHello resets the window,
//     so a restarted peer with a fresh sequence space rejoins cleanly.
//
// All decisions run on virtual time supplied through poll(); the decorator
// never sleeps or reads a wall clock.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "cluster/transport.hpp"
#include "util/rng.hpp"

namespace anor::cluster {

struct ReliableChannelConfig {
  /// First retry delay after a failed send; doubles per attempt.
  double retry_initial_backoff_s = 0.5;
  double retry_max_backoff_s = 8.0;
  /// Fractional jitter applied to each backoff (+/- half the fraction).
  double retry_jitter_frac = 0.2;
  /// Outbox capacity; overflowing drops the oldest queued message.
  std::size_t max_outbox = 64;
  /// Seed for the (deterministic) retry jitter stream.
  std::uint64_t jitter_seed = 1;
};

class ReliableChannel final : public MessageChannel {
 public:
  /// Owning wrap (manager side: channels arrive by unique_ptr).
  ReliableChannel(std::unique_ptr<MessageChannel> owned,
                  ReliableChannelConfig config = {});
  /// Non-owning wrap (endpoint side: the channel outlives the process).
  ReliableChannel(MessageChannel& inner, ReliableChannelConfig config = {});

  /// Stamp, try to send, and on failure queue for retry.  Returns false
  /// only when the message could not even be queued (overflow dropped it).
  bool send(const Message& message) override;

  /// Flush due retries, then receive with duplicate/stale rejection.
  std::optional<Message> receive() override;

  bool connected() const override { return inner_->connected(); }

  /// Advance the retry clock and resend queued messages that are due.
  /// Call once per control-loop iteration.
  void poll(double now_s);

  std::size_t outbox_size() const { return outbox_.size(); }
  const ReliableChannelConfig& config() const { return config_; }
  MessageChannel& inner() { return *inner_; }

 private:
  struct PendingSend {
    Message message;
    double next_attempt_s = 0.0;
    double backoff_s = 0.0;
    int attempts = 0;
  };

  void enqueue_failed(Message message);
  void flush(double now_s);
  double jittered(double backoff_s);

  std::unique_ptr<MessageChannel> owned_;
  MessageChannel* inner_;
  ReliableChannelConfig config_;
  util::Rng rng_;
  std::deque<PendingSend> outbox_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_seq_seen_ = 0;
  double now_s_ = 0.0;
};

}  // namespace anor::cluster
