#include "cluster/reliable_channel.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/logging.hpp"

namespace anor::cluster {

namespace {

telemetry::Counter& counter(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name);
}

}  // namespace

ReliableChannel::ReliableChannel(std::unique_ptr<MessageChannel> owned,
                                 ReliableChannelConfig config)
    : owned_(std::move(owned)),
      inner_(owned_.get()),
      config_(config),
      rng_(config.jitter_seed) {}

ReliableChannel::ReliableChannel(MessageChannel& inner, ReliableChannelConfig config)
    : inner_(&inner), config_(config), rng_(config.jitter_seed) {}

double ReliableChannel::jittered(double backoff_s) {
  if (config_.retry_jitter_frac <= 0.0) return backoff_s;
  const double spread = config_.retry_jitter_frac * backoff_s;
  return backoff_s + rng_.uniform(-0.5 * spread, 0.5 * spread);
}

void ReliableChannel::enqueue_failed(Message message) {
  static auto& failed = counter("transport.send_failed");
  static auto& queued = counter("retry.queued");
  static auto& dropped = counter("transport.outbox_dropped");
  failed.inc();
  if (outbox_.size() >= config_.max_outbox) {
    outbox_.pop_front();
    dropped.inc();
    util::log_warn("reliable-channel", "outbox full; dropped oldest queued message");
  }
  PendingSend pending;
  pending.message = std::move(message);
  pending.backoff_s = config_.retry_initial_backoff_s;
  pending.next_attempt_s = now_s_ + jittered(pending.backoff_s);
  pending.attempts = 1;
  outbox_.push_back(std::move(pending));
  queued.inc();
}

bool ReliableChannel::send(const Message& message) {
  ANOR_PROF_SCOPE("channel.send");
  Message stamped = message;
  set_seq(stamped, ++next_seq_);
  // Preserve order: while older messages wait on retry, new ones queue
  // behind them instead of overtaking.
  if (!outbox_.empty()) {
    enqueue_failed(std::move(stamped));
    flush(now_s_);
    return true;
  }
  if (inner_->send(stamped)) return true;
  util::log_warn("reliable-channel", std::string("send of '") +
                                         std::string(type_name_of(stamped)) +
                                         "' failed; queued for retry");
  enqueue_failed(std::move(stamped));
  return true;
}

void ReliableChannel::flush(double now_s) {
  static auto& attempts = counter("retry.attempts");
  static auto& delivered = counter("retry.delivered");
  while (!outbox_.empty()) {
    PendingSend& head = outbox_.front();
    if (head.next_attempt_s > now_s) break;
    attempts.inc();
    if (inner_->send(head.message)) {
      delivered.inc();
      outbox_.pop_front();
      continue;
    }
    ++head.attempts;
    head.backoff_s = std::min(head.backoff_s * 2.0, config_.retry_max_backoff_s);
    head.next_attempt_s = now_s + jittered(head.backoff_s);
    break;  // keep order: later messages wait for the head
  }
}

void ReliableChannel::poll(double now_s) {
  ANOR_PROF_SCOPE("channel.poll");
  now_s_ = std::max(now_s_, now_s);
  flush(now_s_);
}

std::optional<Message> ReliableChannel::receive() {
  ANOR_PROF_SCOPE("channel.receive");
  flush(now_s_);
  static auto& dups = counter("transport.dup_dropped");
  static auto& gaps = counter("transport.seq_gaps");
  while (auto message = inner_->receive()) {
    const std::uint64_t seq = seq_of(*message);
    if (seq == 0) return message;
    // A hello starts a fresh sequence space (peer restart / rejoin).
    if (std::holds_alternative<JobHelloMsg>(*message)) {
      last_seq_seen_ = seq;
      return message;
    }
    if (seq <= last_seq_seen_) {
      dups.inc();
      continue;
    }
    if (seq != last_seq_seen_ + 1) gaps.inc();
    last_seq_seen_ = seq;
    return message;
  }
  return std::nullopt;
}

}  // namespace anor::cluster
