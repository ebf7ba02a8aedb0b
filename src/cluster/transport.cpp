#include "cluster/transport.hpp"

#include <vector>

#include "telemetry/metrics.hpp"

namespace anor::cluster {

namespace {

struct TimedMessage {
  double deliver_at_s = 0.0;
  Message message;
};

/// Shared state of one direction of the in-process link: a FIFO in a ring
/// of power-of-two size that doubles when full and never shrinks, so a
/// warm link queues and delivers without allocating.
struct Pipe {
  std::vector<TimedMessage> ring;
  std::size_t head = 0;   // slot of the oldest queued message
  std::size_t count = 0;  // queued messages
  bool open = true;

  void push(double deliver_at_s, const Message& message) {
    if (count == ring.size()) grow();
    TimedMessage& slot = ring[(head + count) & (ring.size() - 1)];
    slot.deliver_at_s = deliver_at_s;
    slot.message = message;
    ++count;
  }

  const TimedMessage& front() const { return ring[head]; }

  Message pop() {
    Message message = std::move(ring[head].message);
    head = (head + 1) & (ring.size() - 1);
    --count;
    return message;
  }

  void grow() {
    std::vector<TimedMessage> larger(ring.empty() ? 8 : 2 * ring.size());
    for (std::size_t i = 0; i < count; ++i) {
      larger[i] = std::move(ring[(head + i) & (ring.size() - 1)]);
    }
    ring = std::move(larger);
    head = 0;
  }
};

/// No locks: both ends of a pair belong to one serially stepped run (see
/// make_inproc_pair).
class InprocChannel final : public MessageChannel {
 public:
  InprocChannel(const util::VirtualClock& clock, double latency_s, std::shared_ptr<Pipe> out,
                std::shared_ptr<Pipe> in)
      : clock_(&clock), latency_s_(latency_s), out_(std::move(out)), in_(std::move(in)) {}

  ~InprocChannel() override {
    // Closing one end tears down the link in both directions, as a socket
    // close would.
    out_->open = false;
    in_->open = false;
  }

  bool send(const Message& message) override {
    if (!out_->open) return false;
    out_->push(clock_->now() + latency_s_, message);
    static auto& sent =
        telemetry::MetricsRegistry::global().counter("cluster.transport.inproc.sent");
    sent.inc();
    return true;
  }

  std::optional<Message> receive() override {
    if (in_->count == 0) return std::nullopt;
    if (in_->front().deliver_at_s > clock_->now()) return std::nullopt;
    std::optional<Message> message(in_->pop());
    static auto& received =
        telemetry::MetricsRegistry::global().counter("cluster.transport.inproc.received");
    received.inc();
    return message;
  }

  bool connected() const override { return in_->open || in_->count != 0; }

 private:
  const util::VirtualClock* clock_;
  double latency_s_;
  std::shared_ptr<Pipe> out_;
  std::shared_ptr<Pipe> in_;
};

}  // namespace

InprocPair make_inproc_pair(const util::VirtualClock& clock, double latency_s) {
  auto a_to_b = std::make_shared<Pipe>();
  auto b_to_a = std::make_shared<Pipe>();
  InprocPair pair;
  pair.a = std::make_unique<InprocChannel>(clock, latency_s, a_to_b, b_to_a);
  pair.b = std::make_unique<InprocChannel>(clock, latency_s, b_to_a, a_to_b);
  return pair;
}

}  // namespace anor::cluster
