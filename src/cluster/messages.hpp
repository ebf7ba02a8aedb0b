// Wire protocol between the cluster-tier manager and per-job endpoints.
//
// Paper Fig. 2: the cluster power budgeter and the job-tier power modeler
// exchange messages over TCP — budgets flow down, models flow up.  Frames
// are JSON texts (length-prefixed on stream transports) so both the
// deterministic in-process channel and the real TCP loopback speak the
// same encoding.
//
// Failure hardening: every message carries a per-channel sequence number
// (stamped by cluster::ReliableChannel) so receivers can reject
// duplicates and stale reorders, and stream transports frame the payload
// with an FNV-1a checksum so corrupted frames are rejected instead of
// being decoded into garbage state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "util/json.hpp"

namespace anor::cluster {

/// Job announces itself to the cluster manager when it starts.
struct JobHelloMsg {
  int job_id = 0;
  std::string job_name;
  std::string classified_as;  // job type the batch system classified this as
  int nodes = 1;
  double timestamp_s = 0.0;
  std::uint64_t seq = 0;
};

/// Cluster manager assigns a per-node power cap to a job.
struct PowerBudgetMsg {
  int job_id = 0;
  double node_cap_w = 0.0;
  double timestamp_s = 0.0;
  std::uint64_t seq = 0;
};

/// Job tier publishes its current power-performance model.
struct ModelUpdateMsg {
  int job_id = 0;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double p_min_w = 0.0;
  double p_max_w = 0.0;
  double r2 = 0.0;
  bool from_feedback = false;  // fitted/reclassified online vs precharacterized
  double timestamp_s = 0.0;
  std::uint64_t seq = 0;
};

/// Job finished; the manager drops it from budgeting.
struct JobGoodbyeMsg {
  int job_id = 0;
  double timestamp_s = 0.0;
  std::uint64_t seq = 0;
};

/// Liveness beacon.  Endpoints send these so a silent job can be declared
/// dead after its lease; the manager sends them so endpoints can detect a
/// quiet head node and decay to a safe cap.
struct HeartbeatMsg {
  int job_id = 0;
  double timestamp_s = 0.0;
  std::uint64_t seq = 0;
};

using Message =
    std::variant<JobHelloMsg, PowerBudgetMsg, ModelUpdateMsg, JobGoodbyeMsg, HeartbeatMsg>;

/// JSON encoding (a {"type": ..., ...} object).
util::Json encode(const Message& message);
Message decode(const util::Json& json);

std::string encode_text(const Message& message);
Message decode_text(const std::string& text);

/// The job id of any message.
int job_id_of(const Message& message);

/// The channel sequence number of any message (0 = unstamped).
std::uint64_t seq_of(const Message& message);
void set_seq(Message& message, std::uint64_t seq);

/// Short type tag ("hello", "budget", ...) for logs and fault traces.
std::string_view type_name_of(const Message& message);

/// FNV-1a 32-bit checksum over a serialized payload.
std::uint32_t message_checksum(std::string_view payload_text);

/// Checksummed frame: {"crc": <fnv1a32 of compact msg text>, "msg": {...}}.
/// decode_framed_text throws util::TransportError on malformed JSON, a
/// missing/invalid frame shape, or a checksum mismatch — hostile or
/// bit-flipped bytes are rejected instead of reaching the control plane.
/// Unframed text ({"type": ...} at top level) is rejected the same way:
/// every sender frames, and an unframed message would skip the checksum.
std::string encode_framed_text(const Message& message);
Message decode_framed_text(const std::string& text);

}  // namespace anor::cluster
