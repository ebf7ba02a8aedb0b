#include "cluster/messages.hpp"

#include "util/error.hpp"

namespace anor::cluster {

namespace {

/// An integer field of a wire message.  A frame may carry any number
/// there, so it is read exactly (util::checked_integer) rather than cast:
/// out of range, a cast is undefined and wraps in practice.
template <class T>
T wire_integer(const util::Json& value, const char* key) {
  try {
    return util::checked_integer<T>(value, key);
  } catch (const util::ConfigError& error) {
    throw util::TransportError(std::string("bad message field: ") + error.what());
  }
}

}  // namespace

util::Json encode(const Message& message) {
  util::JsonObject obj;
  std::visit(
      [&obj](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, JobHelloMsg>) {
          obj["type"] = util::Json("hello");
          obj["job_id"] = util::Json(msg.job_id);
          obj["job_name"] = util::Json(msg.job_name);
          obj["classified_as"] = util::Json(msg.classified_as);
          obj["nodes"] = util::Json(msg.nodes);
        } else if constexpr (std::is_same_v<T, PowerBudgetMsg>) {
          obj["type"] = util::Json("budget");
          obj["job_id"] = util::Json(msg.job_id);
          obj["node_cap_w"] = util::Json(msg.node_cap_w);
        } else if constexpr (std::is_same_v<T, ModelUpdateMsg>) {
          obj["type"] = util::Json("model");
          obj["job_id"] = util::Json(msg.job_id);
          obj["a"] = util::Json(msg.a);
          obj["b"] = util::Json(msg.b);
          obj["c"] = util::Json(msg.c);
          obj["p_min_w"] = util::Json(msg.p_min_w);
          obj["p_max_w"] = util::Json(msg.p_max_w);
          obj["r2"] = util::Json(msg.r2);
          obj["from_feedback"] = util::Json(msg.from_feedback);
        } else if constexpr (std::is_same_v<T, JobGoodbyeMsg>) {
          obj["type"] = util::Json("goodbye");
          obj["job_id"] = util::Json(msg.job_id);
        } else if constexpr (std::is_same_v<T, HeartbeatMsg>) {
          obj["type"] = util::Json("hb");
          obj["job_id"] = util::Json(msg.job_id);
        }
        obj["t"] = util::Json(msg.timestamp_s);
        if (msg.seq != 0) obj["seq"] = util::Json(static_cast<double>(msg.seq));
      },
      message);
  return util::Json(std::move(obj));
}

Message decode(const util::Json& json) {
  const std::string& type = json.at("type").as_string();
  const std::uint64_t seq =
      json.contains("seq") ? wire_integer<std::uint64_t>(json.at("seq"), "seq") : 0;
  if (type == "hello") {
    JobHelloMsg msg;
    msg.job_id = wire_integer<int>(json.at("job_id"), "job_id");
    msg.job_name = json.at("job_name").as_string();
    msg.classified_as = json.at("classified_as").as_string();
    msg.nodes = wire_integer<int>(json.at("nodes"), "nodes");
    msg.timestamp_s = json.at("t").as_number();
    msg.seq = seq;
    return msg;
  }
  if (type == "budget") {
    PowerBudgetMsg msg;
    msg.job_id = wire_integer<int>(json.at("job_id"), "job_id");
    msg.node_cap_w = json.at("node_cap_w").as_number();
    msg.timestamp_s = json.at("t").as_number();
    msg.seq = seq;
    return msg;
  }
  if (type == "model") {
    ModelUpdateMsg msg;
    msg.job_id = wire_integer<int>(json.at("job_id"), "job_id");
    msg.a = json.at("a").as_number();
    msg.b = json.at("b").as_number();
    msg.c = json.at("c").as_number();
    msg.p_min_w = json.at("p_min_w").as_number();
    msg.p_max_w = json.at("p_max_w").as_number();
    msg.r2 = json.at("r2").as_number();
    msg.from_feedback = json.bool_or("from_feedback", false);
    msg.timestamp_s = json.at("t").as_number();
    msg.seq = seq;
    return msg;
  }
  if (type == "goodbye") {
    JobGoodbyeMsg msg;
    msg.job_id = wire_integer<int>(json.at("job_id"), "job_id");
    msg.timestamp_s = json.at("t").as_number();
    msg.seq = seq;
    return msg;
  }
  if (type == "hb") {
    HeartbeatMsg msg;
    msg.job_id = wire_integer<int>(json.at("job_id"), "job_id");
    msg.timestamp_s = json.at("t").as_number();
    msg.seq = seq;
    return msg;
  }
  throw util::ConfigError("decode: unknown message type '" + type + "'");
}

std::string encode_text(const Message& message) { return encode(message).dump(); }

Message decode_text(const std::string& text) { return decode(util::Json::parse(text)); }

int job_id_of(const Message& message) {
  return std::visit([](const auto& msg) { return msg.job_id; }, message);
}

std::uint64_t seq_of(const Message& message) {
  return std::visit([](const auto& msg) { return msg.seq; }, message);
}

void set_seq(Message& message, std::uint64_t seq) {
  std::visit([seq](auto& msg) { msg.seq = seq; }, message);
}

std::string_view type_name_of(const Message& message) {
  return std::visit(
      [](const auto& msg) -> std::string_view {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, JobHelloMsg>) return "hello";
        if constexpr (std::is_same_v<T, PowerBudgetMsg>) return "budget";
        if constexpr (std::is_same_v<T, ModelUpdateMsg>) return "model";
        if constexpr (std::is_same_v<T, JobGoodbyeMsg>) return "goodbye";
        if constexpr (std::is_same_v<T, HeartbeatMsg>) return "hb";
        return "unknown";
      },
      message);
}

std::uint32_t message_checksum(std::string_view payload_text) {
  std::uint32_t h = 0x811c9dc5u;
  for (char c : payload_text) {
    h ^= static_cast<std::uint32_t>(static_cast<unsigned char>(c));
    h *= 0x01000193u;
  }
  return h;
}

std::string encode_framed_text(const Message& message) {
  const std::string payload = encode_text(message);
  util::JsonObject frame;
  frame["crc"] = util::Json(static_cast<double>(message_checksum(payload)));
  frame["msg"] = encode(message);
  return util::Json(std::move(frame)).dump();
}

Message decode_framed_text(const std::string& text) {
  util::Json json;
  try {
    json = util::Json::parse(text);
  } catch (const util::ConfigError& error) {
    throw util::TransportError(std::string("corrupt frame: ") + error.what());
  }
  if (!json.is_object()) throw util::TransportError("corrupt frame: not an object");
  try {
    const auto expected = wire_integer<std::uint32_t>(json.at("crc"), "crc");
    const util::Json& payload = json.at("msg");
    if (message_checksum(payload.dump()) != expected) {
      throw util::TransportError("corrupt frame: checksum mismatch");
    }
    Message message = decode(payload);
    // Accept only what the encoder would have sent for this message: a
    // frame whose fields the decoder ignores (unknown keys, an explicit
    // zero seq, a missing flag) is not a frame this protocol produces.
    if (!(encode(message) == payload)) {
      throw util::TransportError("corrupt frame: not the encoding of its message");
    }
    return message;
  } catch (const util::TransportError&) {
    throw;
  } catch (const std::exception& error) {
    throw util::TransportError(std::string("corrupt frame: ") + error.what());
  }
}

}  // namespace anor::cluster
