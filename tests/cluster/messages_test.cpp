#include "cluster/messages.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace anor::cluster {
namespace {

/// A frame around `msg` whose checksum field reads `crc`.
std::string frame_with_crc(const util::Json& msg, double crc) {
  util::JsonObject frame;
  frame["crc"] = util::Json(crc);
  frame["msg"] = msg;
  return util::Json(std::move(frame)).dump();
}

/// A frame around `msg` with the checksum the decoder will accept.
std::string frame_of(const util::Json& msg) {
  return frame_with_crc(msg, static_cast<double>(message_checksum(msg.dump())));
}

TEST(Messages, HelloRoundTrip) {
  JobHelloMsg msg;
  msg.job_id = 7;
  msg.job_name = "bt.D.x#7";
  msg.classified_as = "is.D.x";
  msg.nodes = 2;
  msg.timestamp_s = 1.25;
  const Message decoded = decode_text(encode_text(msg));
  const auto* hello = std::get_if<JobHelloMsg>(&decoded);
  ASSERT_NE(hello, nullptr);
  EXPECT_EQ(hello->job_id, 7);
  EXPECT_EQ(hello->job_name, "bt.D.x#7");
  EXPECT_EQ(hello->classified_as, "is.D.x");
  EXPECT_EQ(hello->nodes, 2);
  EXPECT_DOUBLE_EQ(hello->timestamp_s, 1.25);
}

TEST(Messages, BudgetRoundTrip) {
  PowerBudgetMsg msg;
  msg.job_id = 3;
  msg.node_cap_w = 187.5;
  msg.timestamp_s = 99.0;
  const Message decoded = decode_text(encode_text(msg));
  const auto* budget = std::get_if<PowerBudgetMsg>(&decoded);
  ASSERT_NE(budget, nullptr);
  EXPECT_DOUBLE_EQ(budget->node_cap_w, 187.5);
}

TEST(Messages, ModelRoundTripPreservesCoefficients) {
  ModelUpdateMsg msg;
  msg.job_id = 11;
  msg.a = 1.25e-5;
  msg.b = -0.00715;
  msg.c = 2.125;
  msg.p_min_w = 140.0;
  msg.p_max_w = 276.0;
  msg.r2 = 0.97;
  msg.from_feedback = true;
  msg.timestamp_s = 10.0;
  const Message decoded = decode_text(encode_text(msg));
  const auto* model = std::get_if<ModelUpdateMsg>(&decoded);
  ASSERT_NE(model, nullptr);
  EXPECT_DOUBLE_EQ(model->a, 1.25e-5);
  EXPECT_DOUBLE_EQ(model->b, -0.00715);
  EXPECT_DOUBLE_EQ(model->c, 2.125);
  EXPECT_TRUE(model->from_feedback);
}

TEST(Messages, GoodbyeRoundTrip) {
  JobGoodbyeMsg msg;
  msg.job_id = 4;
  msg.timestamp_s = 55.0;
  const Message decoded = decode_text(encode_text(msg));
  EXPECT_NE(std::get_if<JobGoodbyeMsg>(&decoded), nullptr);
}

TEST(Messages, JobIdOfEveryVariant) {
  EXPECT_EQ(job_id_of(JobHelloMsg{5}), 5);
  EXPECT_EQ(job_id_of(PowerBudgetMsg{6}), 6);
  EXPECT_EQ(job_id_of(ModelUpdateMsg{7}), 7);
  EXPECT_EQ(job_id_of(JobGoodbyeMsg{8}), 8);
}

TEST(Messages, UnknownTypeThrows) {
  EXPECT_THROW(decode_text(R"({"type": "alien"})"), util::ConfigError);
  EXPECT_THROW(decode_text(R"({"no_type": 1})"), util::ConfigError);
  EXPECT_THROW(decode_text("not json"), util::ConfigError);
}

TEST(Messages, MissingFieldThrows) {
  EXPECT_THROW(decode_text(R"({"type": "budget", "job_id": 1})"), util::ConfigError);
}

TEST(Messages, HeartbeatRoundTripKeepsSeq) {
  HeartbeatMsg beat;
  beat.job_id = 9;
  beat.timestamp_s = 33.5;
  beat.seq = 1234;
  const Message decoded = decode_text(encode_text(beat));
  const auto* out = std::get_if<HeartbeatMsg>(&decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->job_id, 9);
  EXPECT_DOUBLE_EQ(out->timestamp_s, 33.5);
  EXPECT_EQ(out->seq, 1234u);
}

TEST(Messages, SeqHelpersCoverEveryVariant) {
  Message messages[] = {JobHelloMsg{}, PowerBudgetMsg{}, ModelUpdateMsg{},
                        JobGoodbyeMsg{}, HeartbeatMsg{}};
  std::uint64_t next = 41;
  for (Message& message : messages) {
    EXPECT_EQ(seq_of(message), 0u);  // unstamped
    set_seq(message, ++next);
    EXPECT_EQ(seq_of(message), next);
    EXPECT_FALSE(type_name_of(message).empty());
  }
}

TEST(Messages, FramedRoundTrip) {
  PowerBudgetMsg msg;
  msg.job_id = 3;
  msg.node_cap_w = 212.5;
  msg.timestamp_s = 17.0;
  msg.seq = 99;
  const Message decoded = decode_framed_text(encode_framed_text(msg));
  const auto* budget = std::get_if<PowerBudgetMsg>(&decoded);
  ASSERT_NE(budget, nullptr);
  EXPECT_DOUBLE_EQ(budget->node_cap_w, 212.5);
  EXPECT_EQ(budget->seq, 99u);
}

TEST(Messages, FramedRejectsUnframedText) {
  // A well-formed message without the {"crc", "msg"} frame carries no
  // checksum, so the link refuses it like any other corrupt frame.
  PowerBudgetMsg msg;
  msg.job_id = 1;
  msg.node_cap_w = 150.0;
  EXPECT_THROW(decode_framed_text(encode_text(msg)), util::TransportError);
}

TEST(Messages, FramedRejectsBitFlips) {
  PowerBudgetMsg msg;
  msg.job_id = 3;
  msg.node_cap_w = 212.5;
  const std::string frame = encode_framed_text(msg);
  // Flip one byte at every position; every corruption must be rejected
  // (never decoded into a different budget) — the CRC covers the payload
  // and the frame shape covers the envelope.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::string corrupted = frame;
    corrupted[i] ^= 0x20;
    if (corrupted == frame) continue;
    try {
      const Message decoded = decode_framed_text(corrupted);
      // A flip inside the crc digits can still parse if it produces the
      // matching checksum text — astronomically unlikely; treat decode
      // success with identical content as acceptable.
      const auto* budget = std::get_if<PowerBudgetMsg>(&decoded);
      ASSERT_NE(budget, nullptr) << "corrupt frame decoded as another type";
      EXPECT_DOUBLE_EQ(budget->node_cap_w, 212.5);
    } catch (const util::TransportError&) {
      // expected: rejected
    }
  }
}

TEST(Messages, FramedRejectsHostileBytes) {
  EXPECT_THROW(decode_framed_text(""), util::TransportError);
  EXPECT_THROW(decode_framed_text("\x00\xff\xfe garbage"), util::TransportError);
  EXPECT_THROW(decode_framed_text("{\"crc\": 1, \"msg\": 7}"), util::TransportError);
  EXPECT_THROW(decode_framed_text("{\"crc\": 1}"), util::TransportError);
  // Valid JSON, valid shape, wrong checksum.
  EXPECT_THROW(
      decode_framed_text(
          R"({"crc": 12345, "msg": {"type": "goodbye", "job_id": 1, "timestamp_s": 0, "seq": 0}})"),
      util::TransportError);
  // Checksum valid but the inner message is malformed.  Build the frame
  // through util::Json so the checksum is computed over the exact dump the
  // decoder re-derives.
  util::JsonObject inner;
  inner["type"] = util::Json(std::string("alien"));
  const std::string inner_text = util::Json(inner).dump();
  util::JsonObject frame;
  frame["crc"] = util::Json(static_cast<double>(message_checksum(inner_text)));
  frame["msg"] = util::Json(inner);
  EXPECT_THROW(decode_framed_text(util::Json(std::move(frame)).dump()),
               util::TransportError);
}

TEST(Messages, FramedRejectsOutOfRangeIntegers) {
  // Checksum-valid frames whose integer fields do not fit: read by a cast,
  // job 4294967297 became job 1 and seq -1 became 2^64-1, after which a
  // ReliableChannel dropped every later message from that peer as a
  // duplicate.
  util::JsonObject beat;
  beat["type"] = util::Json("hb");
  beat["t"] = util::Json(0.0);
  beat["job_id"] = util::Json(4294967297.0);
  beat["seq"] = util::Json(-1.0);
  EXPECT_THROW(decode_framed_text(frame_of(util::Json(beat))), util::TransportError);
  beat["job_id"] = util::Json(1);
  EXPECT_THROW(decode_framed_text(frame_of(util::Json(beat))), util::TransportError);
  beat["seq"] = util::Json(18446744073709551616.0);  // 2^64
  EXPECT_THROW(decode_framed_text(frame_of(util::Json(beat))), util::TransportError);
  beat["seq"] = util::Json(2.5);
  EXPECT_THROW(decode_framed_text(frame_of(util::Json(beat))), util::TransportError);
  beat["seq"] = util::Json(3);
  const Message ok = decode_framed_text(frame_of(util::Json(beat)));
  EXPECT_EQ(job_id_of(ok), 1);
  EXPECT_EQ(seq_of(ok), 3u);

  util::JsonObject hello = encode(JobHelloMsg{5, "bt.D.x#5", "is.D.x", 2, 1.0, 1}).as_object();
  hello["nodes"] = util::Json(-4294967294.0);
  EXPECT_THROW(decode_framed_text(frame_of(util::Json(hello))), util::TransportError);

  // The checksum field itself: 2^32 + crc used to wrap onto crc.
  const util::Json msg = encode(HeartbeatMsg{1, 0.0, 3});
  const double crc = static_cast<double>(message_checksum(msg.dump()));
  EXPECT_NO_THROW(decode_framed_text(frame_with_crc(msg, crc)));
  EXPECT_THROW(decode_framed_text(frame_with_crc(msg, crc + 4294967296.0)),
               util::TransportError);
  EXPECT_THROW(decode_framed_text(frame_with_crc(msg, crc - 4294967296.0)),
               util::TransportError);
}

TEST(Messages, FramedRejectsFieldsTheDecoderWouldIgnore) {
  util::JsonObject budget = encode(PowerBudgetMsg{3, 150.0, 2.0, 9}).as_object();
  EXPECT_NO_THROW(decode_framed_text(frame_of(util::Json(budget))));
  util::JsonObject extra = budget;
  extra["extra"] = util::Json(1);
  EXPECT_THROW(decode_framed_text(frame_of(util::Json(extra))), util::TransportError);
  util::JsonObject zero_seq = budget;
  zero_seq["seq"] = util::Json(0);  // the encoder leaves an unstamped seq out
  EXPECT_THROW(decode_framed_text(frame_of(util::Json(zero_seq))), util::TransportError);
  util::JsonObject as_beat = budget;
  as_beat["type"] = util::Json("hb");  // node_cap_w would be dropped
  EXPECT_THROW(decode_framed_text(frame_of(util::Json(as_beat))), util::TransportError);
}

// Seeded mutants of valid frames, each re-checksummed so that it reaches
// the decoder: every one must decode to a message that re-encodes to the
// very same frame, or be rejected with TransportError.
TEST(MessagesProperty, MutatedFramesDecodeExactlyOrThrow) {
  const std::vector<Message> originals = {
      JobHelloMsg{7, "bt.D.x#7", "is.D.x", 4, 12.5, 3},
      PowerBudgetMsg{7, 187.25, 30.0, 8},
      ModelUpdateMsg{7, 1e-4, -0.05, 9.5, 140.0, 280.0, 0.93, true, 44.0, 12},
      JobGoodbyeMsg{7, 600.0, 40},
      HeartbeatMsg{7, 58.0, 21},
  };
  const std::vector<std::string> keys = {
      "type", "job_id", "job_name", "classified_as", "nodes", "node_cap_w", "a", "b", "c",
      "p_min_w", "p_max_w", "r2", "from_feedback", "t", "seq", "extra"};
  // Integers at and past the edges of int, uint32 and uint64, fractions
  // and magnitudes no integer field can hold.
  const std::vector<double> numbers = {
      0.0, -0.0, 1.0, -1.0, 2.5, 3.0, 2147483647.0, 2147483648.0, -2147483648.0,
      -2147483649.0, 4294967295.0, 4294967296.0, 4294967297.0, 9007199254740993.0,
      9223372036854775808.0, 18446744073709549568.0, 18446744073709551616.0, 1e300, -1e300};
  const std::vector<std::string> strings = {"hello", "budget", "model", "goodbye", "hb",
                                            "alien", ""};
  util::Rng rng(29);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    util::JsonObject msg =
        encode(originals[static_cast<std::size_t>(rng.uniform_int(0, 4))]).as_object();
    const int mutations = static_cast<int>(rng.uniform_int(1, 3));
    for (int m = 0; m < mutations; ++m) {
      const std::string& key = keys[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(keys.size()) - 1))];
      switch (rng.uniform_int(0, 5)) {
        case 0: msg.erase(key); break;
        case 1:
        case 2:
          msg[key] = util::Json(numbers[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(numbers.size()) - 1))]);
          break;
        case 3: msg[key] = util::Json(rng.uniform(-1e6, 1e6)); break;
        case 4:
          msg[key] = util::Json(strings[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(strings.size()) - 1))]);
          break;
        default: msg[key] = rng.coin(0.5) ? util::Json(rng.coin(0.5)) : util::Json(); break;
      }
    }
    const util::Json payload(std::move(msg));
    double crc = static_cast<double>(message_checksum(payload.dump()));
    if (rng.coin(0.05)) crc += rng.coin(0.5) ? 4294967296.0 : -4294967296.0;
    const std::string frame = frame_with_crc(payload, crc);
    try {
      const Message decoded = decode_framed_text(frame);
      EXPECT_EQ(encode_framed_text(decoded), frame);
      ++accepted;
    } catch (const util::TransportError&) {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(Messages, ChecksumIsStableAndSensitive) {
  EXPECT_EQ(message_checksum("abc"), message_checksum("abc"));
  EXPECT_NE(message_checksum("abc"), message_checksum("abd"));
  EXPECT_NE(message_checksum(""), message_checksum(" "));
}

}  // namespace
}  // namespace anor::cluster
