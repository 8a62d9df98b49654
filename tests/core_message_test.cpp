#include "core/message.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/batch.hpp"
#include "core/crc32c.hpp"
#include "test_env.hpp"

namespace allconcur::core {
namespace {

TEST(Message, Factories) {
  const auto b = Message::bcast(3, 7, make_payload({1, 2, 3}));
  EXPECT_EQ(b.type, MsgType::kBroadcast);
  EXPECT_EQ(b.round, 3u);
  EXPECT_EQ(b.origin, 7u);
  EXPECT_EQ(b.payload_bytes, 3u);

  const auto f = Message::fail(5, 2, 9);
  EXPECT_EQ(f.type, MsgType::kFail);
  EXPECT_EQ(f.origin, 2u);
  EXPECT_EQ(f.detector, 9u);

  const auto s = Message::bcast_sized(1, 4, 4096);
  EXPECT_EQ(s.payload_bytes, 4096u);
  EXPECT_EQ(s.payload, nullptr);
}

TEST(Message, WireSizeIncludesHeader) {
  const auto m = Message::bcast(0, 0, make_payload({1, 2, 3, 4}));
  EXPECT_EQ(m.wire_size(), Message::kHeaderBytes + 4);
  EXPECT_EQ(Message::fail(0, 1, 2).wire_size(), Message::kHeaderBytes);
}

TEST(Message, EncodeDecodeRoundTrip) {
  const auto original = Message::bcast(42, 17, make_payload({9, 8, 7, 6, 5}));
  const auto bytes = encode(original);
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MsgType::kBroadcast);
  EXPECT_EQ(decoded->round, 42u);
  EXPECT_EQ(decoded->origin, 17u);
  ASSERT_TRUE(decoded->payload != nullptr);
  EXPECT_EQ(*decoded->payload, (std::vector<std::uint8_t>{9, 8, 7, 6, 5}));
}

TEST(Message, EncodeDecodeAllTypes) {
  for (const Message& m :
       {Message::fail(1, 2, 3), Message::fwd(4, 5), Message::bwd(6, 7),
        Message::heartbeat(8)}) {
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, m.type);
    EXPECT_EQ(decoded->round, m.round);
    EXPECT_EQ(decoded->origin, m.origin);
    EXPECT_EQ(decoded->detector, m.detector);
  }
}

TEST(Message, SizeOnlyPayloadMaterializesAsZeros) {
  const auto bytes = encode(Message::bcast_sized(0, 1, 16));
  EXPECT_EQ(bytes.size(), Message::kHeaderBytes + 16);
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload_bytes, 16u);
}

TEST(Message, DecodeRejectsTruncated) {
  const auto bytes = encode(Message::bcast(0, 0, make_payload({1, 2, 3})));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        decode(std::span(bytes.data(), cut)).has_value())
        << "cut=" << cut;
  }
}

TEST(Message, ChecksumRejectsEverySingleByteFlip) {
  // CRC32C detects every burst error of 32 bits or fewer, so any
  // single-byte change yields a different checksum: flipping each wire
  // byte in turn (header fields, either checksum, payload) must always be
  // rejected.
  const auto bytes = encode(Message::bcast(9, 2, make_payload({5, 6, 7, 8})));
  ASSERT_TRUE(decode(bytes).has_value());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto tampered = bytes;
    tampered[i] ^= 0x01;  // minimal damage: one bit
    EXPECT_FALSE(decode(tampered).has_value()) << "byte " << i;
  }
}

TEST(Message, DecodeRejectsBadType) {
  auto bytes = encode(Message::heartbeat(1));
  bytes[0] = 0;
  EXPECT_FALSE(decode(bytes).has_value());
  bytes[0] = 99;
  EXPECT_FALSE(decode(bytes).has_value());
}

// ------------------------------------------------------------------------
// Randomized round-trips (fixed seed; ALLCONCUR_TEST_SEED shifts them).
// ------------------------------------------------------------------------

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

void expect_round_trip(const Message& original) {
  const auto bytes = encode(original);
  ASSERT_EQ(bytes.size(), original.wire_size());
  ASSERT_EQ(frame_size(bytes), bytes.size());
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, original.type);
  EXPECT_EQ(decoded->round, original.round);
  EXPECT_EQ(decoded->origin, original.origin);
  if (original.type == MsgType::kFail) {
    EXPECT_EQ(decoded->detector, original.detector);
  }
  ASSERT_EQ(decoded->payload_bytes, original.payload_bytes);
  if (original.payload && !original.payload->empty()) {
    ASSERT_TRUE(decoded->payload != nullptr);
    EXPECT_EQ(*decoded->payload, *original.payload);
  } else {
    // Zero-byte payloads decode as the canonical null payload.
    EXPECT_EQ(decoded->payload, nullptr);
  }
}

TEST(MessageRandomized, EncodeDecodeRoundTrip) {
  Rng rng(testing::test_seed_offset() + 0x5e21a112e);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto round = rng.next_u64();  // full 64-bit range
    const auto origin = static_cast<NodeId>(rng.next_u64());
    const auto detector = static_cast<NodeId>(rng.next_u64());
    Message m;
    switch (rng.next_below(6)) {
      case 0:  // empty payload: the paper's "empty message"
        m = Message::bcast(round, origin, make_payload({}));
        break;
      case 1:
        m = Message::bcast(round, origin,
                           make_payload(random_bytes(rng, rng.next_below(512))));
        break;
      case 2:
        m = Message::fail(round, origin, detector);
        break;
      case 3:
        m = Message::fwd(round, origin);
        break;
      case 4:
        m = Message::bwd(round, origin);
        break;
      default:
        m = Message::heartbeat(origin);
        break;
    }
    SCOPED_TRACE("iter " + std::to_string(iter));
    expect_round_trip(m);
    if (HasFatalFailure()) return;
  }
}

TEST(MessageRandomized, MaxSizePayloadRoundTrip) {
  // The largest payload we can afford to materialize in a unit test:
  // 1 MiB of random bytes, plus the exact wire-size accounting.
  Rng rng(testing::test_seed_offset() + 0xb16);
  const std::size_t len = 1 << 20;
  const auto m = Message::bcast(7, 3, make_payload(random_bytes(rng, len)));
  EXPECT_EQ(m.wire_size(), Message::kHeaderBytes + len);
  expect_round_trip(m);
}

TEST(MessageRandomized, SizeOnlyPayloadsAcrossSizes) {
  Rng rng(testing::test_seed_offset() + 0x512e0);
  for (int iter = 0; iter < 200; ++iter) {
    const auto bytes_declared = rng.next_below(1 << 16);
    const auto m = Message::bcast_sized(rng.next_u64(), 1, bytes_declared);
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->payload_bytes, bytes_declared);
  }
}

TEST(BatchRandomized, PackUnpackRoundTripWithMembershipVariants) {
  // Batches are the BCAST payload; joins/leaves ride in them (§3), so the
  // round-trip must preserve kind, subject and data byte-for-byte.
  Rng rng(testing::test_seed_offset() + 0xba7c4);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<Request> batch;
    const std::size_t count = rng.next_below(8);
    for (std::size_t i = 0; i < count; ++i) {
      switch (rng.next_below(4)) {
        case 0:
          batch.push_back(Request::join(static_cast<NodeId>(rng.next_u64())));
          break;
        case 1:
          batch.push_back(Request::leave(static_cast<NodeId>(rng.next_u64())));
          break;
        case 2:  // empty data request
          batch.push_back(Request::of_data({}));
          break;
        default:
          batch.push_back(
              Request::of_data(random_bytes(rng, rng.next_below(256))));
          break;
      }
    }
    const Payload packed = pack_batch(batch);
    const auto unpacked = unpack_batch(packed);
    ASSERT_TRUE(unpacked.has_value()) << "iter " << iter;
    ASSERT_EQ(unpacked->size(), batch.size()) << "iter " << iter;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ((*unpacked)[i].kind, batch[i].kind);
      EXPECT_EQ((*unpacked)[i].subject, batch[i].subject);
      EXPECT_EQ((*unpacked)[i].data, batch[i].data);
    }
    // Batches also survive a full message-layer round-trip.
    if (packed) {
      const auto msg = decode(encode(Message::bcast(iter, 0, packed)));
      ASSERT_TRUE(msg.has_value());
      const auto again = unpack_batch(msg->payload);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->size(), batch.size());
    }
  }
}

TEST(Message, FrameSize) {
  const auto bytes = encode(Message::bcast(0, 0, make_payload({1, 2})));
  const auto f = frame_size(bytes);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, bytes.size());
  EXPECT_FALSE(frame_size(std::span(bytes.data(), 10)).has_value());
}

TEST(Frame, SharesPayloadWithZeroCopies) {
  // The zero-copy invariant end to end: building the frame shares the
  // message's payload, and borrow-decoding the frame shares it again —
  // one buffer, three owners, no byte ever copied.
  const Payload payload = make_payload({9, 8, 7, 6, 5});
  EXPECT_EQ(payload.use_count(), 1);
  const auto frame = Frame::make(Message::bcast(42, 17, payload));
  EXPECT_EQ(frame->wire_payload().get(), payload.get());
  EXPECT_EQ(payload.use_count(), 2);

  const auto decoded = decode(*frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MsgType::kBroadcast);
  EXPECT_EQ(decoded->round, 42u);
  EXPECT_EQ(decoded->origin, 17u);
  EXPECT_EQ(decoded->payload_bytes, 5u);
  EXPECT_EQ(decoded->payload.get(), payload.get());  // borrowed, not copied
  EXPECT_EQ(payload.use_count(), 3);
}

TEST(Frame, WireImageMatchesEncode) {
  // The scatter/gather blocks a transport writes must be byte-identical
  // to the contiguous encoding, and parse back through the normal
  // receive path.
  const auto m = Message::bcast(7, 3, make_payload({1, 2, 3, 4, 5, 6}));
  const auto frame = Frame::make(m);
  EXPECT_EQ(frame->wire_size(), m.wire_size());
  const auto contiguous = frame->to_bytes();
  EXPECT_EQ(contiguous, encode(m));
  const auto f = frame_size(contiguous);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, contiguous.size());
  const auto decoded = decode(contiguous);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->payload != nullptr);
  EXPECT_EQ(*decoded->payload, *m.payload);
}

TEST(Frame, SizeOnlyMaterializesLazily) {
  const auto frame = Frame::make(Message::bcast_sized(1, 4, 64));
  EXPECT_EQ(frame->msg().payload, nullptr);  // sim path: nothing built
  EXPECT_EQ(frame->wire_size(), Message::kHeaderBytes + 64);
  // The wire path materializes the declared zeros on demand, once.
  const Payload& wire = frame->wire_payload();
  ASSERT_TRUE(wire != nullptr);
  EXPECT_EQ(wire->size(), 64u);
  EXPECT_EQ(frame->wire_payload().get(), wire.get());
  EXPECT_EQ(*std::max_element(wire->begin(), wire->end()), 0u);
}

TEST(Frame, HeaderlessMessagesHaveNullWirePayload) {
  const auto frame = Frame::make(Message::fail(3, 1, 2));
  EXPECT_EQ(frame->wire_payload(), nullptr);
  EXPECT_EQ(frame->wire_size(), Message::kHeaderBytes);
  const auto decoded = decode(*frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MsgType::kFail);
  EXPECT_EQ(decoded->origin, 1u);
  EXPECT_EQ(decoded->detector, 2u);
}

TEST(Frame, CachesThePayloadSumOncePerPayload) {
  const Payload payload = make_payload({1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_FALSE(payload->cached_checksum().has_value());
  const auto first = Frame::make(Message::bcast(1, 0, payload));
  const std::uint32_t sum = crc32c(0, payload->data(), payload->size());
  ASSERT_TRUE(payload->cached_checksum().has_value());
  EXPECT_EQ(*payload->cached_checksum(), sum);
  std::uint32_t on_wire = 0;
  std::memcpy(&on_wire, first->header().data() + Message::kPayloadSumOffset,
              sizeof(on_wire));
  EXPECT_EQ(on_wire, sum);
  // A relay of the same bytes reuses the sum and builds the same image.
  const auto relay = Frame::make(Message::bcast(1, 0, payload));
  EXPECT_EQ(relay->to_bytes(), first->to_bytes());
  // A copy of the bytes starts without a sum: it may still change.
  EXPECT_FALSE(PayloadBytes(*payload).cached_checksum().has_value());
}

TEST(Frame, DecodeCachesTheSumItVerified) {
  const auto bytes = encode(Message::bcast(3, 1, make_payload({7, 7, 7})));
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  std::uint32_t on_wire = 0;
  std::memcpy(&on_wire, bytes.data() + Message::kPayloadSumOffset,
              sizeof(on_wire));
  ASSERT_TRUE(decoded->payload->cached_checksum().has_value());
  EXPECT_EQ(*decoded->payload->cached_checksum(), on_wire);
}

TEST(Frame, VerificationNeverTrustsACachedSum) {
  // Building the frame caches the payload sum on the shared bytes; the
  // receive side must still recompute it from the bytes that arrived, so
  // every flipped payload byte is caught.
  Rng rng(allconcur::testing::test_seed() ^ 0xc4c3ull);
  std::vector<std::uint8_t> data(300);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto frame = Frame::make(Message::bcast(5, 2, make_payload(data)));
  ASSERT_TRUE(frame->msg().payload->cached_checksum().has_value());
  ASSERT_TRUE(decode(frame->to_bytes()).has_value());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto tainted = Frame::corrupt_copy(*frame, Message::kHeaderBytes + i);
    EXPECT_FALSE(decode(tainted->to_bytes()).has_value()) << "payload byte " << i;
  }
}

// ------------------------------------------------------------------------
// CRC32C: known answers (RFC 3720 B.4) on both implementations, and the
// zero-run operator against explicit zero buffers.
// ------------------------------------------------------------------------

using CrcFn = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                std::size_t);

void expect_known_answers(CrcFn crc) {
  const std::vector<std::uint8_t> zeros(32, 0x00), ones(32, 0xff);
  std::vector<std::uint8_t> ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
  }
  const std::string check = "123456789";
  EXPECT_EQ(crc(0, zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(crc(0, ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(crc(0, ascending.data(), ascending.size()), 0x46DD794Eu);
  EXPECT_EQ(crc(0, reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size()),
            0xE3069283u);
  EXPECT_EQ(crc(0, nullptr, 0), 0u);
  // Continuation: summing in two pieces equals summing at once, for every
  // split (covers the 8-byte block loop and the byte tail).
  for (std::size_t cut = 0; cut <= ascending.size(); ++cut) {
    EXPECT_EQ(crc(crc(0, ascending.data(), cut), ascending.data() + cut,
                  ascending.size() - cut),
              0x46DD794Eu)
        << "cut=" << cut;
  }
}

TEST(Crc32c, TablePathKnownAnswers) {
  expect_known_answers(&detail::crc32c_table);
}

TEST(Crc32c, HardwarePathKnownAnswers) {
  if (!detail::crc32c_hw_available()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  expect_known_answers(&detail::crc32c_hw);
}

TEST(Crc32c, PathsAgreeOnRandomBuffers) {
  // Random lengths, plus the edges of the hardware path's three-stream
  // blocks (3 x 256 and 3 x 8192 bytes).
  Rng rng(allconcur::testing::test_seed() ^ 0x3720ull);
  std::vector<std::size_t> lengths = {767,   768,   769,   1543,
                                      24575, 24576, 24577, 100003};
  for (int i = 0; i < 200; ++i) lengths.push_back(rng.next_below(5000));
  for (const std::size_t len : lengths) {
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t expect =
        detail::crc32c_table(seed, bytes.data(), bytes.size());
    EXPECT_EQ(crc32c(seed, bytes.data(), bytes.size()), expect);
    if (detail::crc32c_hw_available()) {
      EXPECT_EQ(detail::crc32c_hw(seed, bytes.data(), bytes.size()), expect);
    }
  }
}

TEST(Crc32c, ZeroRunOperatorMatchesExplicitZeros) {
  for (const std::uint64_t len : {0ull, 1ull, 7ull, 8ull, 9ull, 4095ull,
                                  4096ull, 65537ull, 1ull << 20}) {
    const std::vector<std::uint8_t> zeros(static_cast<std::size_t>(len), 0);
    for (const std::uint32_t start : {0u, 0xE3069283u}) {
      EXPECT_EQ(crc32c_zeros(start, len),
                detail::crc32c_table(start, zeros.data(), zeros.size()))
          << "len=" << len << " start=" << start;
    }
  }
}

}  // namespace
}  // namespace allconcur::core
