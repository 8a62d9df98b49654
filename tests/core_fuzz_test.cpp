// Fuzz-style robustness tests: the wire decoder and the batch parser must
// handle arbitrary bytes without crashing (the TCP transport feeds them
// whatever arrives on a socket), and the engine must survive arbitrary
// well-formed-but-hostile message sequences.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "core/batch.hpp"
#include "core/engine.hpp"
#include "core/message.hpp"
#include "graph/digraph.hpp"
#include "smr/kv_store.hpp"
#include "smr/replica.hpp"

#include "test_env.hpp"

namespace allconcur::core {
namespace {

TEST(Fuzz, DecoderSurvivesRandomBytes) {
  Rng rng(testing::test_seed_offset() + 0xf00d);
  for (int iter = 0; iter < 20000; ++iter) {
    const std::size_t len = rng.next_below(96);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    // Must not crash; may or may not parse.
    const auto msg = decode(bytes);
    if (msg) {
      // If it parsed, the declared length must be consistent.
      EXPECT_LE(Message::kHeaderBytes + msg->payload_bytes, len);
    }
  }
}

TEST(Fuzz, DecoderRoundTripsMutatedHeaders) {
  Rng rng(testing::test_seed_offset() + 0xbeef);
  const auto base = encode(Message::bcast(3, 1, make_payload({1, 2, 3, 4})));
  for (int iter = 0; iter < 5000; ++iter) {
    auto bytes = base;
    bytes[rng.next_below(bytes.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    const auto msg = decode(bytes);  // must not crash
    (void)msg;
  }
}

TEST(Fuzz, StreamParserResyncsAcrossTornFrames) {
  // A stream of good frames with garbage runs and torn copies spliced in:
  // the parser must deliver every intact frame, drop the damage, and
  // never desync past a good frame or stall.
  Rng rng(testing::test_seed_offset() + 0xfeed);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> stream;
    std::size_t good = 0;
    for (int f = 0; f < 12; ++f) {
      const auto choice = rng.next_below(4);
      if (choice == 0) {
        // Garbage run.
        const std::size_t len = 1 + rng.next_below(40);
        for (std::size_t i = 0; i < len; ++i) {
          stream.push_back(static_cast<std::uint8_t>(rng.next_u64()));
        }
      } else if (choice == 1) {
        // A frame with one wire byte flipped (chaos corruption).
        const auto frame = Frame::make(Message::bcast(
            f, 1, make_payload({0xaa, 0xbb, static_cast<std::uint8_t>(f)})));
        const auto bytes =
            Frame::corrupt_copy(*frame, rng.next_u64())->to_bytes();
        stream.insert(stream.end(), bytes.begin(), bytes.end());
      } else {
        // Intact frame; payload sometimes empty.
        const auto frame = Frame::make(
            choice == 2 ? Message::bcast(f, 2, make_payload({1, 2, 3, 4}))
                        : Message::fail(f, 1, 2));
        const auto bytes = frame->to_bytes();
        stream.insert(stream.end(), bytes.begin(), bytes.end());
        ++good;
      }
    }
    StreamStats stats;
    std::size_t delivered = 0;
    const std::size_t at = parse_stream(
        stream, 0, stats, [&](const Message&) { ++delivered; });
    // Every intact frame survived the surrounding damage. (Equality, not
    // >=: torn frames and garbage must never produce a delivery, and the
    // header checksum makes accidental reassembly into a valid frame a
    // 2^-32 event.)
    EXPECT_EQ(delivered, good) << "iter " << iter;
    EXPECT_EQ(stats.frames, good);
    EXPECT_LE(at, stream.size());  // parser terminated and consumed sanely
  }
}

TEST(Fuzz, StreamParserNeverStallsOnHostileLengthField) {
  // Regression: a corrupted length field declaring a huge payload must
  // not park the connection waiting for bytes that will never come. The
  // header checksum rejects the tampered header, and the parser resyncs
  // to the genuine frame behind it.
  const auto good = Frame::make(Message::bcast(7, 2, make_payload({9, 9})))
                        ->to_bytes();
  for (const std::uint32_t hostile :
       {std::uint32_t{0xffffffffu}, std::uint32_t{64u << 20},
        std::uint32_t{1u << 16}}) {
    auto evil = Frame::make(Message::bcast(3, 1, nullptr))->to_bytes();
    std::memcpy(evil.data() + 12, &hostile, sizeof(hostile));  // forge length
    std::vector<std::uint8_t> stream = evil;
    stream.insert(stream.end(), good.begin(), good.end());
    StreamStats stats;
    std::size_t delivered = 0;
    const std::size_t at = parse_stream(
        stream, 0, stats, [&](const Message& m) {
          ++delivered;
          EXPECT_EQ(m.round, 7u);
        });
    EXPECT_EQ(delivered, 1u) << "length " << hostile;
    EXPECT_EQ(at, stream.size()) << "parser stalled waiting on forged length";
    EXPECT_GE(stats.corrupt_drops, 1u);
    EXPECT_GE(stats.resyncs, 1u);
  }
}

TEST(Fuzz, StreamParserKeepsSplitFramesAcrossReads) {
  // A frame split at every possible byte boundary across two reads must
  // survive: the prefix is retained as a plausible tail, and the second
  // read completes it.
  const auto frame =
      Frame::make(Message::bcast(5, 3, make_payload({1, 2, 3, 4, 5, 6})));
  const auto bytes = frame->to_bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> buf(bytes.begin(), bytes.begin() +
                                  static_cast<std::ptrdiff_t>(cut));
    StreamStats stats;
    std::size_t delivered = 0;
    const auto sink = [&](const Message& m) {
      ++delivered;
      EXPECT_EQ(m.round, 5u);
      ASSERT_TRUE(m.payload);
      EXPECT_EQ(m.payload->size(), 6u);
    };
    const std::size_t at1 = parse_stream(buf, 0, stats, sink);
    EXPECT_EQ(at1, 0u) << "cut " << cut;  // nothing consumed yet
    EXPECT_EQ(delivered, 0u);
    buf.insert(buf.end(), bytes.begin() + static_cast<std::ptrdiff_t>(cut),
               bytes.end());
    const std::size_t at2 = parse_stream(buf, at1, stats, sink);
    EXPECT_EQ(at2, bytes.size());
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(stats.corrupt_drops, 0u);
  }
}

TEST(Fuzz, BatchParserSurvivesRandomBytes) {
  Rng rng(testing::test_seed_offset() + 0xcafe);
  for (int iter = 0; iter < 20000; ++iter) {
    const std::size_t len = rng.next_below(64);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto batch = unpack_batch(make_payload(std::move(bytes)));
    (void)batch;  // nullopt or parsed; never a crash
  }
}

// The in-place batch walker against the owning parser, over random bytes
// and over mutations of valid batches of SMR envelopes: both accept or
// reject each input alike, the walker visits nothing when it rejects and
// exactly unpack_batch's requests when it accepts, and a Replica fed the
// input applies the fresh envelopes unpack_batch finds, none when the
// batch is malformed.
TEST(Fuzz, BatchWalkerAgreesWithUnpackOnCorpus) {
  Rng rng(testing::test_seed_offset() + 0xba7c);
  std::size_t rejected = 0, accepted = 0, applied = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::uint8_t> bytes;
    if (iter % 2 == 0) {
      bytes.resize(rng.next_below(64));
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    } else {
      std::vector<Request> requests;
      const std::size_t n = 1 + rng.next_below(4);
      for (std::size_t k = 0; k < n; ++k) {
        if (rng.next_below(5) == 0) {
          requests.push_back(Request::leave(static_cast<NodeId>(k)));
          continue;
        }
        smr::KvSession session(1 + rng.next_below(3));
        for (std::uint64_t s = rng.next_below(3); s > 0; --s) {
          (void)session.issue(smr::Command::get(smr::to_bytes("k")));
        }
        requests.push_back(Request::of_data(session.issue(smr::Command::put(
            smr::to_bytes("k"), smr::Bytes(rng.next_below(8), 0x61)))));
      }
      bytes = *pack_batch(requests);
      switch (rng.next_below(4)) {
        case 0:  // truncate anywhere
          bytes.resize(rng.next_below(bytes.size()));
          break;
        case 1:  // flip one byte (kind, subject, length or data)
          bytes[rng.next_below(bytes.size())] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
          break;
        case 2:  // trailing garbage
          bytes.push_back(static_cast<std::uint8_t>(rng.next_u64()));
          break;
        default:  // intact
          break;
      }
    }
    const Payload payload = make_payload(std::move(bytes));
    const auto reference = unpack_batch(payload);
    std::vector<Request> walked;
    const bool ok = for_each_request(
        payload, [&](Request::Kind kind, NodeId subject,
                     std::span<const std::uint8_t> data) {
          Request& r = walked.emplace_back();
          r.kind = kind;
          r.subject = subject;
          r.data.assign(data.begin(), data.end());
        });
    ASSERT_EQ(ok, reference.has_value()) << "iter " << iter;
    std::uint64_t fresh = 0;
    if (!ok) {
      ++rejected;
      EXPECT_TRUE(walked.empty()) << "iter " << iter;
    } else {
      ++accepted;
      ASSERT_EQ(walked.size(), reference->size()) << "iter " << iter;
      smr::SessionTable seen;
      for (std::size_t k = 0; k < walked.size(); ++k) {
        EXPECT_EQ(walked[k].kind, (*reference)[k].kind);
        EXPECT_EQ(walked[k].subject, (*reference)[k].subject);
        EXPECT_EQ(walked[k].data, (*reference)[k].data);
        if (walked[k].kind != Request::Kind::kData) continue;
        const auto env = smr::decode_envelope(walked[k].data);
        if (env && seen.admit(env->session, env->seq) != nullptr) ++fresh;
      }
    }
    RoundResult round;
    Delivery d;
    d.payload = payload;
    round.deliveries.push_back(d);
    smr::Replica replica(std::make_unique<smr::KvStore>());
    replica.on_round(round);
    EXPECT_EQ(replica.commands_applied(), fresh) << "iter " << iter;
    applied += fresh;
  }
  // Both sides of the contract were exercised.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(applied, 1000u);
}

TEST(Fuzz, EngineSurvivesHostileMessageStream) {
  // An adversary that controls a peer's link can send any well-formed
  // protocol message. The engine may drop them, but must not crash,
  // deliver inconsistently, or corrupt its round state.
  Rng rng(testing::test_seed_offset() + 0xdead);
  std::vector<NodeId> members{0, 1, 2, 3, 4};
  const auto builder = [](std::size_t n) { return graph::make_complete(n); };
  Engine::Hooks hooks;
  hooks.send = [](NodeId, const core::FrameRef&) {};
  std::size_t delivered = 0;
  hooks.deliver = [&](const RoundResult&) { ++delivered; };
  Engine e(0, View(members, builder), builder, hooks);

  for (int iter = 0; iter < 50000; ++iter) {
    const NodeId from = static_cast<NodeId>(rng.next_below(8));  // some bogus
    Message m;
    switch (rng.next_below(4)) {
      case 0:
        m = Message::bcast(rng.next_below(4),
                           static_cast<NodeId>(rng.next_below(8)),
                           rng.next_below(2) ? nullptr
                                             : make_payload({1, 2, 3}));
        break;
      case 1:
        m = Message::fail(rng.next_below(4),
                          static_cast<NodeId>(rng.next_below(8)),
                          static_cast<NodeId>(rng.next_below(8)));
        break;
      case 2:
        m = Message::fwd(rng.next_below(4),
                         static_cast<NodeId>(rng.next_below(8)));
        break;
      default:
        m = Message::heartbeat(static_cast<NodeId>(rng.next_below(8)));
        break;
    }
    e.on_message(from, m);
  }
  // The engine is still sane: round number bounded by what hostile
  // traffic can legitimately complete.
  EXPECT_LE(e.current_round(), 4u);
  EXPECT_LE(delivered, 4u);
}

TEST(Fuzz, EngineSurvivesMalformedBatchPayloads) {
  // A BCAST whose payload is not a valid batch must still be relayed and
  // delivered (payload opacity), only the membership scan skips it.
  std::vector<NodeId> members{0, 1, 2};
  const auto builder = [](std::size_t n) { return graph::make_complete(n); };
  Engine::Hooks hooks;
  hooks.send = [](NodeId, const core::FrameRef&) {};
  std::vector<RoundResult> results;
  hooks.deliver = [&](const RoundResult& r) { results.push_back(r); };
  Engine e(0, View(members, builder), builder, hooks);
  e.broadcast_now();
  e.on_message(1, Message::bcast(0, 1, make_payload({0xff, 0xff, 0xff})));
  e.on_message(2, Message::bcast(0, 2, nullptr));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].deliveries.size(), 3u);
  EXPECT_TRUE(results[0].joined.empty());
}

}  // namespace
}  // namespace allconcur::core
