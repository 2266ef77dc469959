// Tests for the binary wire format: round-trips, size accounting, the
// pinned byte layout of every message kind, rejection of malformed input,
// and decode robustness against random and bit-flipped frames.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/wire.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace groupcast::core {
namespace {

std::vector<MessageBody> all_message_kinds() {
  return {
      AdvertiseMsg{7, 42, 8},
      JoinMsg{7, 1001},
      JoinAckMsg{7, 3},
      RippleQueryMsg{7, 2002, 2, 1},
      RippleHitMsg{7, 3003, 4},
      DataMsg{7, 4004, 0xDEADBEEFCAFEF00DULL},
      LeaveMsg{7, 5005},
      HeartbeatMsg{7},
      HeartbeatAckMsg{7, 2},
      ParentLostMsg{7},
      ReliableDataMsg{7, 4004, 0xDEADBEEFCAFEF00DULL, 3, 99},
      DataNackMsg{7, 3, 64, 0x8000000000000001ULL},
      DataAckMsg{7, 3, 65},
      SeqSyncMsg{7, 3, 12, 66},
      FlowControlMsg{7, true},
      LeaseMsg{7, 4, 6006, 1001},
      LeaseAckMsg{7, 4, 5, 3},
      ReplicateMsg{7, 4, 6006, 1001, {{1, 1001}, {2, 6006}, {4, 6006}}},
      ReplicateAckMsg{7, 4, 6, 3},
      HandoffMsg{7, 5, 7007, 1001},
      ChunkMsg{7, 42, 3, 17, 123456789, 5, 2, 88},
  };
}

TEST(Wire, RoundTripsEveryMessageKind) {
  for (const auto& original : all_message_kinds()) {
    const auto bytes = encode_message(original);
    const auto decoded = decode_message(bytes);
    ASSERT_EQ(decoded.index(), original.index());
    // Re-encoding must be byte-identical (canonical encoding).
    EXPECT_EQ(encode_message(decoded), bytes);
  }
}

TEST(Wire, FieldValuesSurviveRoundTrip) {
  const auto bytes = encode_message(DataMsg{9, 77, 123456789ULL});
  const auto decoded = std::get<DataMsg>(decode_message(bytes));
  EXPECT_EQ(decoded.group, 9u);
  EXPECT_EQ(decoded.origin, 77u);
  EXPECT_EQ(decoded.payload_id, 123456789ULL);

  const auto adv_bytes = encode_message(AdvertiseMsg{1, 2, 3});
  const auto adv = std::get<AdvertiseMsg>(decode_message(adv_bytes));
  EXPECT_EQ(adv.group, 1u);
  EXPECT_EQ(adv.rendezvous, 2u);
  EXPECT_EQ(adv.ttl, 3u);
}

TEST(Wire, EncodedSizeMatchesActualEncoding) {
  for (const auto& body : all_message_kinds()) {
    EXPECT_EQ(encode_message(body).size(), encoded_size(body));
  }
}

TEST(Wire, ExtremeValuesRoundTrip) {
  const auto bytes = encode_message(
      DataMsg{0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFFFFFFFFFULL});
  const auto decoded = std::get<DataMsg>(decode_message(bytes));
  EXPECT_EQ(decoded.group, 0xFFFFFFFFu);
  EXPECT_EQ(decoded.payload_id, 0xFFFFFFFFFFFFFFFFULL);
}

TEST(Wire, ReliableDataPlaneFieldsSurviveRoundTrip) {
  const auto rd = std::get<ReliableDataMsg>(decode_message(
      encode_message(ReliableDataMsg{9, 77, 123456789ULL, 5, 42})));
  EXPECT_EQ(rd.group, 9u);
  EXPECT_EQ(rd.origin, 77u);
  EXPECT_EQ(rd.payload_id, 123456789ULL);
  EXPECT_EQ(rd.epoch, 5u);
  EXPECT_EQ(rd.seq, 42u);

  const auto nack = std::get<DataNackMsg>(decode_message(
      encode_message(DataNackMsg{9, 5, 100, 0x5ULL})));
  EXPECT_EQ(nack.epoch, 5u);
  EXPECT_EQ(nack.base_seq, 100u);
  EXPECT_EQ(nack.missing, 0x5ULL);

  const auto ack = std::get<DataAckMsg>(
      decode_message(encode_message(DataAckMsg{9, 5, 101})));
  EXPECT_EQ(ack.cumulative, 101u);

  const auto sync = std::get<SeqSyncMsg>(
      decode_message(encode_message(SeqSyncMsg{9, 5, 90, 102})));
  EXPECT_EQ(sync.epoch, 5u);
  EXPECT_EQ(sync.base_seq, 90u);
  EXPECT_EQ(sync.next_seq, 102u);

  for (const bool throttled : {false, true}) {
    const auto fc = std::get<FlowControlMsg>(
        decode_message(encode_message(FlowControlMsg{9, throttled})));
    EXPECT_EQ(fc.group, 9u);
    EXPECT_EQ(fc.throttled, throttled);
  }
}

TEST(Wire, ReplicationFieldsSurviveRoundTrip) {
  const auto lease = std::get<LeaseMsg>(
      decode_message(encode_message(LeaseMsg{9, 4, 77, 12})));
  EXPECT_EQ(lease.group, 9u);
  EXPECT_EQ(lease.epoch, 4u);
  EXPECT_EQ(lease.leader, 77u);
  EXPECT_EQ(lease.rendezvous, 12u);

  const auto ack = std::get<LeaseAckMsg>(
      decode_message(encode_message(LeaseAckMsg{9, 4, 6, 5})));
  EXPECT_EQ(ack.epoch, 4u);
  EXPECT_EQ(ack.head_epoch, 6u);
  EXPECT_EQ(ack.log_size, 5u);

  const auto push = std::get<ReplicateMsg>(decode_message(encode_message(
      ReplicateMsg{9, 4, 77, 12, {{1, 12}, {3, 88}, {4, 77}}})));
  EXPECT_EQ(push.leader, 77u);
  ASSERT_EQ(push.records.size(), 3u);
  EXPECT_EQ(push.records[1], (LeaseRecord{3, 88}));

  const auto empty_push = std::get<ReplicateMsg>(
      decode_message(encode_message(ReplicateMsg{9, 1, 12, 12, {}})));
  EXPECT_TRUE(empty_push.records.empty());

  const auto handoff = std::get<HandoffMsg>(
      decode_message(encode_message(HandoffMsg{9, 5, 88, 12})));
  EXPECT_EQ(handoff.epoch, 5u);
  EXPECT_EQ(handoff.candidate, 88u);
  EXPECT_EQ(handoff.rendezvous, 12u);
}

TEST(Wire, ChunkFieldsSurviveRoundTrip) {
  const ChunkMsg original{9, 77, 5, 123, 2'500'000, 6, 3, 456};
  const auto bytes = encode_message(original);
  // Header (tag + 5 u32 + 2 u64) plus the zero-padded body — the padding
  // is what bandwidth pacing charges, so it must be on the wire and in
  // encoded_size.
  EXPECT_EQ(bytes.size(), 41u + original.payload_bytes);
  EXPECT_EQ(encoded_size(original), bytes.size());
  const auto chunk = std::get<ChunkMsg>(decode_message(bytes));
  EXPECT_EQ(chunk.group, 9u);
  EXPECT_EQ(chunk.origin, 77u);
  EXPECT_EQ(chunk.stream, 5u);
  EXPECT_EQ(chunk.chunk_id, 123u);
  EXPECT_EQ(chunk.deadline_us, 2'500'000);
  EXPECT_EQ(chunk.payload_bytes, 6u);
  EXPECT_EQ(chunk.epoch, 3u);
  EXPECT_EQ(chunk.seq, 456u);
  // Hop depth is in-memory provenance, never wire-encoded.
  EXPECT_EQ(chunk.hops, 0u);
}

TEST(Wire, RejectsOversizedChunkBody) {
  // A frame claiming a body beyond kMaxChunkBytes is garbled or hostile;
  // the decoder must reject it before trying to skip the body.  Patch
  // the length field in place (offset 25: tag + group/origin/stream/
  // chunk_id + deadline).
  auto bytes = encode_message(ChunkMsg{9, 77, 5, 123, 1000, 2, 0, 0});
  for (std::size_t i = 0; i < 4; ++i) bytes[25 + i] = 0xFF;
  EXPECT_THROW(decode_message(bytes), WireError);
}

TEST(Wire, RejectsOversizedLeaseLog) {
  // The record-count bound caps what a decoder will allocate; an epoch
  // log can only grow by one record per committed handoff, so any count
  // beyond the bound is a garbled or hostile frame.
  ReplicateMsg msg{9, 1, 12, 12, {}};
  msg.records.resize(1025, LeaseRecord{1, 12});
  auto bytes = encode_message(msg);
  EXPECT_THROW(decode_message(bytes), WireError);
}

TEST(Wire, RejectsNonCanonicalFlowControlFlag) {
  // The throttled byte is a canonical bool: 0 or 1 only.  A truthy 0xC8
  // would decode and re-encode differently, breaking byte-stable replay.
  auto bytes = encode_message(FlowControlMsg{9, true});
  bytes.back() = 0xC8;
  EXPECT_THROW(decode_message(bytes), WireError);
}

TEST(Wire, RejectsTruncatedBuffers) {
  for (const auto& body : all_message_kinds()) {
    const auto bytes = encode_message(body);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::span<const std::uint8_t> truncated(bytes.data(), cut);
      EXPECT_THROW(decode_message(truncated), WireError)
          << "cut at " << cut << " of " << bytes.size();
    }
  }
}

TEST(Wire, RejectsTrailingGarbage) {
  auto bytes = encode_message(JoinAckMsg{1});
  bytes.push_back(0x00);
  EXPECT_THROW(decode_message(bytes), WireError);
}

TEST(Wire, RejectsUnknownTag) {
  const std::vector<std::uint8_t> bogus{0xEE, 0, 0, 0, 0};
  EXPECT_THROW(decode_message(bogus), WireError);
}

TEST(Wire, LittleEndianLayoutIsStable) {
  // Protocol stability check: the byte layout must never silently change.
  const auto bytes = encode_message(JoinMsg{0x01020304u, 0x0A0B0C0Du});
  const std::vector<std::uint8_t> expected{
      0x02,                     // tag: JoinMsg
      0x04, 0x03, 0x02, 0x01,   // group, little-endian
      0x0D, 0x0C, 0x0B, 0x0A};  // child, little-endian
  EXPECT_EQ(bytes, expected);

  // Every kind: its tag is its MessageBody index + 1, its frame
  // size is pinned, and one FNV-1a 64 over all the frames pins the bytes.
  const std::vector<std::size_t> expected_sizes{
      13,  // AdvertiseMsg
      9,   // JoinMsg
      9,   // JoinAckMsg
      17,  // RippleQueryMsg
      13,  // RippleHitMsg
      17,  // DataMsg
      9,   // LeaveMsg
      5,   // HeartbeatMsg
      9,   // HeartbeatAckMsg
      5,   // ParentLostMsg
      29,  // ReliableDataMsg
      25,  // DataNackMsg
      17,  // DataAckMsg
      25,  // SeqSyncMsg
      6,   // FlowControlMsg
      17,  // LeaseMsg
      17,  // LeaseAckMsg
      45,  // ReplicateMsg
      17,  // ReplicateAckMsg
      17,  // HandoffMsg
      46   // ChunkMsg
  };
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const auto kinds = all_message_kinds();
  ASSERT_EQ(kinds.size(), expected_sizes.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const auto frame = encode_message(kinds[i]);
    ASSERT_FALSE(frame.empty());
    EXPECT_EQ(frame.front(), kinds[i].index() + 1) << "kind " << i;
    EXPECT_EQ(frame.size(), expected_sizes[i]) << "kind " << i;
    for (const auto byte : frame) {
      hash = (hash ^ byte) * 0x100000001B3ULL;
    }
  }
  EXPECT_EQ(hash, 0x90C227FA79C5B871ULL);
}

TEST(Wire, TransportAccountsBytes) {
  testing::SmallWorld world(8, 3);
  sim::Simulator simulator;
  util::Rng rng(1);
  Transport transport(simulator, *world.population, TransportOptions{}, rng);
  transport.send(0, 1, JoinAckMsg{1});        // 9 bytes
  transport.send(0, 1, DataMsg{1, 2, 3});     // 17 bytes
  EXPECT_EQ(transport.bytes_sent(), 26u);
  simulator.run();
}

// --------------------------------------------------------------- wire fuzz

TEST(WireFuzz, ArbitraryBytesNeverCrash) {
  util::Rng rng(19);
  std::size_t decoded = 0, rejected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.uniform_index(24));
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    }
    try {
      const auto body = decode_message(bytes);
      // Anything that decodes must re-encode to the same bytes.
      EXPECT_EQ(encode_message(body), bytes);
      ++decoded;
    } catch (const WireError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  // Random bytes occasionally form valid messages (1-in-256 tag hit with
  // the right length); both paths must be exercised.
  EXPECT_EQ(decoded + rejected, 20000u);
}

TEST(WireFuzz, BitFlippedMessagesDecodeOrThrowCleanly) {
  for (const auto& original : all_message_kinds()) {
    const auto bytes = encode_message(original);
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = bytes;
        mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
        try {
          const auto body = decode_message(mutated);
          // A chunk body is opaque: decode skips it and encode writes
          // zeros, so a flip inside it re-encodes with the body zeroed.
          // Every other byte must survive exactly.
          auto expected = mutated;
          if (const auto* chunk = std::get_if<ChunkMsg>(&body)) {
            std::fill(expected.end() - chunk->payload_bytes, expected.end(),
                      std::uint8_t{0});
          }
          EXPECT_EQ(encode_message(body), expected)
              << "kind " << original.index() << " byte " << byte << " bit "
              << bit;
        } catch (const WireError&) {
          // acceptable: a corrupted tag, length or flag
        }
      }
    }
  }
}

}  // namespace
}  // namespace groupcast::core
