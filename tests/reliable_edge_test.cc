// ReliableEdge in isolation: one data plane at peer 0 driven through a
// fake host, with every message it sends captured at the other peers.
// These pin the sequence-layer rules no node-level test isolates: the
// NACK bitmask over non-adjacent holes, FIFO park-and-drain behind a
// flow-control window, a SeqSync base that skips an unrecoverable gap, and
// the NACK and probe round caps.
#include <gtest/gtest.h>

#include <map>
#include <variant>
#include <vector>

#include "core/reliable_edge.h"
#include "test_helpers.h"

namespace groupcast::core {
namespace {

using overlay::PeerId;

constexpr GroupId kGroup = 5;
constexpr PeerId kSelf = 0;
constexpr PeerId kChild = 1;
constexpr PeerId kParent = 2;

/// The fake host: per-group links in a map, deliveries recorded in order,
/// and a fixed upstream peer for throttle signals.
class EdgeRig final : public ReliableEdge::Host {
 public:
  explicit EdgeRig(const DataReliabilityOptions& options)
      : world_(4, 31),
        transport_(simulator_, *world_.population, TransportOptions{},
                   world_.rng),
        options_(options),
        edge_(*this, kSelf, transport_, options_, /*adaptive=*/false,
              world_.rng) {
    for (PeerId p = 1; p < 4; ++p) {
      transport_.register_node(
          p, [this](const Envelope& e) { sent_.push_back(e); });
    }
  }

  ReliableEdge& edge() { return edge_; }
  ReliableEdge::Links& group() { return groups_[kGroup]; }
  const std::vector<BufferedPayload>& delivered() const { return delivered_; }

  /// Runs the wheel for `span` and returns every message the edge sent
  /// to `to` of type T, in arrival order.
  template <typename T>
  std::vector<T> received(PeerId to, sim::SimTime span) {
    simulator_.run_until(simulator_.now() + span);
    std::vector<T> out;
    for (const auto& e : sent_) {
      if (e.to != to) continue;
      if (const auto* msg = std::get_if<T>(&e.body)) out.push_back(*msg);
    }
    return out;
  }

  /// A sequenced payload from the child, origin = the child itself.
  void arrive(std::uint64_t seq) {
    edge_.handle(group(), kChild,
                 ReliableDataMsg{kGroup, kChild, 100 + seq, 1, seq, 1});
  }

  ReliableEdge::Links* links(GroupId group) override {
    const auto it = groups_.find(group);
    return it != groups_.end() ? &it->second : nullptr;
  }
  void deliver(GroupId, ReliableEdge::Links&, PeerId,
               const BufferedPayload& payload) override {
    delivered_.push_back(payload);
  }
  PeerId upstream(const ReliableEdge::Links&) const override {
    return kParent;
  }
  void sent(ReliableEdge::Links&, PeerId) override {}

 private:
  testing::SmallWorld world_;
  sim::Simulator simulator_;
  Transport transport_;
  DataReliabilityOptions options_;
  ReliableEdge edge_;
  std::map<GroupId, ReliableEdge::Links> groups_;
  std::vector<BufferedPayload> delivered_;
  std::vector<Envelope> sent_;
};

DataReliabilityOptions reliable() {
  DataReliabilityOptions options;
  options.enabled = true;
  return options;
}

/// How long a test may run the wheel and still see one NACK round: the
/// first NACK goes out within kNackDelay * (1 + kNackJitter) of the gap,
/// and no retry before kNackDelay + kNackRetryDelay.
constexpr sim::SimTime kOneNackRound = kNackDelay + kNackRetryDelay;

std::vector<std::uint64_t> payload_ids(const std::vector<BufferedPayload>& v) {
  std::vector<std::uint64_t> ids;
  for (const auto& p : v) ids.push_back(p.payload_id);
  return ids;
}

TEST(ReliableEdgeSeam, NackMaskCoversTwoNonAdjacentHoles) {
  EdgeRig rig(reliable());
  rig.edge().handle(rig.group(), kChild, SeqSyncMsg{kGroup, 1, 0, 0});
  rig.arrive(0);
  rig.arrive(2);  // 1 missing
  rig.arrive(4);  // 3 missing
  EXPECT_EQ(payload_ids(rig.delivered()), std::vector<std::uint64_t>{100});

  const auto nacks = rig.received<DataNackMsg>(kChild, kOneNackRound);
  ASSERT_EQ(nacks.size(), 1u);
  EXPECT_EQ(nacks[0].epoch, 1u);
  EXPECT_EQ(nacks[0].base_seq, 1u);
  // Bit i marks base + i missing: 1 and 3 are holes, 2 and 4 are parked.
  EXPECT_EQ(nacks[0].missing, 0b101u);
}

TEST(ReliableEdgeSeam, NackRoundsStopAtTheCapAndSkipTheGap) {
  EdgeRig rig(reliable());
  rig.edge().handle(rig.group(), kChild, SeqSyncMsg{kGroup, 1, 0, 0});
  rig.arrive(0);
  rig.arrive(2);  // 1 is never retransmitted
  const auto nacks =
      rig.received<DataNackMsg>(kChild, sim::SimTime::seconds(10));
  // kMaxNackRounds requests for the hole, then the receiver gives up on
  // it and releases the parked payload behind it.
  ASSERT_EQ(nacks.size(), kMaxNackRounds);
  for (const auto& nack : nacks) {
    EXPECT_EQ(nack.base_seq, 1u);
    EXPECT_EQ(nack.missing, 0b1u);
  }
  EXPECT_EQ(payload_ids(rig.delivered()),
            (std::vector<std::uint64_t>{100, 102}));
  EXPECT_EQ(ReliableEdge::expected_seq(rig.group(), kChild), 3u);
}

TEST(ReliableEdgeSeam, SilentReceiverLosesItsTailAfterTheProbeCap) {
  EdgeRig rig(reliable());
  BufferedPayload payload;
  payload.origin = kSelf;
  payload.payload_id = 1;
  payload.hops = 1;
  rig.edge().send(kGroup, rig.group(), kChild, payload);
  // No probe fires before kProbeDelay: whatever SeqSync arrives by then
  // is the handshake of the new edge.
  const auto handshake =
      rig.received<SeqSyncMsg>(kChild, sim::SimTime::micros(
                                                 kProbeDelay.as_micros() / 2))
          .size();
  EXPECT_EQ(ReliableEdge::buffer_depth(rig.group(), kChild), 1u);
  // The child never acks: kMaxProbeRounds re-announcements of the unacked
  // tail, then the sender stops holding it.
  const auto syncs =
      rig.received<SeqSyncMsg>(kChild, sim::SimTime::seconds(20));
  EXPECT_EQ(syncs.size(), handshake + kMaxProbeRounds);
  for (std::size_t i = handshake; i < syncs.size(); ++i) {
    EXPECT_EQ(syncs[i].base_seq, 0u);
    EXPECT_EQ(syncs[i].next_seq, 1u);
  }
  EXPECT_EQ(ReliableEdge::buffer_depth(rig.group(), kChild), 0u);
}

TEST(ReliableEdgeSeam, ProbeQuietWhileAcksAdvance) {
  EdgeRig rig(reliable());
  for (std::uint64_t id = 1; id <= 10; ++id) {
    BufferedPayload payload;
    payload.origin = kSelf;
    payload.payload_id = id;
    payload.hops = 1;
    rig.edge().send(kGroup, rig.group(), kChild, payload);
  }
  // The receiver acks the first eight (its ack_every cadence), leaving a
  // tail of two that it has not acked yet.
  rig.edge().handle(rig.group(), kChild, DataAckMsg{kGroup, 1, 8});
  const auto announced = [&rig](sim::SimTime span) {
    std::size_t probes = 0;
    for (const auto& sync : rig.received<SeqSyncMsg>(kChild, span)) {
      if (sync.next_seq == 10) ++probes;  // not the [0, 0) handshake
    }
    return probes;
  };
  // The first probe round saw the ack advance: it re-arms silently.
  const auto round = sim::SimTime::micros(static_cast<std::int64_t>(
      static_cast<double>(kProbeDelay.as_micros()) * (1.0 + kNackJitter)));
  EXPECT_EQ(announced(round), 0u);
  // No ack since: the tail was lost, and the next round announces it.
  EXPECT_EQ(announced(round), 1u);
  const auto syncs = rig.received<SeqSyncMsg>(kChild, sim::SimTime::zero());
  EXPECT_EQ(syncs.back().base_seq, 8u);
  EXPECT_EQ(syncs.back().next_seq, 10u);
}

TEST(ReliableEdgeSeam, FirstCopyOfANewIncarnationStandsInForItsLostSync) {
  EdgeRig rig(reliable());
  // Incarnation 1's handshake was lost; its first copy syncs the edge.
  rig.arrive(0);
  rig.arrive(1);
  EXPECT_EQ(payload_ids(rig.delivered()),
            (std::vector<std::uint64_t>{100, 101}));
  EXPECT_EQ(ReliableEdge::expected_seq(rig.group(), kChild), 2u);
  // A later copy of an unknown incarnation is still dropped: where its
  // sequence space starts is a guess.
  rig.edge().handle(rig.group(), kChild,
                    ReliableDataMsg{kGroup, kChild, 300, 3, 5, 1});
  EXPECT_EQ(rig.delivered().size(), 2u);
  EXPECT_EQ(ReliableEdge::expected_seq(rig.group(), kChild), 2u);
}

TEST(ReliableEdgeSeam, AckReopeningTheWindowDrainsParkedPayloadsInOrder) {
  auto options = reliable();
  options.flow_control = true;
  options.window = 2;
  EdgeRig rig(options);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    BufferedPayload payload;
    payload.origin = kSelf;
    payload.payload_id = id;
    payload.hops = 1;
    rig.edge().send(kGroup, rig.group(), kChild, payload);
  }
  EXPECT_EQ(ReliableEdge::buffer_depth(rig.group(), kChild), 2u);
  EXPECT_EQ(ReliableEdge::pending_depth(rig.group(), kChild), 3u);
  EXPECT_EQ(rig.group().blocked_edges, 1u);

  rig.edge().handle(rig.group(), kChild, DataAckMsg{kGroup, 1, 2});
  EXPECT_EQ(ReliableEdge::pending_depth(rig.group(), kChild), 1u);
  rig.edge().handle(rig.group(), kChild, DataAckMsg{kGroup, 1, 4});
  EXPECT_EQ(ReliableEdge::pending_depth(rig.group(), kChild), 0u);
  EXPECT_EQ(rig.group().blocked_edges, 0u);

  // Wire sequences stay contiguous and no parked payload overtook another.
  const auto data =
      rig.received<ReliableDataMsg>(kChild, sim::SimTime::seconds(1));
  ASSERT_EQ(data.size(), 5u);
  for (std::uint64_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].seq, i);
    EXPECT_EQ(data[i].payload_id, i + 1);
  }
  // The throttle episode went upstream once each way.
  const auto signals =
      rig.received<FlowControlMsg>(kParent, sim::SimTime::zero());
  ASSERT_EQ(signals.size(), 2u);
  EXPECT_TRUE(signals[0].throttled);
  EXPECT_FALSE(signals[1].throttled);
}

TEST(ReliableEdgeSeam, SeqSyncAboveAGapDeliversTheSurvivingStashInOrder) {
  EdgeRig rig(reliable());
  rig.edge().handle(rig.group(), kChild, SeqSyncMsg{kGroup, 1, 0, 0});
  for (const std::uint64_t seq : {0u, 3u, 2u, 6u, 5u}) rig.arrive(seq);
  EXPECT_EQ(payload_ids(rig.delivered()), std::vector<std::uint64_t>{100});

  // The sender can retransmit nothing below 5: seq 1 and 4 are gone.  The
  // stash below the new base comes out first, then the run from it.
  rig.edge().handle(rig.group(), kChild, SeqSyncMsg{kGroup, 1, 5, 7});
  EXPECT_EQ(payload_ids(rig.delivered()),
            (std::vector<std::uint64_t>{100, 102, 103, 105, 106}));
  EXPECT_EQ(ReliableEdge::expected_seq(rig.group(), kChild), 7u);
  EXPECT_TRUE(rig.received<DataNackMsg>(kChild, sim::SimTime::seconds(2))
                  .empty());
}

}  // namespace
}  // namespace groupcast::core
