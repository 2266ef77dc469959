#include "metrics/streaming.h"

#include <span>
#include <vector>

#include "core/middleware.h"
#include "core/node.h"
#include "core/wire.h"
#include "metrics/harness_common.h"
#include "trace/counters.h"
#include "trace/histogram.h"
#include "util/require.h"

namespace groupcast::metrics {

namespace {

using overlay::PeerId;

/// Group ids used by the harness: the shared-tree mode uses kGroupBase
/// alone; per-source trees use kGroupBase + stream.
constexpr core::GroupId kGroupBase = 1;

/// One viewer's arrival log: publisher-major, chunk-minor, -1 = never
/// arrived.  Each slot is written only from its viewer's shard (the
/// on_chunk callback runs there), so the sharded run needs no locks.
struct ViewerLog {
  PeerId peer = overlay::kNoPeer;
  /// When this viewer became eligible (stream start, or the flash join
  /// instant): chunks published before it are back-catalog, not scored.
  std::int64_t eligible_from_us = 0;
  std::vector<std::int64_t> arrival_us;
};

ViewerLog viewer_log(PeerId peer, sim::SimTime eligible_from,
                     std::size_t slots) {
  return {peer, eligible_from.as_micros(),
          std::vector<std::int64_t>(slots, -1)};
}

core::TransportOptions capped_transport(const StreamingOptions& str) {
  core::TransportOptions options;
  options.bandwidth.uplink_kbps = str.uplink_kbps;
  options.bandwidth.downlink_kbps = str.downlink_kbps;
  options.bandwidth.scale_with_capacity = str.scale_caps_with_capacity;
  return options;
}

/// Schedules each publisher's chunks, one per interval from
/// `stream_start`, into its stream's group (groups[s], or the one shared
/// group).  `published_us` gets the actual publish instants,
/// publisher-major ((stream * chunks) + chunk); -1 = the source never got
/// the chunk out (it was off-tree at the cadence tick).  Each slot is
/// written only from its publisher's shard.
void schedule_chunks(detail::NodeRuntime& runtime, const StreamingOptions& str,
                     const std::vector<PeerId>& publishers,
                     std::span<const core::GroupId> groups,
                     sim::SimTime stream_start,
                     std::vector<std::int64_t>& published_us) {
  const auto interval = sim::SimTime::seconds(str.chunk_interval_seconds);
  const auto deadline_after = sim::SimTime::seconds(str.deadline_seconds);
  const auto bytes = static_cast<std::uint32_t>(str.chunk_bytes);
  for (std::size_t s = 0; s < publishers.size(); ++s) {
    const PeerId pub = publishers[s];
    const core::GroupId g = groups[s % groups.size()];
    auto* node = runtime.nodes()[pub].get();
    auto& pub_sim = runtime.transport().simulator_for(pub);
    for (std::size_t c = 0; c < str.chunks; ++c) {
      const sim::SimTime at =
          stream_start + sim::SimTime::micros(interval.as_micros() *
                                              static_cast<std::int64_t>(c + 1));
      auto* slot = &published_us[s * str.chunks + c];
      pub_sim.schedule_at(at, [node, g, slot, s, c, at, deadline_after, bytes] {
        if (!node->running() || !node->on_tree(g)) return;
        *slot = at.as_micros();
        node->publish_chunk(g, static_cast<std::uint32_t>(s),
                            static_cast<std::uint32_t>(c),
                            at + deadline_after, bytes);
      });
    }
  }
}

/// Flash crowd: the lowest-numbered peers that are neither sources nor
/// viewers subscribe against the warm tree, spread uniformly across the
/// flash window at the head of the stream, each with a log eligible from
/// its join instant and `slots` slots.  Returns them in join order.
std::vector<PeerId> join_flash_crowd(detail::NodeRuntime& runtime,
                                     const StreamingOptions& str,
                                     std::span<const PeerId> sources,
                                     std::span<const PeerId> viewers,
                                     std::span<const core::GroupId> groups,
                                     sim::SimTime stream_start,
                                     std::size_t slots,
                                     std::vector<ViewerLog>& logs) {
  std::vector<char> taken(runtime.nodes().size(), 0);
  for (const auto p : sources) taken[p] = 1;
  for (const auto v : viewers) taken[v] = 1;
  std::vector<PeerId> flash_peers;
  for (PeerId p = 0;
       p < taken.size() && flash_peers.size() < str.flash_crowd_joins; ++p) {
    if (taken[p] == 0) flash_peers.push_back(p);
  }
  GC_REQUIRE_MSG(flash_peers.size() == str.flash_crowd_joins,
                 "flash_crowd_joins exceeds the peers left over after "
                 "sources and viewers");
  const std::int64_t window_us =
      sim::SimTime::seconds(str.flash_crowd_seconds).as_micros();
  const auto joins = static_cast<std::int64_t>(flash_peers.size());
  for (std::size_t i = 0; i < flash_peers.size(); ++i) {
    const PeerId p = flash_peers[i];
    const sim::SimTime at =
        stream_start + sim::SimTime::micros(
                           window_us * static_cast<std::int64_t>(i + 1) /
                           (joins + 1));
    logs.push_back(viewer_log(p, at, slots));
    runtime.arm_subscriber(p);
    auto* node = runtime.nodes()[p].get();
    runtime.transport().simulator_for(p).schedule_at(at, [node, groups] {
      for (const auto g : groups) node->subscribe(g);
    });
  }
  return flash_peers;
}

/// Arrival recording: the callback runs on the viewer's shard and only
/// writes that viewer's slots; first arrival wins (retransmit races and
/// duplicate suppression make repeats impossible anyway, but the guard
/// keeps the log monotone by construction).
void record_arrivals(detail::NodeRuntime& runtime, std::size_t n_streams,
                     std::size_t chunks, std::vector<ViewerLog>& logs) {
  for (auto& log : logs) {
    auto& node_sim = runtime.transport().simulator_for(log.peer);
    runtime.nodes()[log.peer]->on_chunk(
        [&arrival_us = log.arrival_us, n_streams, chunks, &node_sim](
            core::GroupId, const core::ChunkMsg& msg) {
          if (msg.stream >= n_streams || msg.chunk_id >= chunks) return;
          auto& slot = arrival_us[msg.stream * chunks + msg.chunk_id];
          if (slot < 0) slot = node_sim.now().as_micros();
        });
  }
}

/// The player model.  Scores each viewer against the chunks that were
/// actually published after it became eligible: played = arrived by the
/// deadline; a maximal run of consecutive missed chunks of one stream is
/// one rebuffer event; startup delay is eligibility to the first played
/// arrival.
void score_viewers(const std::vector<ViewerLog>& logs,
                   const std::vector<std::int64_t>& published_us,
                   const StreamingOptions& str, ScenarioResult& result) {
  const std::size_t chunks = str.chunks;
  const std::size_t n_streams = published_us.size() / chunks;
  const std::int64_t deadline_us =
      sim::SimTime::seconds(str.deadline_seconds).as_micros();
  std::uint64_t total_eligible = 0, total_played = 0, total_missed = 0;
  std::uint64_t total_rebuffers = 0;
  double startup_sum_ms = 0.0;
  std::size_t startup_samples = 0;
  for (const auto& log : logs) {
    std::int64_t first_play_us = -1;
    std::uint64_t viewer_missed = 0, viewer_rebuffers = 0;
    for (std::size_t s = 0; s < n_streams; ++s) {
      bool in_gap = false;
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::int64_t pub_at = published_us[s * chunks + c];
        if (pub_at < 0 || pub_at < log.eligible_from_us) continue;
        ++total_eligible;
        const std::int64_t arrived = log.arrival_us[s * chunks + c];
        const bool played = arrived >= 0 && arrived <= pub_at + deadline_us;
        if (played) {
          ++total_played;
          if (first_play_us < 0 || arrived < first_play_us) {
            first_play_us = arrived;
          }
          in_gap = false;
          continue;
        }
        ++viewer_missed;
        if (!in_gap) {
          ++viewer_rebuffers;
          in_gap = true;
        }
      }
    }
    total_missed += viewer_missed;
    total_rebuffers += viewer_rebuffers;
    if (viewer_missed > 0) {
      trace::counters().incr(log.peer, trace::CounterId::kChunksMissed,
                             viewer_missed);
    }
    if (viewer_rebuffers > 0) {
      trace::counters().incr(log.peer, trace::CounterId::kRebufferEvents,
                             viewer_rebuffers);
    }
    if (first_play_us >= 0) {
      const auto startup_us =
          static_cast<std::uint64_t>(first_play_us - log.eligible_from_us);
      trace::histograms().record(trace::HistogramId::kStartupDelayUs,
                                 startup_us);
      startup_sum_ms += static_cast<double>(startup_us) / 1000.0;
      ++startup_samples;
    }
  }
  result.chunk_miss_ratio =
      detail::share(total_missed, total_eligible, 0.0);
  result.startup_delay_ms =
      detail::share(startup_sum_ms, startup_samples, 0.0);
  result.rebuffer_events = detail::share(total_rebuffers, logs.size(), 0.0);
  result.chunks_played_per_viewer =
      detail::share(total_played, logs.size(), 0.0);
}

}  // namespace

ScenarioResult run_streaming_scenario(const ScenarioConfig& config) {
  const StreamingOptions& str = config.streaming;
  const std::size_t n_streams = str.sources.publishers;
  const bool per_source =
      str.sources.mode == MultiSourceOptions::Mode::kPerSourceTrees;
  ScenarioResult result;
  detail::NodeRuntime runtime(config, str, capped_transport(str));
  auto& nodes = runtime.nodes();

  // --- phase 1: sources, groups, and the advertisement flood ------------
  // Shared tree: the rendezvous roots the one group and every publisher
  // attaches as a subscriber (publishing up through its own attachment
  // point).  Per-source trees: each publisher creates — and thereby
  // roots — its own group.
  const PeerId rendezvous = runtime.middleware().pick_rendezvous();
  const auto publishers = runtime.pick_peers(n_streams, {&rendezvous, 1});
  std::vector<core::GroupId> groups;
  for (std::size_t g = 0; g < (per_source ? n_streams : 1); ++g) {
    groups.push_back(kGroupBase + static_cast<core::GroupId>(g));
  }
  if (per_source) {
    for (std::size_t s = 0; s < n_streams; ++s) {
      nodes[publishers[s]]->create_group(groups[s]);
    }
  } else {
    nodes[rendezvous]->create_group(kGroupBase);
  }
  runtime.advance(kEpoch);  // advertisement flood settles

  // --- phase 2: viewers subscribe, tree converges -----------------------
  // Every subscriber re-subscribes one epoch after a give-up (the
  // runtime's retry loop).
  std::vector<PeerId> sources = publishers;
  sources.push_back(rendezvous);
  const auto viewers =
      runtime.pick_peers(config.effective_group_size(), sources);
  // Shared tree: publishers must be on the tree to publish.
  if (!per_source) runtime.join(publishers, groups);
  runtime.subscribe(viewers, groups);

  // --- phase 3: the streaming window ------------------------------------
  const sim::SimTime stream_start = runtime.clock();
  std::vector<std::int64_t> published_us(n_streams * str.chunks, -1);
  schedule_chunks(runtime, str, publishers, groups, stream_start,
                  published_us);
  // Viewer logs: regular viewers first, flash joiners appended after.
  std::vector<ViewerLog> logs;
  for (const auto v : viewers) {
    logs.push_back(viewer_log(v, stream_start, published_us.size()));
  }
  std::vector<PeerId> flash_peers;
  if (str.flash_crowd_joins > 0) {
    flash_peers = join_flash_crowd(runtime, str, sources, viewers, groups,
                                   stream_start, published_us.size(), logs);
  }
  record_arrivals(runtime, n_streams, str.chunks, logs);
  // Run out the stream, the last deadline, and one settle epoch (NACK
  // repair of the tail, flash-join completion).
  runtime.advance(
      sim::SimTime::micros(
          sim::SimTime::seconds(str.chunk_interval_seconds).as_micros() *
          static_cast<std::int64_t>(str.chunks + 1)) +
      sim::SimTime::seconds(str.deadline_seconds) + kEpoch);

  // --- phase 4: the player model ----------------------------------------
  score_viewers(logs, published_us, str, result);
  result.flash_attach_fraction = detail::share(
      runtime.attached(flash_peers, groups).size(), flash_peers.size(), 1.0);
  // Engine-level fields that still make sense here, so grid reports stay
  // uniform with the other harnesses.
  result.subscription_success_rate = detail::share(
      runtime.attached(viewers, groups).size(), viewers.size(), 1.0);
  runtime.finish(result);
  return result;
}

}  // namespace groupcast::metrics
