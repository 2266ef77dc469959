#include "metrics/streaming.h"

#include <algorithm>
#include <unordered_map>
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

void validate(const ScenarioConfig& config) {
  const StreamingOptions& str = config.streaming;
  detail::validate_runtime(config, str, "streaming");
  GC_REQUIRE_MSG(str.chunks >= 1, "streaming.chunks must be >= 1");
  GC_REQUIRE_MSG(str.chunk_interval_seconds > 0.0,
                 "streaming.chunk_interval_seconds must be > 0");
  GC_REQUIRE_MSG(str.chunk_bytes >= 1 &&
                     str.chunk_bytes <= core::kMaxChunkBytes,
                 "streaming.chunk_bytes must be in [1, 16 MiB]");
  GC_REQUIRE_MSG(str.deadline_seconds > 0.0,
                 "streaming.deadline_seconds must be > 0");
  GC_REQUIRE_MSG(str.uplink_kbps >= 0.0 && str.downlink_kbps >= 0.0,
                 "streaming bandwidth caps must be non-negative");
  GC_REQUIRE_MSG(str.sources.publishers >= 1,
                 "streaming.sources.publishers must be >= 1");
  GC_REQUIRE_MSG(str.flash_crowd_seconds > 0.0,
                 "streaming.flash_crowd_seconds must be > 0");
}

/// Group ids used by the harness: the shared-tree mode uses kGroupBase
/// alone; per-source trees use kGroupBase + stream.
constexpr core::GroupId kGroupBase = 1;

/// One viewer's arrival log: publisher-major, chunk-minor, -1 = never
/// arrived.  Each slot is written only from its viewer's shard (the
/// on_chunk callback runs there), so the sharded run needs no locks.
struct ViewerLog {
  overlay::PeerId peer = overlay::kNoPeer;
  /// When this viewer became eligible (stream start, or the flash join
  /// instant): chunks published before it are back-catalog, not scored.
  std::int64_t eligible_from_us = 0;
  bool flash = false;
  std::vector<std::int64_t> arrival_us;
};

}  // namespace

ScenarioResult run_streaming_scenario(const ScenarioConfig& config) {
  const StreamingOptions& str = config.streaming;
  validate(config);
  const std::size_t n_streams = str.sources.publishers;
  const bool per_source =
      str.sources.mode == MultiSourceOptions::Mode::kPerSourceTrees;
  const std::size_t n_groups = per_source ? n_streams : 1;
  GC_REQUIRE_MSG(n_streams + 1 < config.peer_count,
                 "streaming needs peers beyond the publishers");

  ScenarioResult result;
  core::TransportOptions transport_options;
  transport_options.bandwidth.uplink_kbps = str.uplink_kbps;
  transport_options.bandwidth.downlink_kbps = str.downlink_kbps;
  transport_options.bandwidth.scale_with_capacity =
      str.scale_caps_with_capacity;
  detail::NodeRuntime runtime(config, str, transport_options);
  core::GroupCastMiddleware& middleware = runtime.middleware();
  util::Rng& rng = runtime.rng();
  core::Transport& transport = runtime.transport();
  auto& nodes = runtime.nodes();

  // --- phase 1: sources, groups, and the advertisement flood ------------
  // Shared tree: the rendezvous roots the one group and every publisher
  // attaches as a subscriber (publishing up through its own attachment
  // point).  Per-source trees: each publisher creates — and thereby
  // roots — its own group.
  const overlay::PeerId rendezvous = middleware.pick_rendezvous();
  std::vector<overlay::PeerId> publishers;
  for (const auto idx : rng.sample_indices(
           config.peer_count,
           std::min(n_streams + 1, config.peer_count))) {
    const auto p = static_cast<overlay::PeerId>(idx);
    if (p == rendezvous || publishers.size() == n_streams) continue;
    publishers.push_back(p);
  }
  GC_REQUIRE_MSG(publishers.size() == n_streams,
                 "peer_count too small for the requested publishers");
  if (per_source) {
    for (std::size_t s = 0; s < n_streams; ++s) {
      nodes[publishers[s]]->create_group(
          kGroupBase + static_cast<core::GroupId>(s));
    }
  } else {
    nodes[rendezvous]->create_group(kGroupBase);
  }
  runtime.advance(kEpoch);  // advertisement flood settles

  // --- phase 2: viewers subscribe, tree converges -----------------------
  std::vector<char> is_source(config.peer_count, 0);
  for (const auto p : publishers) is_source[p] = 1;
  is_source[rendezvous] = 1;
  std::vector<overlay::PeerId> viewers;
  const std::size_t group_size = config.effective_group_size();
  for (const auto idx : rng.sample_indices(
           config.peer_count,
           std::min(group_size + n_streams + 1, config.peer_count))) {
    const auto p = static_cast<overlay::PeerId>(idx);
    if (is_source[p] != 0 || viewers.size() == group_size) continue;
    viewers.push_back(p);
  }

  // Every subscriber re-subscribes one epoch after a give-up (the
  // runtime's retry loop).
  const auto all_groups = [&] {
    std::vector<core::GroupId> groups;
    for (std::size_t g = 0; g < n_groups; ++g) {
      groups.push_back(kGroupBase + static_cast<core::GroupId>(g));
    }
    return groups;
  }();
  for (const auto v : viewers) runtime.arm_subscriber(v);
  if (!per_source) {
    // Shared tree: publishers must be on the tree to publish.
    for (const auto p : publishers) runtime.arm_subscriber(p);
    for (const auto p : publishers) nodes[p]->subscribe(kGroupBase);
  }
  for (const auto v : viewers) {
    for (const auto g : all_groups) nodes[v]->subscribe(g);
  }
  runtime.settle(viewers, all_groups);

  // --- phase 3: the streaming window ------------------------------------
  const sim::SimTime stream_start = runtime.clock();
  const auto interval =
      sim::SimTime::seconds(str.chunk_interval_seconds);
  const auto deadline_after = sim::SimTime::seconds(str.deadline_seconds);

  // Actual publish instants, publisher-major ((stream * chunks) + chunk);
  // -1 = the source never got the chunk out (it was off-tree at the
  // cadence tick).  Written only from the publisher's own shard.
  std::vector<std::int64_t> published_us(n_streams * str.chunks, -1);
  for (std::size_t s = 0; s < n_streams; ++s) {
    const overlay::PeerId pub = publishers[s];
    const core::GroupId g =
        per_source ? kGroupBase + static_cast<core::GroupId>(s) : kGroupBase;
    auto& pub_sim = transport.simulator_for(pub);
    for (std::size_t c = 0; c < str.chunks; ++c) {
      const sim::SimTime at =
          stream_start + sim::SimTime::micros(interval.as_micros() *
                                              static_cast<std::int64_t>(c + 1));
      pub_sim.schedule_at(at, [&, s, c, g, pub, at] {
        if (!nodes[pub]->running() || !nodes[pub]->on_tree(g)) return;
        published_us[s * str.chunks + c] = at.as_micros();
        nodes[pub]->publish_chunk(g, static_cast<std::uint32_t>(s),
                                  static_cast<std::uint32_t>(c),
                                  at + deadline_after,
                                  static_cast<std::uint32_t>(str.chunk_bytes));
      });
    }
  }

  // Viewer logs: regular viewers first, flash joiners appended below.
  std::vector<ViewerLog> logs;
  std::unordered_map<overlay::PeerId, std::size_t> log_index;
  const auto add_log = [&](overlay::PeerId p, std::int64_t eligible_from,
                           bool flash) {
    log_index[p] = logs.size();
    ViewerLog log;
    log.peer = p;
    log.eligible_from_us = eligible_from;
    log.flash = flash;
    log.arrival_us.assign(n_streams * str.chunks, -1);
    logs.push_back(std::move(log));
  };
  for (const auto v : viewers) {
    add_log(v, stream_start.as_micros(), false);
  }

  // Flash crowd: extra peers subscribing against the warm tree, spread
  // uniformly across the flash window at the head of the stream.
  std::vector<overlay::PeerId> flash_peers;
  if (str.flash_crowd_joins > 0) {
    std::vector<char> taken = is_source;
    for (const auto v : viewers) taken[v] = 1;
    std::size_t free_peers = 0;
    for (const auto t : taken) free_peers += t == 0 ? 1 : 0;
    GC_REQUIRE_MSG(str.flash_crowd_joins <= free_peers,
                   "flash_crowd_joins exceeds the peers left over after "
                   "sources and viewers");
    for (overlay::PeerId p = 0;
         p < config.peer_count && flash_peers.size() < str.flash_crowd_joins;
         ++p) {
      if (taken[p] == 0) flash_peers.push_back(p);
    }
    const auto flash_window = sim::SimTime::seconds(str.flash_crowd_seconds);
    for (std::size_t i = 0; i < flash_peers.size(); ++i) {
      const overlay::PeerId p = flash_peers[i];
      const sim::SimTime at =
          stream_start +
          sim::SimTime::micros(flash_window.as_micros() *
                               static_cast<std::int64_t>(i + 1) /
                               static_cast<std::int64_t>(flash_peers.size() +
                                                         1));
      add_log(p, at.as_micros(), true);
      runtime.arm_subscriber(p);
      transport.simulator_for(p).schedule_at(at, [&, p] {
        for (const auto g : all_groups) nodes[p]->subscribe(g);
      });
    }
  }

  // Arrival recording: the callback runs on the viewer's shard and only
  // writes that viewer's slots; first arrival wins (retransmit races and
  // duplicate suppression make repeats impossible anyway, but the guard
  // keeps the log monotone by construction).
  for (const auto& entry : log_index) {
    const overlay::PeerId p = entry.first;
    const std::size_t li = entry.second;
    auto& node_sim = transport.simulator_for(p);
    nodes[p]->on_chunk(
        [&logs, li, n_streams, chunks = str.chunks, &node_sim](
            core::GroupId, const core::ChunkMsg& msg) {
          if (msg.stream >= n_streams || msg.chunk_id >= chunks) return;
          auto& slot = logs[li].arrival_us[msg.stream * chunks + msg.chunk_id];
          if (slot < 0) slot = node_sim.now().as_micros();
        });
  }

  // Run out the stream, the last deadline, and one settle epoch (NACK
  // repair of the tail, flash-join completion).
  runtime.advance(
      sim::SimTime::micros(interval.as_micros() *
                           static_cast<std::int64_t>(str.chunks + 1)) +
      deadline_after + kEpoch);

  // --- phase 4: the player model ----------------------------------------
  // Score each viewer against the chunks that were actually published
  // after it became eligible: played = arrived by the deadline; a maximal
  // run of consecutive missed chunks of one stream is one rebuffer event;
  // startup delay is eligibility to the first played arrival.
  const std::int64_t deadline_us = deadline_after.as_micros();
  std::uint64_t total_eligible = 0, total_played = 0, total_missed = 0;
  std::uint64_t total_rebuffers = 0;
  double startup_sum_ms = 0.0;
  std::size_t startup_samples = 0;
  for (const auto& log : logs) {
    std::int64_t first_play_us = -1;
    std::uint64_t viewer_missed = 0, viewer_rebuffers = 0;
    for (std::size_t s = 0; s < n_streams; ++s) {
      bool in_gap = false;
      for (std::size_t c = 0; c < str.chunks; ++c) {
        const std::int64_t pub_at = published_us[s * str.chunks + c];
        if (pub_at < 0 || pub_at < log.eligible_from_us) continue;
        ++total_eligible;
        const std::int64_t arrived = log.arrival_us[s * str.chunks + c];
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
      total_eligible == 0 ? 0.0
                          : static_cast<double>(total_missed) /
                                static_cast<double>(total_eligible);
  result.startup_delay_ms =
      startup_samples == 0
          ? 0.0
          : startup_sum_ms / static_cast<double>(startup_samples);
  result.rebuffer_events =
      logs.empty() ? 0.0
                   : static_cast<double>(total_rebuffers) /
                         static_cast<double>(logs.size());
  result.chunks_played_per_viewer =
      logs.empty() ? 0.0
                   : static_cast<double>(total_played) /
                         static_cast<double>(logs.size());
  std::size_t flash_attached = 0;
  for (const auto p : flash_peers) {
    const bool attached = std::all_of(
        all_groups.begin(), all_groups.end(), [&](core::GroupId g) {
          return nodes[p]->is_subscribed(g) && nodes[p]->on_tree(g);
        });
    if (attached) ++flash_attached;
  }
  result.flash_attach_fraction =
      flash_peers.empty() ? 1.0
                          : static_cast<double>(flash_attached) /
                                static_cast<double>(flash_peers.size());

  // Engine-level fields that still make sense here, so grid reports stay
  // uniform with the other harnesses.
  std::size_t attached_viewers = 0;
  for (const auto v : viewers) {
    const bool attached = std::all_of(
        all_groups.begin(), all_groups.end(), [&](core::GroupId g) {
          return nodes[v]->is_subscribed(g) && nodes[v]->on_tree(g);
        });
    if (attached) ++attached_viewers;
  }
  result.subscription_success_rate =
      viewers.empty() ? 1.0
                      : static_cast<double>(attached_viewers) /
                            static_cast<double>(viewers.size());
  runtime.finish(result);
  return result;
}

}  // namespace groupcast::metrics
