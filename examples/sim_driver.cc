// sim_driver — the command-line experiment driver.
//
// Runs a configurable GroupCast scenario and prints either a human
// summary or a CSV row, so parameter sweeps can be scripted without
// writing C++:
//
//   ./sim_driver --peers=4000 --overlay=groupcast --scheme=ssa
//                --groups=10 --group-size=400 --seed=1 --csv
//
// With --trace_out=<path> the run also writes a JSONL protocol trace
// (see docs/OBSERVABILITY.md) that tools/trace_report summarizes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>

#include "metrics/experiment.h"
#include "trace/sink.h"
#include "trace/trace.h"
#include "util/flags.h"
#include "util/require.h"

namespace {

using namespace groupcast;

core::OverlayKind parse_overlay(const std::string& name) {
  if (name == "groupcast") return core::OverlayKind::kGroupCast;
  if (name == "random" || name == "plod") {
    return core::OverlayKind::kRandomPowerLaw;
  }
  if (name == "supernode") return core::OverlayKind::kSupernode;
  std::fprintf(stderr, "unknown overlay '%s' (groupcast|random|supernode)\n",
               name.c_str());
  std::exit(2);
}

core::AnnouncementScheme parse_scheme(const std::string& name) {
  if (name == "ssa") return core::AnnouncementScheme::kSsaUtility;
  if (name == "ssa-random") return core::AnnouncementScheme::kSsaRandom;
  if (name == "nssa") return core::AnnouncementScheme::kNssa;
  std::fprintf(stderr, "unknown scheme '%s' (ssa|ssa-random|nssa)\n",
               name.c_str());
  std::exit(2);
}

/// Exits 2 when one of `names` was given on the command line although
/// the feature it belongs to is off; `needs` names what turns it on.
void refuse_stray(const util::Flags& flags,
                  std::initializer_list<const char*> names,
                  const char* needs) {
  for (const char* name : names) {
    if (!flags.provided(name)) continue;
    std::fprintf(stderr, "sim_driver: --%s only takes effect with %s\n", name,
                 needs);
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.declare("peers", "overlay size", "1000");
  flags.declare("overlay", "groupcast | random | supernode", "groupcast");
  flags.declare("scheme", "ssa | ssa-random | nssa", "ssa");
  flags.declare("groups", "communication groups to establish", "10");
  flags.declare("group-size", "subscribers per group (0 = peers/10)", "0");
  flags.declare("seed", "base RNG seed", "1");
  flags.declare("topologies", "independent repetitions (seed, seed+1, ...)",
                "1");
  flags.declare("jobs",
                "worker threads for the repetitions (0 = all hardware "
                "threads); results are identical for any value",
                "1");
  flags.declare("fraction", "SSA forwarding fraction", "0.35");
  flags.declare("ttl", "advertisement TTL", "8");
  flags.declare("ripple-ttl", "subscription ripple-search TTL", "2");
  flags.declare("csv", "emit one CSV row instead of the summary", "false");
  flags.declare("csv-header", "print the CSV header line and exit", "false");
  flags.declare("trace_out", "write a JSONL protocol trace to this path", "");
  flags.declare("recovery",
                "run the node-runtime churn/recovery harness instead of the "
                "engine pipeline",
                "false");
  flags.declare("loss", "recovery/streaming: per-message loss probability",
                "0");
  flags.declare("crash", "recovery: fraction of subscribers crashed", "0");
  flags.declare("graceful", "recovery: fraction leaving gracefully", "0");
  flags.declare("reliable",
                "recovery/streaming: NACK/retransmit reliability on tree "
                "edges",
                "false");
  flags.declare("flow-control",
                "recovery/streaming: sender-side flow control on reliable "
                "edges (requires --reliable)",
                "false");
  flags.declare("window",
                "recovery: sender window per reliable edge, in sequences "
                "(requires --flow-control)",
                "32");
  flags.declare("adaptive",
                "recovery/streaming: adaptive failure detection and NACK "
                "cadence",
                "false");
  flags.declare("replicas",
                "recovery: rendezvous replica-set size; > 0 enables leased "
                "leadership and quorum handoff",
                "0");
  flags.declare("lease-ms",
                "recovery: lease renewal interval in milliseconds "
                "(requires --replicas)",
                "500");
  flags.declare("partition",
                "recovery: cut the rendezvous-side subtree off for this "
                "many seconds mid-run (requires --replicas)",
                "0");
  flags.declare("shards",
                "recovery/streaming: event-kernel shards (whole stub "
                "domains each), "
                "one worker thread each from 2 up; 0 = 1 below 10000 "
                "peers, else one per hardware thread (output is "
                "byte-identical at every shard count)",
                "0");
  flags.declare("streaming",
                "run the live-streaming workload harness instead of the "
                "engine pipeline",
                "false");
  flags.declare("chunks", "streaming: chunks per publisher", "50");
  flags.declare("chunk-interval-ms", "streaming: publisher cadence", "100");
  flags.declare("chunk-bytes", "streaming: simulated chunk size", "16384");
  flags.declare("chunk-deadline-ms",
                "streaming: playback deadline after each chunk's publish "
                "instant",
                "2000");
  flags.declare("uplink-kbps",
                "streaming: per-peer uplink cap in kbit/s (0 = uncapped)",
                "0");
  flags.declare("downlink-kbps",
                "streaming: per-peer downlink cap in kbit/s (0 = uncapped)",
                "0");
  flags.declare("cap-capacity",
                "streaming: scale both caps by each peer's capacity class",
                "false");
  flags.declare("publishers", "streaming: concurrent sources (streams)",
                "1");
  flags.declare("multi-source",
                "streaming: tree layout for k publishers "
                "(shared | per-source)",
                "shared");
  flags.declare("flash-joins",
                "streaming: peers joining mid-stream against the warm tree",
                "0");
  flags.declare("flash-seconds",
                "streaming: window the flash joins spread over", "1");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.help(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.help(argv[0]).c_str());
    return 0;
  }
  if (flags.get_bool("csv-header")) {
    std::printf("peers,overlay,scheme,groups,group_size,seed,topologies,"
                "adv_messages,sub_messages,receiving_rate,success_rate,"
                "lookup_ms,delay_penalty,link_stress,node_stress,"
                "overload_index\n");
    return 0;
  }

  metrics::ScenarioConfig config;
  config.peer_count = static_cast<std::size_t>(flags.get_int("peers"));
  config.overlay = parse_overlay(flags.get_string("overlay"));
  config.scheme = parse_scheme(flags.get_string("scheme"));
  config.groups = static_cast<std::size_t>(flags.get_int("groups"));
  config.group_size = static_cast<std::size_t>(flags.get_int("group-size"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.forward_fraction = flags.get_double("fraction");
  config.advertisement_ttl = static_cast<std::size_t>(flags.get_int("ttl"));
  config.ripple_ttl = static_cast<std::size_t>(flags.get_int("ripple-ttl"));
  config.recovery.enabled = flags.get_bool("recovery");
  config.streaming.enabled = flags.get_bool("streaming");
  // The shared node-runtime flags fill whichever harness runs.
  metrics::RuntimeOptions* runtime = nullptr;
  if (config.recovery.enabled) runtime = &config.recovery;
  if (config.streaming.enabled) runtime = &config.streaming;
  if (runtime != nullptr) {
    runtime->loss_probability = flags.get_double("loss");
    runtime->reliable_data = flags.get_bool("reliable");
    runtime->flow_control = flags.get_bool("flow-control");
    runtime->adaptive = flags.get_bool("adaptive");
  }
  config.recovery.crash_fraction = flags.get_double("crash");
  config.recovery.graceful_fraction = flags.get_double("graceful");
  config.recovery.flow_window =
      static_cast<std::size_t>(flags.get_int("window"));
  const auto replicas =
      static_cast<std::size_t>(std::max<std::int64_t>(0,
                                                      flags.get_int("replicas")));
  config.recovery.replication = replicas > 0;
  if (replicas > 0) config.recovery.replicas = replicas;
  config.recovery.lease_seconds = flags.get_double("lease-ms") / 1000.0;
  config.recovery.partition_seconds = flags.get_double("partition");
  if (config.streaming.enabled) {
    config.streaming.chunks =
        static_cast<std::size_t>(flags.get_int("chunks"));
    config.streaming.chunk_interval_seconds =
        flags.get_double("chunk-interval-ms") / 1000.0;
    config.streaming.chunk_bytes =
        static_cast<std::size_t>(flags.get_int("chunk-bytes"));
    config.streaming.deadline_seconds =
        flags.get_double("chunk-deadline-ms") / 1000.0;
    config.streaming.uplink_kbps = flags.get_double("uplink-kbps");
    config.streaming.downlink_kbps = flags.get_double("downlink-kbps");
    config.streaming.scale_caps_with_capacity =
        flags.get_bool("cap-capacity");
    config.streaming.sources.publishers =
        static_cast<std::size_t>(flags.get_int("publishers"));
    const std::string layout = flags.get_string("multi-source");
    if (layout == "shared") {
      config.streaming.sources.mode =
          metrics::MultiSourceOptions::Mode::kSharedTree;
    } else if (layout == "per-source") {
      config.streaming.sources.mode =
          metrics::MultiSourceOptions::Mode::kPerSourceTrees;
    } else {
      std::fprintf(stderr,
                   "sim_driver: unknown --multi-source '%s' "
                   "(shared | per-source)\n",
                   layout.c_str());
      return 2;
    }
    config.streaming.flash_crowd_joins =
        static_cast<std::size_t>(flags.get_int("flash-joins"));
    config.streaming.flash_crowd_seconds = flags.get_double("flash-seconds");
  }
  // A flag whose feature is off would be silently ignored; refuse it
  // loudly, even at its default, so a sweep never mistakes the clean run
  // for results.
  if (runtime == nullptr) {
    refuse_stray(flags, {"loss", "reliable", "flow-control", "adaptive"},
                 "--recovery or --streaming");
  }
  if (!config.streaming.enabled) {
    refuse_stray(flags,
                 {"chunks", "chunk-interval-ms", "chunk-bytes",
                  "chunk-deadline-ms", "uplink-kbps", "downlink-kbps",
                  "cap-capacity", "publishers", "multi-source",
                  "flash-joins", "flash-seconds"},
                 "--streaming");
  }
  if (!config.recovery.enabled) {
    refuse_stray(flags, {"crash", "graceful", "replicas", "partition", "window"},
                 "--recovery");
  }
  // Flags that refine another flag's feature: alone they do nothing.
  if (runtime == nullptr || !runtime->flow_control) {
    refuse_stray(flags, {"window"}, "--flow-control");
  }
  if (!config.recovery.replication) {
    refuse_stray(flags, {"lease-ms"}, "--replicas");
  }
  const std::int64_t shards_raw = flags.get_int("shards");
  if (shards_raw < 0) {
    std::fprintf(stderr, "sim_driver: --shards must be >= 0 (got %lld)\n",
                 static_cast<long long>(shards_raw));
    return 2;
  }
  config.shards = static_cast<std::size_t>(shards_raw);
  try {
    metrics::validate(config);
  } catch (const PreconditionError& error) {
    std::fprintf(stderr, "sim_driver: %s\n", error.what());
    return 2;
  }
  const auto topologies =
      static_cast<std::size_t>(flags.get_int("topologies"));
  const auto jobs = static_cast<std::size_t>(
      std::max<std::int64_t>(0, flags.get_int("jobs")));

  const std::string trace_path = flags.get_string("trace_out");
  if (!trace_path.empty() && config.shards > 1) {
    // A JSONL trace is one thread's totally-ordered event stream; a
    // sharded run fires events on several workers at once and has no
    // such stream to record.  Refuse loudly (mirrors the --jobs rule).
    std::fprintf(stderr,
                 "sim_driver: --trace_out requires --shards=1 (a sharded "
                 "run has no single totally-ordered event stream to "
                 "trace)\n");
    return 2;
  }
  if (!trace_path.empty() && jobs != 1) {
    // A JSONL trace records one run's event stream through the calling
    // thread's sink; worker-pool repetitions run against isolated
    // registries and would silently contribute nothing.  Refuse instead.
    std::fprintf(stderr,
                 "sim_driver: --trace_out requires --jobs=1 (worker-pool "
                 "runs bypass the calling thread's trace sink)\n");
    return 2;
  }
  std::unique_ptr<trace::ScopedSink> tracing;
  if (!trace_path.empty()) {
    tracing = std::make_unique<trace::ScopedSink>(
        std::make_unique<trace::JsonlFileSink>(trace_path));
    trace::counters().enable(config.peer_count);
    trace::histograms().enable();
    trace::flight_recorder().enable();
  }

  const auto r = metrics::run_scenario_averaged(config, topologies, jobs);

  std::size_t trace_events = 0;
  if (tracing != nullptr) {
    trace::emit_counter_snapshot();
    trace::emit_histogram_snapshot();
    trace::emit_timeline();
    trace_events =
        static_cast<trace::JsonlFileSink*>(tracing->get())->recorded();
    tracing.reset();  // flush + close before reporting
    trace::counters().disable();
    trace::histograms().disable();
    trace::flight_recorder().disable();
  }

  if (flags.get_bool("csv")) {
    std::printf("%zu,%s,%s,%zu,%zu,%llu,%zu,%.1f,%.1f,%.4f,%.4f,%.2f,%.4f,"
                "%.4f,%.4f,%.6f\n",
                config.peer_count, core::to_string(config.overlay),
                core::to_string(config.scheme), config.groups,
                config.effective_group_size(),
                static_cast<unsigned long long>(config.seed), topologies,
                r.advertisement_messages, r.subscription_messages,
                r.receiving_rate, r.subscription_success_rate,
                r.lookup_latency_ms, r.delay_penalty, r.link_stress,
                r.node_stress, r.overload_index);
    return 0;
  }

  std::printf("GroupCast scenario: %zu peers, %s overlay, %s, %zu groups x "
              "%zu subscribers, %zu topologies (seed %llu)\n",
              config.peer_count, core::to_string(config.overlay),
              core::to_string(config.scheme), config.groups,
              config.effective_group_size(), topologies,
              static_cast<unsigned long long>(config.seed));
  if (runtime == nullptr) {
    std::printf("  messages/group: %.0f advertisement + %.0f subscription\n",
                r.advertisement_messages, r.subscription_messages);
    std::printf("  receiving rate %.1f%%, subscription success %.1f%%, "
                "lookup %.1f ms\n",
                100.0 * r.receiving_rate,
                100.0 * r.subscription_success_rate, r.lookup_latency_ms);
    std::printf("  delay penalty %.2f, link stress %.2f, node stress %.2f, "
                "overload %.5f\n",
                r.delay_penalty, r.link_stress, r.node_stress,
                r.overload_index);
    std::printf("  per-group stddev: delay %.2f, link %.2f, overload %.5f, "
                "lookup %.1f ms\n",
                r.delay_penalty_group_stddev, r.link_stress_group_stddev,
                r.overload_index_group_stddev,
                r.lookup_latency_group_stddev);
    std::printf("  avg tree: %.0f nodes, depth %.1f\n", r.avg_tree_nodes,
                r.avg_tree_depth);
  } else {
    // The node-runtime harnesses measure neither the advertisement
    // engine nor the engine-level tree metrics: only the messages their
    // transport sent and how many subscribers made it onto the tree.
    std::printf("  messages sent %.0f, subscription success %.1f%%\n",
                r.subscription_messages,
                100.0 * r.subscription_success_rate);
    // Mean per topology, like the total above.
    std::printf("  messages by kind:");
    for (std::size_t k = 0; k < core::kMessageKinds; ++k) {
      const auto kind = static_cast<core::MessageKind>(k);
      std::printf("%s %s %.0f", k == 0 ? "" : ",", core::to_string(kind),
                  static_cast<double>(r.messages_by_kind.of(kind)) /
                      static_cast<double>(topologies));
    }
    std::printf("\n");
    // Only the types that were sent, in MessageBody order.
    std::printf("  messages by type:");
    const char* separator = "";
    for (std::size_t type = 0; type < core::kMessageTypes; ++type) {
      const auto sent = r.messages_by_type.of(type);
      if (sent == 0) continue;
      std::printf("%s %s %.0f", separator, core::message_type_name(type),
                  static_cast<double>(sent) /
                      static_cast<double>(topologies));
      separator = ",";
    }
    std::printf("\n");
  }
  if (config.recovery.enabled) {
    std::printf("  avg tree: %.0f nodes\n", r.avg_tree_nodes);
    std::printf("  recovery: delivery %.1f%%, reattached %.1f%%, orphan "
                "%.2f epochs, converged in %.1f, violations %.4g\n",
                100.0 * r.delivery_ratio, 100.0 * r.reattached_fraction,
                r.mean_orphan_epochs, r.epochs_to_converge,
                r.invariant_violations);
    for (const auto& violation : r.violation_samples) {
      std::printf("  violation: %s\n", violation.c_str());
    }
    if (config.recovery.replication) {
      std::printf("  replication: handoffs %.1f, epoch conflicts %.1f\n",
                  r.lease_handoffs, r.epoch_conflicts);
      if (config.recovery.partition_seconds > 0.0) {
        std::printf("  partition: majority delivery %.1f%%, minority "
                    "delivery %.1f%%\n",
                    100.0 * r.partition_majority_delivery,
                    100.0 * r.partition_minority_delivery);
      }
    }
  }
  if (config.streaming.enabled) {
    std::printf("  streaming: miss %.2f%% (stddev %.2f%%), startup %.0f ms, "
                "rebuffers %.2f, played %.1f chunks/viewer\n",
                100.0 * r.chunk_miss_ratio,
                100.0 * r.chunk_miss_ratio_stddev, r.startup_delay_ms,
                r.rebuffer_events, r.chunks_played_per_viewer);
    if (config.streaming.flash_crowd_joins > 0) {
      std::printf("  flash crowd: %zu joins over %.1f s, %.1f%% attached\n",
                  config.streaming.flash_crowd_joins,
                  config.streaming.flash_crowd_seconds,
                  100.0 * r.flash_attach_fraction);
    }
  }
  if (!trace_path.empty()) {
    std::printf("  trace: %s (%zu events)\n", trace_path.c_str(),
                trace_events);
  }
  return 0;
}
