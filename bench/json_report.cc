#include "json_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/advertisement.h"
#include "core/middleware.h"
#include "trace/counters.h"

namespace groupcast::bench {

namespace {

std::string quote(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  out.push_back('"');
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

JsonObject& JsonObject::number(const std::string& key, double value) {
  char buf[40];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  fields_.push_back(Field{key, buf});
  return *this;
}

JsonObject& JsonObject::integer(const std::string& key,
                                std::uint64_t value) {
  fields_.push_back(Field{key, std::to_string(value)});
  return *this;
}

JsonObject& JsonObject::text(const std::string& key,
                             const std::string& value) {
  fields_.push_back(Field{key, quote(value)});
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  fields_.push_back(Field{key, value ? "true" : "false"});
  return *this;
}

JsonObject& JsonObject::raw(const std::string& key, std::string literal) {
  fields_.push_back(Field{key, std::move(literal)});
  return *this;
}

void JsonObject::render(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out += "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += pad;
    out += "  ";
    out += quote(fields_[i].key);
    out += ": ";
    out += fields_[i].literal;
    if (i + 1 < fields_.size()) out += ",";
    out += "\n";
  }
  out += pad;
  out += "}";
}

void JsonObject::render_fields(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  for (const auto& field : fields_) {
    out += pad;
    out += quote(field.key);
    out += ": ";
    out += field.literal;
    out += ",\n";
  }
}

JsonReport::JsonReport(std::string bench_name)
    : name_(std::move(bench_name)) {}

JsonObject& JsonReport::add_cell() {
  cells_.emplace_back();
  return cells_.back();
}

std::string JsonReport::render() const {
  std::string out = "{\n  \"bench\": " + quote(name_) + ",\n";
  root_.render_fields(out, 2);
  out += "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    out += "    ";
    cells_[i].render(out, 4);
    if (i + 1 < cells_.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool JsonReport::write_file(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "json_report: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  const std::string body = render();
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), file) == body.size();
  std::fclose(file);
  if (!ok) {
    std::fprintf(stderr, "json_report: short write to %s\n", path.c_str());
  }
  return ok;
}

void fill_scenario_cell(JsonObject& cell,
                        const metrics::ScenarioResult& r) {
  cell.integer("peers", r.config.peer_count)
      .text("overlay", core::to_string(r.config.overlay))
      .text("scheme", core::to_string(r.config.scheme))
      .integer("groups", r.config.groups)
      .integer("seed", r.config.seed)
      .number("advertisement_messages", r.advertisement_messages)
      .number("subscription_messages", r.subscription_messages)
      .number("receiving_rate", r.receiving_rate)
      .number("subscription_success_rate", r.subscription_success_rate)
      .number("lookup_latency_ms", r.lookup_latency_ms)
      .number("delay_penalty", r.delay_penalty)
      .number("link_stress", r.link_stress)
      .number("node_stress", r.node_stress)
      .number("overload_index", r.overload_index)
      .integer("events_fired", r.events_fired)
      .integer("queue_high_water", r.queue_high_water);
  if (r.config.recovery.enabled) {
    cell.number("loss_probability", r.config.recovery.loss_probability)
        .number("crash_fraction", r.config.recovery.crash_fraction)
        .number("graceful_fraction", r.config.recovery.graceful_fraction)
        .boolean("reliable_data", r.config.recovery.reliable_data)
        .number("delivery_ratio", r.delivery_ratio)
        .number("delivery_ratio_stddev", r.delivery_ratio_stddev)
        .number("reattached_fraction", r.reattached_fraction)
        .number("reattached_fraction_stddev", r.reattached_fraction_stddev)
        .number("mean_orphan_epochs", r.mean_orphan_epochs)
        .number("epochs_to_converge", r.epochs_to_converge)
        .number("invariant_violations", r.invariant_violations)
        .number("invariant_violations_max", r.invariant_violations_max)
        .integer("control_retries",
                 r.counters.total(trace::CounterId::kControlRetries))
        .integer("control_giveups",
                 r.counters.total(trace::CounterId::kControlGiveups))
        .integer("orphans_recovered",
                 r.counters.total(trace::CounterId::kOrphansRecovered))
        .integer("nacks_sent",
                 r.counters.total(trace::CounterId::kNacksSent))
        .integer("retransmits",
                 r.counters.total(trace::CounterId::kRetransmits))
        .integer("dups_suppressed",
                 r.counters.total(trace::CounterId::kDupsSuppressed))
        .integer("send_buffer_high_water",
                 r.counters.total(trace::CounterId::kSendBufferHighWater));
    if (r.config.recovery.flow_control || r.config.recovery.adaptive) {
      // Self-tuning transport cells only: absent fields keep the legacy
      // cells byte-identical to reports from before these flags existed.
      cell.boolean("flow_control", r.config.recovery.flow_control)
          .boolean("adaptive", r.config.recovery.adaptive)
          .integer("flow_blocked",
                   r.counters.total(trace::CounterId::kFlowBlocked))
          .integer("flow_throttles",
                   r.counters.total(trace::CounterId::kFlowThrottles));
    }
    if (r.config.recovery.replication) {
      // Replicated-rendezvous cells only, same byte-identity rule.
      cell.integer("replicas", r.config.recovery.replicas)
          .number("lease_seconds", r.config.recovery.lease_seconds)
          .number("partition_seconds", r.config.recovery.partition_seconds)
          .number("lease_handoffs", r.lease_handoffs)
          .number("epoch_conflicts", r.epoch_conflicts)
          .integer("lease_renewals",
                   r.counters.total(trace::CounterId::kLeaseRenewals))
          .integer("backup_attaches",
                   r.counters.total(trace::CounterId::kBackupAttaches));
      if (r.config.recovery.partition_seconds > 0.0) {
        cell.number("partition_majority_delivery",
                    r.partition_majority_delivery)
            .number("partition_minority_delivery",
                    r.partition_minority_delivery);
      }
    }
  }
  if (r.config.streaming.enabled) {
    // Streaming-harness cells only: absent fields keep every other
    // report byte-identical to pre-streaming builds.
    const auto& str = r.config.streaming;
    cell.number("loss_probability", str.loss_probability)
        .boolean("reliable_data", str.reliable_data)
        .integer("chunk_publishers", str.sources.publishers)
        .text("multi_source_mode",
              str.sources.mode == metrics::MultiSourceOptions::Mode::
                                      kPerSourceTrees
                  ? "per-source"
                  : "shared")
        .integer("chunks_per_publisher", str.chunks)
        .integer("chunk_bytes", str.chunk_bytes)
        .number("chunk_deadline_seconds", str.deadline_seconds)
        .number("uplink_kbps", str.uplink_kbps)
        .number("downlink_kbps", str.downlink_kbps)
        .number("chunk_miss_ratio", r.chunk_miss_ratio)
        .number("chunk_miss_ratio_stddev", r.chunk_miss_ratio_stddev)
        .number("startup_delay_ms", r.startup_delay_ms)
        .number("rebuffer_events", r.rebuffer_events)
        .number("chunks_played_per_viewer", r.chunks_played_per_viewer)
        .integer("chunks_published",
                 r.counters.total(trace::CounterId::kChunksPublished))
        .integer("chunks_delivered",
                 r.counters.total(trace::CounterId::kChunksDelivered))
        .integer("chunks_late",
                 r.counters.total(trace::CounterId::kChunksLate))
        .integer("nacks_sent",
                 r.counters.total(trace::CounterId::kNacksSent))
        .integer("retransmits",
                 r.counters.total(trace::CounterId::kRetransmits));
    if (str.flash_crowd_joins > 0) {
      cell.integer("flash_crowd_joins", str.flash_crowd_joins)
          .number("flash_crowd_seconds", str.flash_crowd_seconds)
          .number("flash_attach_fraction", r.flash_attach_fraction);
    }
  }
  if (r.config.shards > 1 && !r.events_per_shard.empty()) {
    // Sharded-kernel cells only (absent fields keep --shards=1 reports
    // byte-identical to pre-shard builds).  The imbalance ratio is
    // max/min events per shard — 1.0 is a perfectly even split.
    std::uint64_t min_events = r.events_per_shard.front();
    std::uint64_t max_events = r.events_per_shard.front();
    for (const auto events : r.events_per_shard) {
      min_events = std::min(min_events, events);
      max_events = std::max(max_events, events);
    }
    cell.integer("shards", r.config.shards)
        .integer("events_per_shard_min", min_events)
        .integer("events_per_shard_max", max_events)
        .number("shard_imbalance",
                min_events > 0 ? static_cast<double>(max_events) /
                                     static_cast<double>(min_events)
                               : 0.0)
        .integer("lookahead_us", static_cast<std::uint64_t>(r.lookahead_us))
        .integer("shard_epochs", r.shard_epochs);
  }
  fill_histogram_fields(cell, r.histograms);
  fill_timeline_field(cell, r.timeline);
}

void fill_histogram_fields(JsonObject& cell,
                           const trace::HistogramSnapshot& histograms) {
  for (std::size_t i = 0; i < trace::kHistogramIds; ++i) {
    const auto id = static_cast<trace::HistogramId>(i);
    const auto& h = histograms.of(id);
    if (h.count == 0) continue;
    const std::string prefix = trace::to_string(id);
    cell.integer(prefix + "_count", h.count)
        .number(prefix + "_mean", h.mean())
        .integer(prefix + "_p50", h.percentile(0.50))
        .integer(prefix + "_p99", h.percentile(0.99))
        .integer(prefix + "_max", h.max);
  }
}

void fill_timeline_field(JsonObject& cell,
                         const std::vector<trace::FlightFrame>& timeline) {
  if (timeline.empty()) return;
  // The headline recovery series; the full counter set stays available
  // through --trace_out (kTimelineFrame events).
  static constexpr trace::CounterId kSeries[] = {
      trace::CounterId::kMessagesSent,   trace::CounterId::kMessagesDropped,
      trace::CounterId::kNacksSent,      trace::CounterId::kRetransmits,
      trace::CounterId::kOrphansRecovered};
  std::string out = "[\n";
  for (std::size_t f = 0; f < timeline.size(); ++f) {
    const auto& frame = timeline[f];
    JsonObject row;
    row.integer("t_us", static_cast<std::uint64_t>(frame.t_us));
    row.integer("deliveries",
                frame.samples[static_cast<std::size_t>(
                    trace::HistogramId::kEndToEndDelayUs)]);
    for (const auto id : kSeries) {
      row.integer(trace::to_string(id),
                  frame.counters[static_cast<std::size_t>(id)]);
    }
    out += "        ";
    row.render(out, 8);
    if (f + 1 < timeline.size()) out += ",";
    out += "\n";
  }
  out += "      ]";
  cell.raw("timeline", std::move(out));
}

}  // namespace groupcast::bench
