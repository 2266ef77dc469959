#include "trace/sink.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "trace/counters.h"
#include "trace/histogram.h"
#include "util/require.h"

namespace groupcast::trace {

namespace {

/// Signed view of a PeerId for serialization: kNoPeer becomes -1.
std::int64_t id_out(NodeId p) {
  return p == kNoNode ? -1 : static_cast<std::int64_t>(p);
}

NodeId id_in(std::int64_t v) {
  return v < 0 ? kNoNode : static_cast<NodeId>(v);
}

}  // namespace

// ------------------------------------------------------------ ring buffer

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  GC_REQUIRE(capacity >= 1);
  buffer_.reserve(capacity);
}

void RingBufferSink::record(const TraceEvent& event) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(event);
  } else {
    buffer_[next_] = event;
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::vector<TraceEvent> RingBufferSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(buffer_.size());
  if (buffer_.size() < capacity_) {
    out = buffer_;
  } else {
    // Full ring: next_ points at the oldest slot.
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(buffer_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

void RingBufferSink::clear() {
  buffer_.clear();
  next_ = 0;
  recorded_ = 0;
}

// ------------------------------------------------------------------ JSONL

namespace {

using Names = std::vector<const char*>;

template <typename Id>
Names names_of() {
  Names names;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Id::kCount_); ++i) {
    names.push_back(to_string(static_cast<Id>(i)));
  }
  return names;
}

/// The numeric fields of a line, in key order.
enum Field { kNodeField, kPeerField, kValueField, kNoField };
constexpr const char* kFieldKeys[] = {"node", "peer", "value"};

/// The field of a kind that carries an id, and the names of its ids by
/// id.  Timeline series are the counters, then the histograms.
struct NamedField {
  Field field = kNoField;
  Names names;
};

const NamedField& named_field(EventKind kind) {
  static const auto table = [] {
    std::array<NamedField, kEventKinds> t;
    const auto at = [&t](EventKind k) -> NamedField& {
      return t[static_cast<std::size_t>(k)];
    };
    at(EventKind::kPhaseBegin) = {kValueField, names_of<Phase>()};
    at(EventKind::kMessageDropped) = {kValueField, names_of<DropReason>()};
    at(EventKind::kCounterSnapshot) = {kPeerField, names_of<CounterId>()};
    at(EventKind::kHistogramBin) = {kNodeField, names_of<HistogramId>()};
    Names series = names_of<CounterId>();
    for (const char* name : names_of<HistogramId>()) series.push_back(name);
    at(EventKind::kTimelineFrame) = {kPeerField, std::move(series)};
    return t;
  }();
  return table[static_cast<std::size_t>(kind)];
}

}  // namespace

std::string to_jsonl(const TraceEvent& event) {
  const NamedField& named = named_field(event.kind);
  const std::uint64_t raw[kNoField] = {event.node, event.peer, event.value};
  char fields[kNoField][40];
  for (int f = 0; f < kNoField; ++f) {
    if (f == named.field) {
      std::snprintf(fields[f], sizeof(fields[f]), "\"%s\"",
                    raw[f] < named.names.size() ? named.names[raw[f]] : "?");
    } else if (f == kValueField) {
      std::snprintf(fields[f], sizeof(fields[f]), "%" PRIu64, raw[f]);
    } else {
      std::snprintf(fields[f], sizeof(fields[f]), "%" PRId64,
                    id_out(static_cast<NodeId>(raw[f])));
    }
  }
  char line[192];
  std::snprintf(line, sizeof(line),
                "{\"t_us\":%" PRId64
                ",\"kind\":\"%s\",\"node\":%s,\"peer\":%s,\"value\":%s}",
                event.t_us, to_string(event.kind), fields[kNodeField],
                fields[kPeerField], fields[kValueField]);
  return line;
}

namespace {

/// Finds `"key":` in `line` and returns the character offset just past the
/// colon, or npos.
std::size_t find_value(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto at = line.find(needle);
  return at == std::string::npos ? std::string::npos : at + needle.size();
}

bool parse_int_field(const std::string& line, const char* key,
                     std::int64_t* out) {
  const auto at = find_value(line, key);
  if (at == std::string::npos) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(line.c_str() + at, &end, 10);
  if (end == line.c_str() + at || errno != 0) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

/// Reads `key` as an unsigned 64-bit number: the value field, which
/// to_jsonl writes unsigned (a packed provenance may set bit 63).
bool parse_uint_field(const std::string& line, const char* key,
                      std::int64_t* out) {
  const auto at = find_value(line, key);
  if (at == std::string::npos || line.compare(at, 1, "-") == 0) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(line.c_str() + at, &end, 10);
  if (end == line.c_str() + at || errno != 0) return false;
  *out = static_cast<std::int64_t>(v);  // the bits, cast back below
  return true;
}

/// Reads the quoted name of `key` as its index in `names`.
bool parse_name_field(const std::string& line, const char* key,
                      const Names& names, std::int64_t* out) {
  auto at = find_value(line, key);
  if (at == std::string::npos) return false;
  while (at < line.size() && line[at] == ' ') ++at;
  if (at >= line.size() || line[at] != '"') return false;
  const auto close = line.find('"', at + 1);
  if (close == std::string::npos) return false;
  const auto name = std::string_view(line).substr(at + 1, close - at - 1);
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) return false;
  *out = it - names.begin();
  return true;
}

}  // namespace

std::optional<TraceEvent> parse_jsonl(const std::string& line) {
  static const Names kinds = names_of<EventKind>();
  std::int64_t t = 0, kind = 0, f[kNoField] = {0, 0, 0};
  if (!parse_int_field(line, "t_us", &t)) return std::nullopt;
  if (!parse_name_field(line, "kind", kinds, &kind)) return std::nullopt;
  const NamedField& named = named_field(static_cast<EventKind>(kind));
  for (int i = 0; i < kNoField; ++i) {
    bool ok = false;
    if (i == named.field) {
      ok = parse_name_field(line, kFieldKeys[i], named.names, &f[i]);
    } else if (i == kValueField) {
      ok = parse_uint_field(line, kFieldKeys[i], &f[i]);
    } else {
      ok = parse_int_field(line, kFieldKeys[i], &f[i]);
    }
    if (!ok) return std::nullopt;
  }
  return TraceEvent{t, static_cast<EventKind>(kind), id_in(f[kNodeField]),
                    id_in(f[kPeerField]),
                    static_cast<std::uint64_t>(f[kValueField])};
}

JsonlFileSink::JsonlFileSink(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "w");
  GC_REQUIRE_MSG(file_ != nullptr, "cannot open trace file: " + path);
}

JsonlFileSink::~JsonlFileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlFileSink::record(const TraceEvent& event) {
  const auto line = to_jsonl(event);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  ++recorded_;
}

void JsonlFileSink::flush() { std::fflush(file_); }

std::optional<std::vector<TraceEvent>> read_jsonl_file(
    const std::string& path, std::size_t* malformed) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return std::nullopt;
  std::vector<TraceEvent> out;
  std::size_t bad = 0;
  std::string line;
  char chunk[512];
  while (std::fgets(chunk, sizeof(chunk), file) != nullptr) {
    line += chunk;
    if (!line.empty() && line.back() != '\n' && !std::feof(file)) {
      continue;  // long line split across fgets calls
    }
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (!line.empty()) {
      if (auto event = parse_jsonl(line)) {
        out.push_back(*event);
      } else {
        ++bad;
      }
    }
    line.clear();
  }
  std::fclose(file);
  if (malformed != nullptr) *malformed = bad;
  return out;
}

}  // namespace groupcast::trace
