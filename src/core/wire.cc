#include "core/wire.h"

#include <array>
#include <concepts>
#include <type_traits>
#include <utility>
#include <variant>

namespace groupcast::core {

namespace {

// A replication log grows by one record per committed handoff, so any
// real log is tiny; the decode bound only protects against corrupt or
// hostile frames claiming absurd lengths.
constexpr std::uint32_t kMaxLeaseRecords = 1024;

// ------------------------------------------------------------ the layouts
//
// One field list per message, in wire order; the frame is the tag byte
// (MessageBody index + 1) followed by these fields.  `io` is one of the
// visitors below, so the size, the encoding and the decoding all follow
// from this list.  A field is a u32, a u64, an int64 deadline (as a
// two's-complement u64), a canonical bool (one byte, 0 or 1), the
// u32-count-prefixed LeaseRecord vector, or one of the two below.

/// The chunk body's u32 length; decode rejects anything over
/// kMaxChunkBytes before it reads another field.
template <class U>
struct BodyLength {
  U& bytes;
};

/// The opaque chunk body, `bytes` long: zeros on encode, skipped on
/// decode.  The simulation carries no application bytes; what matters is
/// that the frame's length (and encoded_size) include them, which is how
/// bandwidth pacing sees the stream as bytes/sec.
template <class U>
struct Body {
  U& bytes;
};

/// A (const when sizing or encoding) T.
template <class M, class T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

void fields(auto& io, Of<AdvertiseMsg> auto& m) {
  io(m.group, m.rendezvous, m.ttl);
}
void fields(auto& io, Of<JoinMsg> auto& m) { io(m.group, m.child); }
void fields(auto& io, Of<JoinAckMsg> auto& m) { io(m.group, m.depth); }
void fields(auto& io, Of<RippleQueryMsg> auto& m) {
  io(m.group, m.origin, m.ttl, m.round);
}
void fields(auto& io, Of<RippleHitMsg> auto& m) {
  io(m.group, m.holder, m.depth);
}
void fields(auto& io, Of<DataMsg> auto& m) {
  io(m.group, m.origin, m.payload_id);
}
void fields(auto& io, Of<LeaveMsg> auto& m) { io(m.group, m.child); }
void fields(auto& io, Of<HeartbeatMsg> auto& m) { io(m.group); }
void fields(auto& io, Of<HeartbeatAckMsg> auto& m) { io(m.group, m.depth); }
void fields(auto& io, Of<ParentLostMsg> auto& m) { io(m.group); }
void fields(auto& io, Of<ReliableDataMsg> auto& m) {
  io(m.group, m.origin, m.payload_id, m.epoch, m.seq);
}
void fields(auto& io, Of<DataNackMsg> auto& m) {
  io(m.group, m.epoch, m.base_seq, m.missing);
}
void fields(auto& io, Of<DataAckMsg> auto& m) {
  io(m.group, m.epoch, m.cumulative);
}
void fields(auto& io, Of<SeqSyncMsg> auto& m) {
  io(m.group, m.epoch, m.base_seq, m.next_seq);
}
void fields(auto& io, Of<FlowControlMsg> auto& m) { io(m.group, m.throttled); }
void fields(auto& io, Of<LeaseMsg> auto& m) {
  io(m.group, m.epoch, m.leader, m.rendezvous);
}
void fields(auto& io, Of<LeaseAckMsg> auto& m) {
  io(m.group, m.epoch, m.head_epoch, m.log_size);
}
void fields(auto& io, Of<LeaseRecord> auto& r) { io(r.epoch, r.leader); }
void fields(auto& io, Of<ReplicateMsg> auto& m) {
  io(m.group, m.epoch, m.leader, m.rendezvous, m.records);
}
void fields(auto& io, Of<ReplicateAckMsg> auto& m) {
  io(m.group, m.epoch, m.head_epoch, m.log_size);
}
void fields(auto& io, Of<HandoffMsg> auto& m) {
  io(m.group, m.epoch, m.candidate, m.rendezvous);
}
void fields(auto& io, Of<ChunkMsg> auto& m) {
  io(m.group, m.origin, m.stream, m.chunk_id, m.deadline_us,
     BodyLength{m.payload_bytes}, m.epoch, m.seq, Body{m.payload_bytes});
}

// ----------------------------------------------------------- the visitors
//
// Each visitor has one overload per field kind; the deleted catch-all
// turns a field of any other type into a compile error instead of a
// silent conversion.

class SizeOf {
 public:
  std::size_t bytes = 1;  // the tag

  void operator()(const auto&... field) { (add(field), ...); }

 private:
  void add(std::uint32_t) { bytes += 4; }
  void add(std::uint64_t) { bytes += 8; }
  void add(std::int64_t) { bytes += 8; }
  void add(bool) { bytes += 1; }
  void add(const std::vector<LeaseRecord>& records) {
    bytes += 4;
    for (const auto& record : records) fields(*this, record);
  }
  void add(BodyLength<const std::uint32_t>) { bytes += 4; }
  void add(Body<const std::uint32_t> body) { bytes += body.bytes; }
  void add(const auto&) = delete;
};

class Encode {
 public:
  explicit Encode(std::vector<std::uint8_t>& out) : out_(&out) {}

  void operator()(const auto&... field) { (put(field), ...); }

 private:
  void little_endian(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void put(std::uint32_t v) { little_endian(v, 4); }
  void put(std::uint64_t v) { little_endian(v, 8); }
  void put(std::int64_t v) { little_endian(static_cast<std::uint64_t>(v), 8); }
  void put(bool v) { out_->push_back(v ? 1 : 0); }
  void put(const std::vector<LeaseRecord>& records) {
    put(static_cast<std::uint32_t>(records.size()));
    for (const auto& record : records) fields(*this, record);
  }
  void put(BodyLength<const std::uint32_t> length) { put(length.bytes); }
  void put(Body<const std::uint32_t> body) {
    out_->insert(out_->end(), body.bytes, 0);
  }
  void put(const auto&) = delete;

  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked: every read throws WireError instead of running past
/// the end of the buffer.
class Decode {
 public:
  explicit Decode(std::span<const std::uint8_t> buffer) : buffer_(buffer) {}

  void operator()(auto&&... field) { (get(field), ...); }

  std::uint8_t u8() {
    need(1);
    return buffer_[at_++];
  }
  bool exhausted() const { return at_ == buffer_.size(); }

 private:
  void need(std::size_t n) const {
    if (buffer_.size() - at_ < n) throw WireError("truncated message");
  }
  std::uint64_t little_endian(int bytes) {
    need(bytes);
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(buffer_[at_++]) << (8 * i);
    }
    return v;
  }
  void get(std::uint32_t& v) {
    v = static_cast<std::uint32_t>(little_endian(4));
  }
  void get(std::uint64_t& v) { v = little_endian(8); }
  void get(std::int64_t& v) { v = static_cast<std::int64_t>(little_endian(8)); }
  void get(bool& v) {
    // Canonical bool: only 0/1 re-encode byte-identically, so anything
    // else is a corrupt frame, not a truthy value.
    const std::uint8_t byte = u8();
    if (byte > 1) throw WireError("non-canonical flow-control flag");
    v = byte == 1;
  }
  void get(std::vector<LeaseRecord>& records) {
    std::uint32_t count = 0;
    get(count);
    if (count > kMaxLeaseRecords) throw WireError("oversized lease log");
    records.resize(count);
    for (auto& record : records) fields(*this, record);
  }
  void get(BodyLength<std::uint32_t> length) {
    get(length.bytes);
    if (length.bytes > kMaxChunkBytes) throw WireError("oversized chunk body");
  }
  void get(Body<std::uint32_t> body) {
    need(body.bytes);
    at_ += body.bytes;
  }
  void get(const auto&) = delete;

  std::span<const std::uint8_t> buffer_;
  std::size_t at_ = 0;
};

template <class M>
MessageBody decode_as(Decode& io) {
  M msg;
  fields(io, msg);
  return msg;
}

/// decode_as for each MessageBody alternative, indexed by tag - 1.
template <std::size_t... I>
constexpr auto make_decoders(std::index_sequence<I...>) {
  using Decoder = MessageBody (*)(Decode&);
  return std::array<Decoder, sizeof...(I)>{
      &decode_as<std::variant_alternative_t<I, MessageBody>>...};
}
constexpr auto kDecoders = make_decoders(
    std::make_index_sequence<std::variant_size_v<MessageBody>>{});
static_assert(kDecoders.size() <= 255, "every tag must fit in its byte");

}  // namespace

std::vector<std::uint8_t> encode_message(const MessageBody& body) {
  std::vector<std::uint8_t> out;
  out.reserve(encoded_size(body));
  out.push_back(static_cast<std::uint8_t>(body.index() + 1));
  Encode io(out);
  std::visit([&io](const auto& msg) { fields(io, msg); }, body);
  return out;
}

std::size_t encoded_size(const MessageBody& body) {
  return std::visit(
      [](const auto& msg) {
        SizeOf io;
        fields(io, msg);
        return io.bytes;
      },
      body);
}

MessageBody decode_message(std::span<const std::uint8_t> buffer) {
  Decode io(buffer);
  const std::uint8_t tag = io.u8();
  if (tag == 0 || tag > kDecoders.size()) {
    throw WireError("unknown message tag");
  }
  MessageBody body = kDecoders[tag - 1](io);
  if (!io.exhausted()) throw WireError("trailing bytes after message");
  return body;
}

}  // namespace groupcast::core
