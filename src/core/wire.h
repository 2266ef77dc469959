// Binary wire format for the GroupCast protocol messages.
//
// The simulated Transport moves C++ objects, but a deployment moves bytes;
// this module defines the (little-endian, fixed-width, tag-prefixed)
// encoding of every protocol message, with bounds-checked decoding.  The
// Transport uses encoded_size() for bandwidth accounting, so message-load
// results can be read in bytes as well as counts — and the encode/decode
// pair is the seam a socket-backed transport would use as-is.
//
// Layout: [1-byte tag][fields].  The tag is the message's MessageBody
// alternative index + 1; the fields, their order and their widths come
// from the one field list per message in wire.cc (docs/PROTOCOL.md §6).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/transport.h"

namespace groupcast::core {

/// Thrown on malformed input: truncated buffer, unknown tag, or trailing
/// garbage.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Decode-side bound on ChunkMsg::payload_bytes (the kMaxLeaseRecords
/// idiom): live-streaming chunks are tens of KiB, so anything past 16 MiB
/// is a corrupt frame, rejected before the reader skips its body.
inline constexpr std::uint32_t kMaxChunkBytes = 16u << 20;

/// Serializes a protocol message.
std::vector<std::uint8_t> encode_message(const MessageBody& body);

/// Parses a buffer produced by encode_message.  Throws WireError on any
/// malformed input; never reads out of bounds.
MessageBody decode_message(std::span<const std::uint8_t> buffer);

/// Size in bytes encode_message would produce (without encoding).
std::size_t encoded_size(const MessageBody& body);

}  // namespace groupcast::core
