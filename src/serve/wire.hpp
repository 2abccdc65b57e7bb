// Shared wire-protocol plumbing of the serving tier — the opcode
// constants and the little framing helpers both router.cpp (query
// plane) and update_router.cpp (update plane) speak. The protocol
// itself is documented in serve/router.hpp; everything here is
// internal to the serve/ translation units.
//
// Requests and responses are assembled in one buffer and shipped with a
// single send(): one syscall per message on the socket transports, and
// the byte counters then count whole messages.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "serve/transport.hpp"
#include "util/check.hpp"

namespace snaple::serve::wire {

inline constexpr std::uint8_t kOpTopk = 1;
inline constexpr std::uint8_t kOpFetch = 2;
inline constexpr std::uint8_t kOpBatch = 3;
inline constexpr std::uint8_t kOpUpdate = 4;
inline constexpr std::uint8_t kOpBarrier = 5;
inline constexpr std::uint8_t kOpRemove = 6;
inline constexpr std::uint8_t kStatusOk = 0;
inline constexpr std::uint8_t kStatusError = 1;

/// The largest array (or error message) one message may carry, in
/// bytes. A count field above it is rejected before anything is
/// allocated, so a corrupt or hostile count cannot make the receiver
/// reserve gigabytes. 64 MiB is 16M vertex ids or 8M edges — far above
/// any batch, row or answer the tier sends; senders check it too.
inline constexpr std::size_t kMaxArrayBytes = std::size_t{64} << 20;

/// An undecodable message: a count over kMaxArrayBytes. Past it the
/// byte stream is out of sync, so this is a link failure (a
/// TransportError); a shard answers it with an error response before
/// closing that one connection.
class WireError : public TransportError {
 public:
  using TransportError::TransportError;
};

/// Throws WireError unless `count` elements of `elem_bytes` each fit
/// under kMaxArrayBytes.
inline void check_count(std::size_t count, std::size_t elem_bytes) {
  if (count > kMaxArrayBytes / elem_bytes) {
    throw WireError("wire count " + std::to_string(count) + " of " +
                    std::to_string(elem_bytes) +
                    "-byte elements exceeds the " +
                    std::to_string(kMaxArrayBytes) + "-byte array cap");
  }
}

template <typename T>
void put(std::vector<std::uint8_t>& buf, const T& value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  buf.insert(buf.end(), p, p + sizeof(T));
}

template <typename T>
void put_span(std::vector<std::uint8_t>& buf, std::span<const T> values) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
  buf.insert(buf.end(), p, p + values.size_bytes());
}

template <typename T>
T get(ByteChannel& ch) {
  T value;
  ch.recv(&value, sizeof(T));
  return value;
}

template <typename T>
void get_array(ByteChannel& ch, std::vector<T>& out, std::size_t count) {
  check_count(count, sizeof(T));
  const std::size_t old = out.size();
  out.resize(old + count);
  if (count != 0) ch.recv(out.data() + old, count * sizeof(T));
}

inline void send_buffer(ByteChannel& ch,
                        const std::vector<std::uint8_t>& buf) {
  ch.send(buf.data(), buf.size());
}

inline void put_error(std::vector<std::uint8_t>& buf,
                      const std::string& message) {
  put<std::uint8_t>(buf, kStatusError);
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(message.size()));
  buf.insert(buf.end(), message.begin(), message.end());
}

/// Reads the (u32 length | bytes) message of an error response.
inline std::string get_message(ByteChannel& ch) {
  const auto len = get<std::uint32_t>(ch);
  check_count(len, 1);
  std::string message(len, '\0');
  if (len != 0) ch.recv(message.data(), len);
  return message;
}

/// Reads a status byte; on error, reads the message and rethrows it as
/// CheckError on this side of the wire.
inline void expect_ok(ByteChannel& ch) {
  if (get<std::uint8_t>(ch) == kStatusOk) return;
  throw CheckError(get_message(ch));
}

/// One topk answer serialized in the shared ok-payload shape
/// (u32 count | ids | raw f32 scores) — op 1's whole payload, op 3's
/// per-query chunk.
inline void put_scored(
    std::vector<std::uint8_t>& buf,
    const std::vector<std::pair<VertexId, float>>& result) {
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(result.size()));
  for (const auto& [id, score] : result) put<std::uint32_t>(buf, id);
  for (const auto& [id, score] : result) put<float>(buf, score);
}

}  // namespace snaple::serve::wire
