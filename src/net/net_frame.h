// Ring-record framing for the net data path (DESIGN.md §5.5).
//
// Two layouts, both starting with a plain NetEvent header
// (src/rpc/messages.h):
//
//  * a single event: the header, then (for kData) one message's payload
//    bytes; the message's trace context is in the header;
//  * kBatch (segments == N): the header, then N [u32 length][encoded
//    event] entries. One ring push (one doorbell) delivers all of them.
#ifndef SOLROS_SRC_NET_NET_FRAME_H_
#define SOLROS_SRC_NET_NET_FRAME_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "src/base/logging.h"
#include "src/rpc/messages.h"

namespace solros {

// One event of a ring record: its header and the bytes that follow it.
// Deliberately not an aggregate — see NetStub::RecvItem for the GCC 12
// coroutine-parameter pitfall.
struct NetFrameView {
  NetFrameView() = default;
  NetFrameView(NetEvent h, std::span<const uint8_t> p) : header(h), body(p) {}
  NetEvent header;
  std::span<const uint8_t> body;  // bytes following the header
};
static_assert(!std::is_aggregate_v<NetFrameView>,
              "GCC 12 miscompiles aggregate coroutine by-value parameters");

// Splits a ring record into its events: a kBatch record yields one
// NetFrameView per sub-record; any other record yields itself. Views alias
// `record`.
inline std::vector<NetFrameView> SplitRecord(std::span<const uint8_t> record) {
  const NetEvent header = DecodePod<NetEvent>(record);
  const std::span<const uint8_t> body = record.subspan(sizeof(NetEvent));
  std::vector<NetFrameView> events;
  if (header.kind != NetEventKind::kBatch) {
    events.emplace_back(header, body);
    return events;
  }
  events.reserve(header.segments);
  size_t off = 0;
  for (uint16_t i = 0; i < header.segments; ++i) {
    CHECK_LE(off + sizeof(uint32_t), body.size());
    uint32_t len = 0;
    std::memcpy(&len, body.data() + off, sizeof(len));
    off += sizeof(len);
    CHECK_LE(off + len, body.size());
    CHECK_GE(len, sizeof(NetEvent));
    const std::span<const uint8_t> sub = body.subspan(off, len);
    events.emplace_back(DecodePod<NetEvent>(sub),
                        sub.subspan(sizeof(NetEvent)));
    off += len;
  }
  return events;
}

// Wraps already-encoded event records into one kBatch record.
inline std::vector<uint8_t> EncodeBatch(
    std::span<const std::vector<uint8_t>> records) {
  size_t body_bytes = 0;
  for (const auto& r : records) {
    body_bytes += sizeof(uint32_t) + r.size();
  }
  NetEvent header;
  header.kind = NetEventKind::kBatch;
  header.segments = static_cast<uint16_t>(records.size());
  header.length = static_cast<uint32_t>(body_bytes);
  std::vector<uint8_t> out(sizeof(NetEvent) + body_bytes);
  std::memcpy(out.data(), &header, sizeof(header));
  size_t off = sizeof(NetEvent);
  for (const auto& r : records) {
    const uint32_t len = static_cast<uint32_t>(r.size());
    std::memcpy(out.data() + off, &len, sizeof(len));
    off += sizeof(len);
    std::memcpy(out.data() + off, r.data(), r.size());
    off += r.size();
  }
  return out;
}

}  // namespace solros

#endif  // SOLROS_SRC_NET_NET_FRAME_H_
