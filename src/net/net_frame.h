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

// Splits a ring record into `*events` (cleared first; a reused vector keeps
// its capacity): a kBatch record yields one NetFrameView per sub-record;
// any other record yields itself. Views alias `record`.
inline void SplitRecord(std::span<const uint8_t> record,
                        std::vector<NetFrameView>* events) {
  events->clear();
  const NetEvent header = DecodePod<NetEvent>(record);
  const std::span<const uint8_t> body = record.subspan(sizeof(NetEvent));
  if (header.kind != NetEventKind::kBatch) {
    events->emplace_back(header, body);
    return;
  }
  size_t off = 0;
  for (uint16_t i = 0; i < header.segments; ++i) {
    CHECK_LE(off + sizeof(uint32_t), body.size());
    uint32_t len = 0;
    std::memcpy(&len, body.data() + off, sizeof(len));
    off += sizeof(len);
    CHECK_LE(off + len, body.size());
    CHECK_GE(len, sizeof(NetEvent));
    const std::span<const uint8_t> sub = body.subspan(off, len);
    events->emplace_back(DecodePod<NetEvent>(sub),
                         sub.subspan(sizeof(NetEvent)));
    off += len;
  }
}

// Appends one event to `*entries` as a kBatch entry: [u32 length][header]
// [payload], where length counts the header and the payload.
inline void AppendBatchEntry(std::vector<uint8_t>* entries,
                             const NetEvent& header,
                             std::span<const uint8_t> payload) {
  const uint32_t len = static_cast<uint32_t>(sizeof(NetEvent) + payload.size());
  const auto* len_bytes = reinterpret_cast<const uint8_t*>(&len);
  entries->insert(entries->end(), len_bytes, len_bytes + sizeof(len));
  const std::span<const uint8_t> head = PodBytes(header);
  entries->insert(entries->end(), head.begin(), head.end());
  entries->insert(entries->end(), payload.begin(), payload.end());
}

// Writes the ring record for `segments` consecutive entries (as
// AppendBatchEntry lays them out) into `*out`: a lone event is its header
// and payload, several ride one kBatch record.
inline void EncodeRecord(std::span<const uint8_t> entries, uint16_t segments,
                         std::vector<uint8_t>* out) {
  CHECK_GE(segments, 1);
  if (segments == 1) {
    out->assign(entries.begin() + sizeof(uint32_t), entries.end());
    return;
  }
  NetEvent header;
  header.kind = NetEventKind::kBatch;
  header.segments = segments;
  header.length = static_cast<uint32_t>(entries.size());
  const std::span<const uint8_t> head = PodBytes(header);
  out->assign(head.begin(), head.end());
  out->insert(out->end(), entries.begin(), entries.end());
}

}  // namespace solros

#endif  // SOLROS_SRC_NET_NET_FRAME_H_
