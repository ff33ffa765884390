// RPC wire messages between data-plane stubs and control-plane proxies.
//
// The paper's protocols, reproduced:
//  * File system (§4.3, §5): a 9P-flavoured protocol where each file-system
//    call maps one-to-one onto an RPC. The Tread/Twrite analogues are
//    zero-copy: instead of carrying file data, they carry the *physical
//    address of co-processor memory* (here: a MemRef, device + address),
//    and the proxy arranges a P2P or buffered transfer into/out of it.
//  * Network (§4.4, §5): "10 RPC messages, each of which corresponds to a
//    network system call, and two messages for event notification of a new
//    connection for accept and new data arrival for recv".
//
// Messages are fixed-size PODs memcpy'd into ring records (both ends are
// simulated on the same ISA, so no byte-order concerns — noted in
// DESIGN.md's out-of-scope list).
#ifndef SOLROS_SRC_RPC_MESSAGES_H_
#define SOLROS_SRC_RPC_MESSAGES_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>

#include "src/base/fault.h"
#include "src/base/logging.h"
#include "src/base/status.h"
#include "src/fs/layout.h"
#include "src/hw/memory.h"

namespace solros {

inline constexpr uint32_t kRpcMaxPath = 255;

// ---------------------------------------------------------------------------
// File-system protocol (9P-like)
// ---------------------------------------------------------------------------

enum class FsOp : uint8_t {
  kOpen,      // path -> ino ("Twalk+Topen")
  kCreate,    // path -> ino
  kRead,      // ino, offset, length, target MemRef ("Tread", zero-copy)
  kWrite,     // ino, offset, length, source MemRef ("Twrite", zero-copy)
  kStat,      // path or ino
  kUnlink,
  kMkdir,
  kRmdir,
  kRename,    // path -> path2
  kReaddir,   // returns entries in chunks
  kTruncate,  // ino, length
  kFsync,
};

struct FsRequest {
  FsOp op = FsOp::kOpen;
  uint8_t flags = 0;  // FsOpenFlags below
  uint16_t reserved = 0;
  uint32_t client = 0;  // data-plane id (for the shared buffer-cache stats)
  uint64_t tag = 0;     // request/response correlation
  // Causal trace context (src/sim/trace.h): allocated at the stub, carried
  // through every layer that services the request, echoed in the response.
  // Zero when no tracer is bound (untraced).
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  uint64_t ino = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  MemRef memory;  // zero-copy data buffer ("physical address", §4.3.1)
  char path[kRpcMaxPath + 1] = {};
  char path2[kRpcMaxPath + 1] = {};

  void SetPath(const std::string& p) {
    CHECK_LE(p.size(), kRpcMaxPath);
    std::memset(path, 0, sizeof(path));
    std::memcpy(path, p.data(), p.size());
  }
  void SetPath2(const std::string& p) {
    CHECK_LE(p.size(), kRpcMaxPath);
    std::memset(path2, 0, sizeof(path2));
    std::memcpy(path2, p.data(), p.size());
  }
  std::string Path() const { return std::string(path); }
  std::string Path2() const { return std::string(path2); }
};

// O_BUFFER (§4.3.2): force buffered (host-staged) I/O for this file.
inline constexpr uint8_t kFsFlagBuffered = 1u << 0;

struct FsResponse {
  uint64_t tag = 0;
  uint64_t trace_id = 0;     // echoed from the request by the RPC server
  uint64_t parent_span = 0;
  ErrorCode error = ErrorCode::kOk;
  uint8_t reserved[7] = {};
  uint64_t value = 0;  // ino, byte count, etc.
  FileStat stat;       // for kStat
};

// Readdir is zero-copy like read: the request's MemRef points at
// co-processor memory where the proxy writes an array of Dirent rows;
// the response's `value` is the row count (offset/length select a window,
// enabling chunked listings of huge directories).

// ---------------------------------------------------------------------------
// Network protocol
// ---------------------------------------------------------------------------

enum class NetOp : uint8_t {
  kSocket,
  kBind,
  kListen,
  kAccept,   // completion delivered via event channel
  kConnect,
  kSend,     // payload follows header in the outbound ring record
  kRecv,     // completion via event channel (data in inbound ring)
  kClose,
  kShutdown,
  kSetsockopt,
};

struct NetRequest {
  NetOp op = NetOp::kSocket;
  uint8_t reserved[3] = {};
  uint32_t client = 0;
  uint64_t tag = 0;
  uint64_t trace_id = 0;     // causal trace context (see FsRequest)
  uint64_t parent_span = 0;
  int64_t sock = -1;     // stub-side socket handle
  uint32_t addr = 0;     // IPv4-style address (simulated)
  uint16_t port = 0;
  uint16_t backlog = 0;
  uint64_t length = 0;   // send length
  uint32_t option = 0;
};

struct NetResponse {
  uint64_t tag = 0;
  uint64_t trace_id = 0;     // echoed from the request by the RPC server
  uint64_t parent_span = 0;
  ErrorCode error = ErrorCode::kOk;
  uint8_t reserved[7] = {};
  int64_t value = 0;  // new socket handle / byte count
};

// Event notification messages (§4.4.2): delivered over the inbound ring.
enum class NetEventKind : uint8_t {
  kAccepted,  // new client connection on a listening socket
  kData,      // new data arrival for recv (payload follows the header)
  kPeerClosed,
  kBatch,     // vectored push: several encoded events ride one ring record
};

struct NetEvent {
  NetEventKind kind = NetEventKind::kData;
  uint8_t reserved[3] = {};
  uint32_t length = 0;   // payload bytes following this header
  int64_t sock = -1;     // destination stub-side socket
  int64_t new_sock = -1; // for kAccepted
  uint32_t peer_addr = 0;
  uint16_t peer_port = 0;
  // For kBatch: the number of sub-records (src/net/net_frame.h). Zero for
  // every other kind.
  uint16_t segments = 0;
  // Causal trace context (see FsRequest): kData events carry the context of
  // the request they belong to, so data-ring queue waits and the stub's
  // dispatch attribute to the right trace. Zero for untraced events and for
  // connection lifecycle events (kAccepted / kPeerClosed).
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

// ---------------------------------------------------------------------------
// POD (de)serialization helpers
// ---------------------------------------------------------------------------

// The bytes of a POD message as a ring record carries them; a record is
// written straight from these (SimRing::Send), never through a staging
// copy.
template <typename T>
std::span<const uint8_t> PodBytes(const T& value) {
  return {reinterpret_cast<const uint8_t*>(&value), sizeof(T)};
}

template <typename T>
T DecodePod(std::span<const uint8_t> bytes) {
  CHECK_GE(bytes.size(), sizeof(T));
  T value;
  std::memcpy(&value, bytes.data(), sizeof(T));
  return value;
}

// ---------------------------------------------------------------------------
// Checksummed RPC frames
// ---------------------------------------------------------------------------
//
// When any fault point is armed, fixed-size RPC request/response frames
// carry an 8-byte FNV-1a trailer so injected corruption is detected and the
// frame dropped instead of decoded (the retry layer then recovers via
// timeout). With no faults armed the trailer is omitted entirely, keeping
// frame sizes — and therefore ring copy times and schedules — bit-identical
// to a build without fault support. DecodeFrame distinguishes the two cases
// by frame size, which is unambiguous because these frames are fixed-size
// PODs (payload-carrying net records are not framed this way).

inline uint64_t FrameChecksum(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// A frame's trailer: 8 bytes while any fault point is armed, none
// otherwise. The frame is PodBytes(value) followed by bytes().
struct FrameTrailer {
  uint64_t sum = 0;
  size_t size = 0;
  std::span<const uint8_t> bytes() const {
    return {reinterpret_cast<const uint8_t*>(&sum), size};
  }
};

template <typename T>
FrameTrailer SealFrame(const T& value) {
  FrameTrailer trailer;
  if (Faults().any_armed()) {
    trailer.sum = FrameChecksum(PodBytes(value));
    trailer.size = sizeof(trailer.sum);
  }
  return trailer;
}

// Injected corruption of a sealed frame: flips its middle byte, so the
// receiver's checksum fails. `value` must not be read as a T afterwards.
template <typename T>
void CorruptFrame(T* value) {
  reinterpret_cast<uint8_t*>(value)[sizeof(T) / 2] ^= 0xff;
}

// Returns nullopt for a malformed or checksum-failing frame.
template <typename T>
std::optional<T> DecodeFrame(std::span<const uint8_t> bytes) {
  if (bytes.size() == sizeof(T)) {
    return DecodePod<T>(bytes);
  }
  if (bytes.size() != sizeof(T) + sizeof(uint64_t)) {
    return std::nullopt;
  }
  uint64_t sum = 0;
  std::memcpy(&sum, bytes.data() + sizeof(T), sizeof(sum));
  if (FrameChecksum(bytes.subspan(0, sizeof(T))) != sum) {
    return std::nullopt;
  }
  return DecodePod<T>(bytes.subspan(0, sizeof(T)));
}

}  // namespace solros

#endif  // SOLROS_SRC_RPC_MESSAGES_H_
