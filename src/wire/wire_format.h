#ifndef DANGORON_WIRE_WIRE_FORMAT_H_
#define DANGORON_WIRE_WIRE_FORMAT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/query.h"
#include "serve/query_request.h"
#include "serve/window_stream.h"

/// The Dangoron wire protocol: a compact framed binary encoding of the
/// QueryRequest serving surface, so a query can be submitted over a socket
/// and answered as a stream of per-window result frames — the network face
/// of `DangoronServer::SubmitStreaming`.
///
/// docs/WIRE_PROTOCOL.md is the normative specification of everything this
/// header implements (frame grammar, varint edge packing, error and cancel
/// semantics); tests/wire_test.cc pins golden byte fixtures against it.
/// Change the bytes only with a version bump and a spec update.

namespace dangoron {

// ------------------------------------------------------------- constants --

/// Connection preamble, client -> server, once per connection: the 4 magic
/// bytes "DGRN" followed by the 1-byte protocol version.
inline constexpr uint8_t kWireMagic[4] = {'D', 'G', 'R', 'N'};
inline constexpr uint8_t kWireVersion = 1;
inline constexpr int64_t kWirePreambleBytes = 5;

/// Frame types. Every frame is a 5-byte header (u8 type + u32 little-endian
/// payload length) followed by the payload.
enum class FrameType : uint8_t {
  kRequest = 1,  ///< client -> server: one serialized QueryRequest
  kWindow = 2,   ///< server -> client: one window's thresholded edge set
  kStatus = 3,   ///< server -> client: terminal status + accounting
  kCancel = 4,   ///< client -> server: cancel the in-flight request (empty)
};

inline constexpr int64_t kFrameHeaderBytes = 5;

/// Upper bound on a frame payload; a header announcing more is a protocol
/// error, not an allocation — a corrupt or hostile length field must not
/// take the process down. 64 MiB holds a full ~3000-series clique in one
/// window frame; a denser window cannot be framed, and the server reports
/// it as ResourceExhausted instead of emitting a frame the peer would
/// reject (see docs/WIRE_PROTOCOL.md).
inline constexpr uint64_t kMaxFramePayload = uint64_t{1} << 26;

// --------------------------------------------------------------- varints --

/// Appends `value` as a base-128 LEB128 varint (1-10 bytes).
void PutVarint(uint64_t value, std::string* out);

/// Decodes a varint from `data` starting at `*pos`, advancing `*pos`.
/// Returns false on truncation or a varint longer than 10 bytes.
bool GetVarint(std::span<const uint8_t> data, size_t* pos, uint64_t* value);

/// Appends a raw little-endian 64-bit value (doubles travel as their exact
/// bit pattern — results must be byte-identical to in-process evaluation).
void PutFixed64(uint64_t value, std::string* out);
bool GetFixed64(std::span<const uint8_t> data, size_t* pos, uint64_t* value);

// ---------------------------------------------------------------- frames --

/// Appends the 5-byte connection preamble (magic + version).
void AppendPreamble(std::string* out);

/// Validates a received preamble (exactly kWirePreambleBytes bytes).
Status CheckPreamble(std::span<const uint8_t> data);

/// Appends a frame header announcing `payload_len` bytes of `type`.
void AppendFrameHeader(FrameType type, uint64_t payload_len, std::string* out);

/// The request frame's payload: the dataset (by registration name, plus an
/// optional expected content fingerprint the server verifies — 0 means
/// unchecked), the SlidingQuery, and the ServeOptions. This is the unit a
/// sharding router serializes per shard.
struct WireRequest {
  std::string dataset;
  /// Expected TimeSeriesMatrix::ContentFingerprint of the dataset; the
  /// server rejects a mismatch with FailedPrecondition so a router never
  /// silently queries a shard whose data drifted. 0 = unchecked.
  uint64_t expected_fingerprint = 0;
  SlidingQuery query;
  ServeOptions options;
};

/// Appends one complete request frame (header + payload).
void EncodeRequestFrame(const WireRequest& request, std::string* out);

/// Decodes a request frame payload (the bytes after the header).
Status DecodeRequestPayload(std::span<const uint8_t> payload,
                            WireRequest* out);

/// Appends one complete window frame: the window index plus its edge set,
/// varint-delta packed (see docs/WIRE_PROTOCOL.md). `edges` must be sorted
/// by (i, j) ascending — the engines' canonical EdgeOrder.
void EncodeWindowFrame(int64_t window_index, std::span<const Edge> edges,
                       std::string* out);

/// Decodes a window frame payload into `window_index` and `edges`
/// (bit-exact values, (i, j)-sorted). Rejects non-canonical orderings.
Status DecodeWindowPayload(std::span<const uint8_t> payload,
                           int64_t* window_index, std::vector<Edge>* edges);

/// Terminal accounting of one wire request — StreamingSummary plus the
/// delivered-window count, so a client can verify it saw every frame the
/// server sent. A finished WindowStream's terminal Status frame carries
/// `WireSummary{stream.summary(), frames_sent}`.
struct WireSummary : StreamingSummary {
  int64_t windows_delivered = 0;
};

/// Appends one complete status frame (always the last frame of a request).
void EncodeStatusFrame(const Status& status, const WireSummary& summary,
                       std::string* out);

/// Decodes a status frame payload.
Status DecodeStatusPayload(std::span<const uint8_t> payload, Status* status,
                           WireSummary* summary);

/// Appends one complete cancel frame (empty payload).
void EncodeCancelFrame(std::string* out);

// ---------------------------------------------------------- frame reader --

/// One decoded frame view into the reader's buffer; valid until the next
/// Feed/Next call.
struct Frame {
  FrameType type = FrameType::kRequest;
  std::span<const uint8_t> payload;
};

/// Incremental frame decoder for a non-blocking byte stream: feed arbitrary
/// chunks, pop complete frames. Detects oversized and unknown-type frames
/// as terminal protocol errors. Used by both the epoll server (per
/// connection) and the blocking client.
class FrameReader {
 public:
  /// When true (the server side), the stream must begin with the
  /// 5-byte preamble before any frame.
  explicit FrameReader(bool expect_preamble)
      : need_preamble_(expect_preamble) {}

  /// Appends received bytes to the internal buffer.
  void Feed(const uint8_t* data, size_t size);

  /// Pops the next complete frame into `*frame`. Returns:
  /// - Ok with `*have = true`: one frame decoded (view into the buffer).
  /// - Ok with `*have = false`: need more bytes.
  /// - error: the stream violated the protocol (bad preamble, unknown
  ///   frame type, oversized payload) — terminal, close the connection.
  Status Next(Frame* frame, bool* have);

  /// Bytes currently buffered (test/introspection).
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  bool need_preamble_;
};

}  // namespace dangoron

#endif  // DANGORON_WIRE_WIRE_FORMAT_H_
