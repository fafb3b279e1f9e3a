#include "wire/wire_format.h"

#include <bit>
#include <cstring>

namespace dangoron {

namespace {

/// ZigZag mapping for signed fields: small magnitudes of either sign stay
/// short on the wire. (Indices and counts that are non-negative by
/// construction travel as plain varints instead — see the spec.)
uint64_t ZigZag(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t UnZigZag(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

void PutZigZag(int64_t value, std::string* out) {
  PutVarint(ZigZag(value), out);
}

bool GetZigZag(std::span<const uint8_t> data, size_t* pos, int64_t* value) {
  uint64_t raw = 0;
  if (!GetVarint(data, pos, &raw)) {
    return false;
  }
  *value = UnZigZag(raw);
  return true;
}

Status Truncated(const char* what) {
  return Status::DataLoss("wire: truncated ", what, " payload");
}

// ServeOptions presence bitmap (request frame). kHasPairRange gates the
// query's pair-id restriction (two zigzag varints) — emitted only when
// restricted, so unrestricted requests are byte-identical to protocol
// version 1 clients and servers.
constexpr uint8_t kHasTier = 1u << 0;
constexpr uint8_t kHasDeadline = 1u << 1;
constexpr uint8_t kHasAdmission = 1u << 2;
constexpr uint8_t kHasDegrade = 1u << 3;
constexpr uint8_t kHasPairRange = 1u << 4;

// WireSummary flag bits (status frame).
constexpr uint8_t kSummaryPreparedFromCache = 1u << 0;
constexpr uint8_t kSummaryDegraded = 1u << 1;

}  // namespace

// --------------------------------------------------------------- varints --

void PutVarint(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint(std::span<const uint8_t> data, size_t* pos, uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= data.size()) {
      return false;
    }
    const uint8_t byte = data[(*pos)++];
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte may only contribute the top bit of a 64-bit value.
      if (shift == 63 && (byte & 0x7e) != 0) {
        return false;
      }
      *value = result;
      return true;
    }
  }
  return false;  // > 10 continuation bytes: malformed
}

void PutFixed64(uint64_t value, std::string* out) {
  char bytes[8];
  for (int b = 0; b < 8; ++b) {
    bytes[b] = static_cast<char>((value >> (8 * b)) & 0xff);
  }
  out->append(bytes, 8);
}

bool GetFixed64(std::span<const uint8_t> data, size_t* pos, uint64_t* value) {
  // Overflow-safe for any caller-supplied *pos (the additive form would
  // wrap for *pos within 8 of SIZE_MAX).
  if (data.size() < 8 || *pos > data.size() - 8) {
    return false;
  }
  uint64_t result = 0;
  for (int b = 0; b < 8; ++b) {
    result |= static_cast<uint64_t>(data[*pos + static_cast<size_t>(b)])
              << (8 * b);
  }
  *pos += 8;
  *value = result;
  return true;
}

// ---------------------------------------------------------------- frames --

void AppendPreamble(std::string* out) {
  out->append(reinterpret_cast<const char*>(kWireMagic), 4);
  out->push_back(static_cast<char>(kWireVersion));
}

Status CheckPreamble(std::span<const uint8_t> data) {
  if (data.size() != static_cast<size_t>(kWirePreambleBytes)) {
    return Status::InvalidArgument("wire: preamble must be ",
                                   kWirePreambleBytes, " bytes, got ",
                                   data.size());
  }
  if (std::memcmp(data.data(), kWireMagic, 4) != 0) {
    return Status::InvalidArgument(
        "wire: bad magic (not a Dangoron wire connection)");
  }
  if (data[4] != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported protocol version ",
                                   static_cast<int>(data[4]), " (expected ",
                                   static_cast<int>(kWireVersion), ")");
  }
  return Status::Ok();
}

void AppendFrameHeader(FrameType type, uint64_t payload_len,
                       std::string* out) {
  out->push_back(static_cast<char>(type));
  for (int b = 0; b < 4; ++b) {
    out->push_back(static_cast<char>((payload_len >> (8 * b)) & 0xff));
  }
}

namespace {

/// Encodes a payload produced by `body` into `out` behind its header —
/// payload first into a scratch tail, then the header patched in, so the
/// length field is exact without a second serialization pass.
template <typename Body>
void EncodeFrame(FrameType type, std::string* out, const Body& body) {
  const size_t header_at = out->size();
  AppendFrameHeader(type, 0, out);
  const size_t payload_at = out->size();
  body(out);
  const uint64_t payload_len = out->size() - payload_at;
  for (int b = 0; b < 4; ++b) {
    (*out)[header_at + 1 + static_cast<size_t>(b)] =
        static_cast<char>((payload_len >> (8 * b)) & 0xff);
  }
}

}  // namespace

void EncodeRequestFrame(const WireRequest& request, std::string* out) {
  EncodeFrame(FrameType::kRequest, out, [&](std::string* payload) {
    PutVarint(request.dataset.size(), payload);
    payload->append(request.dataset);
    PutVarint(request.expected_fingerprint, payload);
    PutZigZag(request.query.start, payload);
    PutZigZag(request.query.end, payload);
    PutZigZag(request.query.window, payload);
    PutZigZag(request.query.step, payload);
    PutFixed64(std::bit_cast<uint64_t>(request.query.threshold), payload);
    payload->push_back(request.query.absolute ? 1 : 0);

    const ServeOptions& options = request.options;
    uint8_t present = 0;
    if (options.tier.has_value()) present |= kHasTier;
    if (options.deadline_ms.has_value()) present |= kHasDeadline;
    if (options.admission.has_value()) present |= kHasAdmission;
    if (options.degrade.has_value()) present |= kHasDegrade;
    if (request.query.HasPairRestriction()) present |= kHasPairRange;
    payload->push_back(static_cast<char>(present));
    if (options.tier.has_value()) {
      payload->push_back(static_cast<char>(*options.tier));
    }
    if (options.deadline_ms.has_value()) {
      PutZigZag(*options.deadline_ms, payload);
    }
    if (options.admission.has_value()) {
      payload->push_back(static_cast<char>(*options.admission));
    }
    if (options.degrade.has_value()) {
      payload->push_back(static_cast<char>(*options.degrade));
    }
    if (request.query.HasPairRestriction()) {
      PutZigZag(request.query.pair_begin, payload);
      PutZigZag(request.query.pair_end, payload);
    }
    PutZigZag(options.queue_capacity, payload);
    PutZigZag(options.max_batch_windows, payload);
  });
}

Status DecodeRequestPayload(std::span<const uint8_t> payload,
                            WireRequest* out) {
  *out = WireRequest{};
  size_t pos = 0;
  uint64_t name_len = 0;
  // Subtract rather than add: `pos + name_len` wraps for a hostile varint
  // near 2^64 and would pass the check (pos <= payload.size() always holds
  // after a successful GetVarint, so the subtraction cannot underflow).
  if (!GetVarint(payload, &pos, &name_len) ||
      name_len > payload.size() - pos) {
    return Truncated("request dataset");
  }
  out->dataset.assign(reinterpret_cast<const char*>(payload.data() + pos),
                      name_len);
  pos += name_len;
  if (!GetVarint(payload, &pos, &out->expected_fingerprint)) {
    return Truncated("request fingerprint");
  }
  uint64_t threshold_bits = 0;
  if (!GetZigZag(payload, &pos, &out->query.start) ||
      !GetZigZag(payload, &pos, &out->query.end) ||
      !GetZigZag(payload, &pos, &out->query.window) ||
      !GetZigZag(payload, &pos, &out->query.step) ||
      !GetFixed64(payload, &pos, &threshold_bits) ||
      pos >= payload.size()) {
    return Truncated("request query");
  }
  out->query.threshold = std::bit_cast<double>(threshold_bits);
  const uint8_t absolute = payload[pos++];
  if (absolute > 1) {
    return Status::DataLoss("wire: request absolute flag must be 0/1, got ",
                            static_cast<int>(absolute));
  }
  out->query.absolute = absolute == 1;

  if (pos >= payload.size()) {
    return Truncated("request options");
  }
  const uint8_t present = payload[pos++];
  if ((present & ~(kHasTier | kHasDeadline | kHasAdmission | kHasDegrade |
                   kHasPairRange)) != 0) {
    return Status::DataLoss("wire: unknown option presence bits ",
                            static_cast<int>(present));
  }
  if (present & kHasTier) {
    if (pos >= payload.size()) return Truncated("request tier");
    const uint8_t tier = payload[pos++];
    if (tier > static_cast<uint8_t>(ServeTier::kAuto)) {
      return Status::DataLoss("wire: unknown tier ", static_cast<int>(tier));
    }
    out->options.tier = static_cast<ServeTier>(tier);
  }
  if (present & kHasDeadline) {
    int64_t deadline_ms = 0;
    if (!GetZigZag(payload, &pos, &deadline_ms)) {
      return Truncated("request deadline");
    }
    out->options.deadline_ms = deadline_ms;
  }
  if (present & kHasAdmission) {
    if (pos >= payload.size()) return Truncated("request admission");
    const uint8_t admission = payload[pos++];
    if (admission > static_cast<uint8_t>(AdmissionPolicy::kQueue)) {
      return Status::DataLoss("wire: unknown admission policy ",
                              static_cast<int>(admission));
    }
    out->options.admission = static_cast<AdmissionPolicy>(admission);
  }
  if (present & kHasDegrade) {
    if (pos >= payload.size()) return Truncated("request degrade");
    const uint8_t degrade = payload[pos++];
    if (degrade > static_cast<uint8_t>(DegradePolicy::kAuto)) {
      return Status::DataLoss("wire: unknown degrade policy ",
                              static_cast<int>(degrade));
    }
    out->options.degrade = static_cast<DegradePolicy>(degrade);
  }
  if (present & kHasPairRange) {
    if (!GetZigZag(payload, &pos, &out->query.pair_begin) ||
        !GetZigZag(payload, &pos, &out->query.pair_end)) {
      return Truncated("request pair range");
    }
    if (out->query.pair_begin < 0 || out->query.pair_end < 0 ||
        !out->query.HasPairRestriction()) {
      return Status::DataLoss("wire: degenerate pair range [",
                              out->query.pair_begin, ", ",
                              out->query.pair_end, ")");
    }
  }
  if (!GetZigZag(payload, &pos, &out->options.queue_capacity) ||
      !GetZigZag(payload, &pos, &out->options.max_batch_windows)) {
    return Truncated("request stream knobs");
  }
  if (pos != payload.size()) {
    return Status::DataLoss("wire: ", payload.size() - pos,
                            " trailing bytes after request payload");
  }
  return Status::Ok();
}

void EncodeWindowFrame(int64_t window_index, std::span<const Edge> edges,
                       std::string* out) {
  EncodeFrame(FrameType::kWindow, out, [&](std::string* payload) {
    PutVarint(static_cast<uint64_t>(window_index), payload);
    PutVarint(edges.size(), payload);
    // Delta packing over the canonical (i, j) sort: row deltas are usually
    // 0 (runs of edges on one row) and column deltas small, so both fit a
    // single varint byte on realistic correlation networks; values travel
    // as their exact 8-byte bit pattern (bit-identical to in-process
    // results, NaN payloads included).
    int32_t prev_i = 0;
    int32_t prev_j = -1;
    for (const Edge& edge : edges) {
      const uint32_t di = static_cast<uint32_t>(edge.i - prev_i);
      PutVarint(di, payload);
      if (di > 0) {
        PutVarint(static_cast<uint64_t>(edge.j), payload);
      } else {
        PutVarint(static_cast<uint64_t>(edge.j - prev_j), payload);
      }
      PutFixed64(std::bit_cast<uint64_t>(edge.value), payload);
      prev_i = edge.i;
      prev_j = edge.j;
    }
  });
}

Status DecodeWindowPayload(std::span<const uint8_t> payload,
                           int64_t* window_index, std::vector<Edge>* edges) {
  edges->clear();
  size_t pos = 0;
  uint64_t index = 0;
  uint64_t num_edges = 0;
  if (!GetVarint(payload, &pos, &index) ||
      !GetVarint(payload, &pos, &num_edges)) {
    return Truncated("window header");
  }
  *window_index = static_cast<int64_t>(index);
  // Every edge costs >= 10 payload bytes (two varints of at least one byte
  // each plus the fixed64 value); a count announcing more edges than the
  // payload could hold is corruption, caught before reserving memory.
  if (num_edges > payload.size() / 10 + 1) {
    return Status::DataLoss("wire: window edge count ", num_edges,
                            " impossible for a ", payload.size(),
                            "-byte payload");
  }
  edges->reserve(num_edges);
  int32_t prev_i = 0;
  int32_t prev_j = -1;
  for (uint64_t e = 0; e < num_edges; ++e) {
    uint64_t di = 0;
    uint64_t second = 0;
    uint64_t value_bits = 0;
    if (!GetVarint(payload, &pos, &di) ||
        !GetVarint(payload, &pos, &second) ||
        !GetFixed64(payload, &pos, &value_bits)) {
      return Truncated("window edge");
    }
    if (di > INT32_MAX || second > INT32_MAX) {
      return Status::DataLoss("wire: window edge ", e,
                              " delta out of the int32 index range");
    }
    Edge edge;
    const int64_t i = prev_i + static_cast<int64_t>(di);
    const int64_t j = di > 0 ? static_cast<int64_t>(second)
                             : prev_j + static_cast<int64_t>(second);
    // The canonical ordering invariants double as corruption checks: i and
    // j fit int32, i < j, and (i, j) strictly ascends (dj >= 1 within a
    // row is implied by second >= 1 when di == 0).
    if (i > INT32_MAX || j > INT32_MAX || j <= i ||
        (di == 0 && second == 0)) {
      return Status::DataLoss("wire: window edge ", e,
                              " violates the canonical (i, j) ordering");
    }
    edge.i = static_cast<int32_t>(i);
    edge.j = static_cast<int32_t>(j);
    edge.value = std::bit_cast<double>(value_bits);
    edges->push_back(edge);
    prev_i = edge.i;
    prev_j = edge.j;
  }
  if (pos != payload.size()) {
    return Status::DataLoss("wire: ", payload.size() - pos,
                            " trailing bytes after window payload");
  }
  return Status::Ok();
}

void EncodeStatusFrame(const Status& status, const WireSummary& summary,
                       std::string* out) {
  EncodeFrame(FrameType::kStatus, out, [&](std::string* payload) {
    PutVarint(static_cast<uint64_t>(status.code()), payload);
    PutVarint(status.message().size(), payload);
    payload->append(status.message());
    payload->push_back(static_cast<char>(summary.tier_used));
    uint8_t flags = 0;
    if (summary.prepared_from_cache) flags |= kSummaryPreparedFromCache;
    if (summary.degraded) flags |= kSummaryDegraded;
    payload->push_back(static_cast<char>(flags));
    PutZigZag(summary.windows_delivered, payload);
    PutZigZag(summary.windows_from_cache, payload);
    PutZigZag(summary.windows_computed, payload);
    PutZigZag(summary.windows_joined, payload);
    PutZigZag(summary.cells_jumped, payload);
    PutZigZag(summary.jumps, payload);
  });
}

Status DecodeStatusPayload(std::span<const uint8_t> payload, Status* status,
                           WireSummary* summary) {
  *summary = WireSummary{};
  size_t pos = 0;
  uint64_t code = 0;
  uint64_t message_len = 0;
  // `message_len > size - pos`, never `pos + message_len > size`: the
  // addition wraps for a hostile varint near 2^64 and the std::string
  // construction below would throw length_error out of the decoder.
  if (!GetVarint(payload, &pos, &code) ||
      !GetVarint(payload, &pos, &message_len) ||
      message_len > payload.size() - pos) {
    return Truncated("status header");
  }
  if (code > static_cast<uint64_t>(StatusCode::kUnavailable)) {
    return Status::DataLoss("wire: unknown status code ", code);
  }
  std::string message(reinterpret_cast<const char*>(payload.data() + pos),
                      message_len);
  pos += message_len;
  *status = Status(static_cast<StatusCode>(code), std::move(message));
  if (pos + 2 > payload.size()) {
    return Truncated("status summary");
  }
  const uint8_t tier = payload[pos++];
  // kAuto resolves before evaluation; a terminal status never reports it.
  if (tier > static_cast<uint8_t>(ServeTier::kApprox)) {
    return Status::DataLoss("wire: terminal tier must be exact/approx, got ",
                            static_cast<int>(tier));
  }
  summary->tier_used = static_cast<ServeTier>(tier);
  const uint8_t flags = payload[pos++];
  if ((flags & ~(kSummaryPreparedFromCache | kSummaryDegraded)) != 0) {
    return Status::DataLoss("wire: unknown summary flags ",
                            static_cast<int>(flags));
  }
  summary->prepared_from_cache = (flags & kSummaryPreparedFromCache) != 0;
  summary->degraded = (flags & kSummaryDegraded) != 0;
  if (!GetZigZag(payload, &pos, &summary->windows_delivered) ||
      !GetZigZag(payload, &pos, &summary->windows_from_cache) ||
      !GetZigZag(payload, &pos, &summary->windows_computed) ||
      !GetZigZag(payload, &pos, &summary->windows_joined) ||
      !GetZigZag(payload, &pos, &summary->cells_jumped) ||
      !GetZigZag(payload, &pos, &summary->jumps)) {
    return Truncated("status summary");
  }
  if (pos != payload.size()) {
    return Status::DataLoss("wire: ", payload.size() - pos,
                            " trailing bytes after status payload");
  }
  return Status::Ok();
}

void EncodeCancelFrame(std::string* out) {
  AppendFrameHeader(FrameType::kCancel, 0, out);
}

// ---------------------------------------------------------- frame reader --

void FrameReader::Feed(const uint8_t* data, size_t size) {
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

Status FrameReader::Next(Frame* frame, bool* have) {
  *have = false;
  std::span<const uint8_t> pending(buffer_.data() + consumed_,
                                   buffer_.size() - consumed_);
  if (need_preamble_) {
    if (pending.size() < static_cast<size_t>(kWirePreambleBytes)) {
      return Status::Ok();
    }
    RETURN_IF_ERROR(
        CheckPreamble(pending.subspan(0, kWirePreambleBytes)));
    consumed_ += static_cast<size_t>(kWirePreambleBytes);
    need_preamble_ = false;
    pending = pending.subspan(kWirePreambleBytes);
  }
  if (pending.size() < static_cast<size_t>(kFrameHeaderBytes)) {
    return Status::Ok();
  }
  const uint8_t type = pending[0];
  if (type < static_cast<uint8_t>(FrameType::kRequest) ||
      type > static_cast<uint8_t>(FrameType::kCancel)) {
    return Status::DataLoss("wire: unknown frame type ",
                            static_cast<int>(type));
  }
  uint64_t payload_len = 0;
  for (int b = 0; b < 4; ++b) {
    payload_len |= static_cast<uint64_t>(pending[1 + static_cast<size_t>(b)])
                   << (8 * b);
  }
  if (payload_len > kMaxFramePayload) {
    return Status::DataLoss("wire: frame payload ", payload_len,
                            " exceeds the ", kMaxFramePayload, "-byte cap");
  }
  if (pending.size() <
      static_cast<size_t>(kFrameHeaderBytes) + payload_len) {
    return Status::Ok();
  }
  frame->type = static_cast<FrameType>(type);
  frame->payload = pending.subspan(kFrameHeaderBytes, payload_len);
  consumed_ += static_cast<size_t>(kFrameHeaderBytes) + payload_len;
  *have = true;
  return Status::Ok();
}

}  // namespace dangoron
