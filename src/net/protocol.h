#ifndef E2GCL_NET_PROTOCOL_H_
#define E2GCL_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve_status.h"

namespace e2gcl {
namespace net {

/// Length-prefixed binary framing for the serving protocol.
///
/// Every message — request or response — is one frame:
///
///   u32 magic   0x4532474E ("E2GN")
///   u8  version kProtocolVersion (readers reject every other version)
///   u8  type    FrameType
///   u16 flags   reserved, must be zero
///   u64 request_id  echoed verbatim in the matching response
///   u32 payload_len <= kMaxPayload
///   u32 payload_crc CRC32 (io/serialize.h) of the payload bytes
///   payload_len payload bytes
///
/// All integers are little-endian (same convention as the checkpoint
/// state files). The fixed header is kFrameHeaderSize bytes; a reader
/// can always consume exactly the header, validate it, then consume
/// exactly payload_len more. Framing errors (bad magic, unsupported
/// version, oversized declared length, CRC mismatch) poison the byte
/// stream, so the server answers them with one kError frame and closes
/// the connection; payload-level errors (unknown type, truncated
/// fields, out-of-range node ids) keep the stream intact and are
/// answered in-band without closing. See DESIGN.md "Network protocol".

inline constexpr std::uint32_t kProtocolMagic = 0x4532474E;  // "E2GN"
/// A reader accepts only its own version: the payload layout is tied to
/// it, so a frame of any other version is refused at the header instead
/// of misparsed.
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kFrameHeaderSize = 24;
/// Upper bound on a declared payload. Far above any legitimate message
/// (the largest is a TopK response, 12 bytes per hit) but small enough
/// that a hostile length can never balloon a connection buffer.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;

enum class FrameType : std::uint8_t {
  // Requests.
  kGetEmbedding = 1,
  kScoreLink = 2,
  kTopKSimilar = 3,
  kStats = 4,
  // Responses (request type | 0x80).
  kEmbeddingResponse = 0x81,
  kScoreResponse = 0x82,
  kTopKResponse = 0x83,
  kStatsResponse = 0x84,
  /// Typed protocol-level error (see WireError); the only frame a
  /// server may send for a request it could not decode.
  kError = 0x7F,
};

/// Protocol-level error codes carried by a kError frame. Serving-level
/// rejections (overloaded, deadline, shutdown, invalid node) are NOT
/// errors at this layer — they travel as regular typed responses whose
/// ServeStatus says what happened.
enum class WireError : std::uint8_t {
  kBadMagic = 1,
  kBadVersion = 2,
  kFrameTooLarge = 3,
  kBadCrc = 4,
  kBadFlags = 5,
  /// Valid framing, undecodable payload (unknown type, short fields,
  /// trailing bytes). Recoverable: the connection stays open.
  kBadRequest = 6,
  /// The server refused the connection itself (connection cap).
  kConnectionLimit = 7,
  /// HTTP request was malformed or oversized.
  kBadHttp = 8,
};

const char* WireErrorName(WireError e);

/// One decoded frame header (validated except for the CRC, which needs
/// the payload bytes).
struct FrameHeader {
  std::uint8_t version = 0;
  FrameType type = FrameType::kError;
  std::uint16_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// Decoded request payloads. node/k are validated by the server against
/// the model (the wire cannot know num_nodes).
struct GetEmbeddingRequest {
  std::int64_t node = 0;
  ServeRequestOptions options;
};

struct ScoreLinkRequest {
  std::int64_t u = 0;
  std::int64_t v = 0;
  ServeRequestOptions options;
};

struct TopKSimilarRequest {
  std::int64_t node = 0;
  std::int64_t k = 0;
  ServeRequestOptions options;
};

/// A request in decoded form: exactly one of the bodies is meaningful,
/// selected by `type`.
struct Request {
  FrameType type = FrameType::kGetEmbedding;
  std::uint64_t request_id = 0;
  GetEmbeddingRequest embed;
  ScoreLinkRequest score;
  TopKSimilarRequest topk;
};

/// Stats response payload: a JSON document string (schema documented in
/// DESIGN.md "Network protocol").
struct StatsResponse {
  ServeStatus status = ServeStatus::kOk;
  std::string json;
};

/// Decoded kError payload.
struct ErrorFrame {
  WireError code = WireError::kBadRequest;
  std::string message;
};

// --- Encoding (writer side). -------------------------------------------

/// Appends one whole frame (header + payload) to `out`.
void EncodeFrame(FrameType type, std::uint64_t request_id,
                 const std::string& payload, std::string* out);

std::string EncodeGetEmbedding(std::uint64_t request_id,
                               const GetEmbeddingRequest& req);
std::string EncodeScoreLink(std::uint64_t request_id,
                            const ScoreLinkRequest& req);
std::string EncodeTopKSimilar(std::uint64_t request_id,
                              const TopKSimilarRequest& req);
std::string EncodeStatsRequest(std::uint64_t request_id);

std::string EncodeEmbeddingResponse(std::uint64_t request_id,
                                    const EmbeddingResponse& r);
std::string EncodeScoreResponse(std::uint64_t request_id,
                                const ScoreResponse& r);
std::string EncodeTopKResponse(std::uint64_t request_id,
                               const TopKResponse& r);
std::string EncodeStatsResponse(std::uint64_t request_id,
                                const StatsResponse& r);
std::string EncodeError(std::uint64_t request_id, WireError code,
                        const std::string& message);

// --- Decoding (reader side). -------------------------------------------

/// Outcome of TryDecodeHeader: the stream either needs more bytes, has
/// a valid header, or is poisoned by a framing error.
enum class HeaderStatus : std::uint8_t {
  kNeedMore = 0,
  kOk = 1,
  kError = 2,
};

/// Inspects the first bytes of `buf`. kNeedMore when fewer than
/// kFrameHeaderSize bytes are available; kError (with `*error` set)
/// on bad magic / unsupported version / nonzero flags / oversized
/// declared length; kOk with `*header` filled otherwise. Does not
/// consume bytes.
HeaderStatus TryDecodeHeader(const std::string& buf, FrameHeader* header,
                             WireError* error);

/// CRC-checks `payload` against the header. False = kBadCrc.
bool VerifyPayload(const FrameHeader& header, const std::string& payload);

/// Decodes a request frame's payload (header.type must be a request
/// type). False on unknown type, short payload, trailing bytes, or
/// invalid field values (a negative deadline).
bool DecodeRequest(const FrameHeader& header, const std::string& payload,
                   Request* out);

/// Response decoding (client side). Each returns false on a malformed
/// payload or a status byte that is not a valid ServeStatus.
bool DecodeEmbeddingResponse(const std::string& payload, EmbeddingResponse* r);
bool DecodeScoreResponse(const std::string& payload, ScoreResponse* r);
bool DecodeTopKResponse(const std::string& payload, TopKResponse* r);
bool DecodeStatsResponse(const std::string& payload, StatsResponse* r);
bool DecodeError(const std::string& payload, ErrorFrame* out);

}  // namespace net
}  // namespace e2gcl

#endif  // E2GCL_NET_PROTOCOL_H_
