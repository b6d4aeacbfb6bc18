#include "net/protocol.h"

#include <cstring>

#include "io/serialize.h"

namespace e2gcl {
namespace net {

namespace {

bool IsRequestType(FrameType t) {
  return t == FrameType::kGetEmbedding || t == FrameType::kScoreLink ||
         t == FrameType::kTopKSimilar || t == FrameType::kStats;
}

bool IsKnownType(FrameType t) {
  return IsRequestType(t) || t == FrameType::kEmbeddingResponse ||
         t == FrameType::kScoreResponse || t == FrameType::kTopKResponse ||
         t == FrameType::kStatsResponse || t == FrameType::kError;
}

/// Reads the per-request options trailer {i64 deadline_us}; the
/// deadline must be non-negative so a garbled stream cannot smuggle
/// through as "valid".
bool ReadOptions(ByteReader* r, ServeRequestOptions* options) {
  const std::int64_t deadline_us = r->ReadI64();
  if (!r->ok() || deadline_us < 0) return false;
  options->deadline_us = deadline_us;
  return true;
}

void WriteOptions(ByteWriter* w, const ServeRequestOptions& options) {
  w->WriteI64(options.deadline_us);
}

/// Shared response prefix {u8 status (validated), u64 generation}.
bool ReadStatusPrefix(ByteReader* r, ServeStatus* status,
                      std::uint64_t* generation) {
  const std::uint32_t status_byte = r->ReadU32();
  *generation = r->ReadU64();
  return r->ok() && status_byte <= 0xFF &&
         ServeStatusFromByte(static_cast<std::uint8_t>(status_byte), status);
}

void WriteStatusPrefix(ByteWriter* w, ServeStatus status,
                       std::uint64_t generation) {
  w->WriteU32(static_cast<std::uint32_t>(status));
  w->WriteU64(generation);
}

}  // namespace

const char* WireErrorName(WireError e) {
  switch (e) {
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kFrameTooLarge: return "frame_too_large";
    case WireError::kBadCrc: return "bad_crc";
    case WireError::kBadFlags: return "bad_flags";
    case WireError::kBadRequest: return "bad_request";
    case WireError::kConnectionLimit: return "connection_limit";
    case WireError::kBadHttp: return "bad_http";
  }
  return "unknown";
}

void EncodeFrame(FrameType type, std::uint64_t request_id,
                 const std::string& payload, std::string* out) {
  ByteWriter header;
  header.WriteU32(kProtocolMagic);
  const std::uint32_t version_type_flags =
      static_cast<std::uint32_t>(kProtocolVersion) |
      (static_cast<std::uint32_t>(type) << 8) |
      (std::uint32_t{0} << 16);  // flags, reserved
  header.WriteU32(version_type_flags);
  header.WriteU64(request_id);
  header.WriteU32(static_cast<std::uint32_t>(payload.size()));
  header.WriteU32(Crc32(payload.data(), payload.size()));
  out->append(header.bytes());
  out->append(payload);
}

std::string EncodeGetEmbedding(std::uint64_t request_id,
                               const GetEmbeddingRequest& req) {
  ByteWriter w;
  w.WriteI64(req.node);
  WriteOptions(&w, req.options);
  std::string out;
  EncodeFrame(FrameType::kGetEmbedding, request_id, w.bytes(), &out);
  return out;
}

std::string EncodeScoreLink(std::uint64_t request_id,
                            const ScoreLinkRequest& req) {
  ByteWriter w;
  w.WriteI64(req.u);
  w.WriteI64(req.v);
  WriteOptions(&w, req.options);
  std::string out;
  EncodeFrame(FrameType::kScoreLink, request_id, w.bytes(), &out);
  return out;
}

std::string EncodeTopKSimilar(std::uint64_t request_id,
                              const TopKSimilarRequest& req) {
  ByteWriter w;
  w.WriteI64(req.node);
  w.WriteI64(req.k);
  WriteOptions(&w, req.options);
  std::string out;
  EncodeFrame(FrameType::kTopKSimilar, request_id, w.bytes(), &out);
  return out;
}

std::string EncodeStatsRequest(std::uint64_t request_id) {
  std::string out;
  EncodeFrame(FrameType::kStats, request_id, std::string(), &out);
  return out;
}

std::string EncodeEmbeddingResponse(std::uint64_t request_id,
                                    const EmbeddingResponse& r) {
  ByteWriter w;
  WriteStatusPrefix(&w, r.status, r.generation);
  w.WriteU64(r.row.size());
  for (float x : r.row) w.WriteF32(x);
  std::string out;
  EncodeFrame(FrameType::kEmbeddingResponse, request_id, w.bytes(), &out);
  return out;
}

std::string EncodeScoreResponse(std::uint64_t request_id,
                                const ScoreResponse& r) {
  ByteWriter w;
  WriteStatusPrefix(&w, r.status, r.generation);
  w.WriteF32(r.score);
  std::string out;
  EncodeFrame(FrameType::kScoreResponse, request_id, w.bytes(), &out);
  return out;
}

std::string EncodeTopKResponse(std::uint64_t request_id,
                               const TopKResponse& r) {
  ByteWriter w;
  WriteStatusPrefix(&w, r.status, r.generation);
  w.WriteU64(r.result.nodes.size());
  for (std::size_t i = 0; i < r.result.nodes.size(); ++i) {
    w.WriteI64(r.result.nodes[i]);
    w.WriteF32(r.result.scores[i]);
  }
  std::string out;
  EncodeFrame(FrameType::kTopKResponse, request_id, w.bytes(), &out);
  return out;
}

std::string EncodeStatsResponse(std::uint64_t request_id,
                                const StatsResponse& r) {
  ByteWriter w;
  WriteStatusPrefix(&w, r.status, 0);
  w.WriteString(r.json);
  std::string out;
  EncodeFrame(FrameType::kStatsResponse, request_id, w.bytes(), &out);
  return out;
}

std::string EncodeError(std::uint64_t request_id, WireError code,
                        const std::string& message) {
  ByteWriter w;
  w.WriteU32(static_cast<std::uint32_t>(code));
  w.WriteString(message);
  std::string out;
  EncodeFrame(FrameType::kError, request_id, w.bytes(), &out);
  return out;
}

HeaderStatus TryDecodeHeader(const std::string& buf, FrameHeader* header,
                             WireError* error) {
  if (buf.size() < kFrameHeaderSize) return HeaderStatus::kNeedMore;
  ByteReader r(buf.data(), kFrameHeaderSize);
  const std::uint32_t magic = r.ReadU32();
  const std::uint32_t version_type_flags = r.ReadU32();
  header->request_id = r.ReadU64();
  header->payload_len = r.ReadU32();
  header->payload_crc = r.ReadU32();
  header->version = static_cast<std::uint8_t>(version_type_flags & 0xFF);
  const std::uint8_t type_byte =
      static_cast<std::uint8_t>((version_type_flags >> 8) & 0xFF);
  header->flags = static_cast<std::uint16_t>(version_type_flags >> 16);
  header->type = static_cast<FrameType>(type_byte);
  if (magic != kProtocolMagic) {
    *error = WireError::kBadMagic;
    return HeaderStatus::kError;
  }
  if (header->version != kProtocolVersion) {
    *error = WireError::kBadVersion;
    return HeaderStatus::kError;
  }
  if (header->flags != 0) {
    *error = WireError::kBadFlags;
    return HeaderStatus::kError;
  }
  if (header->payload_len > kMaxPayload) {
    *error = WireError::kFrameTooLarge;
    return HeaderStatus::kError;
  }
  return HeaderStatus::kOk;
}

bool VerifyPayload(const FrameHeader& header, const std::string& payload) {
  return payload.size() == header.payload_len &&
         Crc32(payload.data(), payload.size()) == header.payload_crc;
}

bool DecodeRequest(const FrameHeader& header, const std::string& payload,
                   Request* out) {
  if (!IsKnownType(header.type) || !IsRequestType(header.type)) return false;
  out->type = header.type;
  out->request_id = header.request_id;
  ByteReader r(payload);
  switch (header.type) {
    case FrameType::kGetEmbedding:
      out->embed.node = r.ReadI64();
      if (!ReadOptions(&r, &out->embed.options)) return false;
      break;
    case FrameType::kScoreLink:
      out->score.u = r.ReadI64();
      out->score.v = r.ReadI64();
      if (!ReadOptions(&r, &out->score.options)) return false;
      break;
    case FrameType::kTopKSimilar:
      out->topk.node = r.ReadI64();
      out->topk.k = r.ReadI64();
      if (!ReadOptions(&r, &out->topk.options)) return false;
      break;
    case FrameType::kStats:
      break;
    default:
      return false;
  }
  return r.AtEnd();
}

bool DecodeEmbeddingResponse(const std::string& payload,
                             EmbeddingResponse* r) {
  ByteReader reader(payload);
  if (!ReadStatusPrefix(&reader, &r->status, &r->generation)) return false;
  const std::uint64_t n = reader.ReadU64();
  if (!reader.ok() || n > kMaxPayload / sizeof(float)) return false;
  r->row.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) r->row[i] = reader.ReadF32();
  return reader.AtEnd();
}

bool DecodeScoreResponse(const std::string& payload, ScoreResponse* r) {
  ByteReader reader(payload);
  if (!ReadStatusPrefix(&reader, &r->status, &r->generation)) return false;
  r->score = reader.ReadF32();
  return reader.AtEnd();
}

bool DecodeTopKResponse(const std::string& payload, TopKResponse* r) {
  ByteReader reader(payload);
  if (!ReadStatusPrefix(&reader, &r->status, &r->generation)) return false;
  const std::uint64_t n = reader.ReadU64();
  if (!reader.ok() || n > kMaxPayload / 12) return false;
  r->result.nodes.resize(n);
  r->result.scores.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    r->result.nodes[i] = reader.ReadI64();
    r->result.scores[i] = reader.ReadF32();
  }
  return reader.AtEnd();
}

bool DecodeStatsResponse(const std::string& payload, StatsResponse* r) {
  ByteReader reader(payload);
  std::uint64_t generation = 0;
  if (!ReadStatusPrefix(&reader, &r->status, &generation)) return false;
  r->json = reader.ReadString();
  return reader.AtEnd();
}

bool DecodeError(const std::string& payload, ErrorFrame* out) {
  ByteReader reader(payload);
  const std::uint32_t code = reader.ReadU32();
  out->message = reader.ReadString();
  if (!reader.AtEnd() || code == 0 ||
      code > static_cast<std::uint32_t>(WireError::kBadHttp)) {
    return false;
  }
  out->code = static_cast<WireError>(code);
  return true;
}

}  // namespace net
}  // namespace e2gcl
