// Network-protocol torture matrix: every malformed input — truncated
// frames, bad magic, unsupported version, oversized declared lengths,
// CRC mismatches, slow-loris byte-at-a-time writes, pipelined frames,
// mid-request disconnects, garbage HTTP — must produce a typed error
// frame or a clean close, never a crash, hang, or CHECK-abort. The
// server under test is a real NetServer on a loopback ephemeral port;
// raw sockets forge the hostile byte streams the NetClient cannot.
// Registered as a TSAN/ASAN target in check_sanitizers.sh.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "io/checkpoint.h"
#include "io/serialize.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "nn/gcn.h"
#include "obs/metrics.h"
#include "serve/embedding_server.h"
#include "serve_test_util.h"

namespace e2gcl {
namespace net {
namespace {

Graph ServeGraph(std::uint64_t seed = 7) {
  SbmSpec spec;
  spec.num_nodes = 120;
  spec.num_classes = 3;
  spec.feature_dim = 16;
  spec.avg_degree = 6;
  spec.informative_dims_per_class = 4;
  return GenerateSbm(spec, seed);
}

TrainerCheckpoint MakeCheckpoint(const Graph& g, std::uint64_t seed = 3) {
  GcnConfig cfg;
  cfg.dims = {g.feature_dim(), 12, 8};
  Rng rng(seed);
  GcnEncoder encoder(cfg, rng);
  TrainerCheckpoint ckpt;
  ckpt.epoch = 0;
  ckpt.config_fingerprint = 0xfeedULL;
  ckpt.encoder_params = encoder.params().CloneValues();
  return ckpt;
}

/// One serving stack per fixture: EmbeddingServer + NetServer on an
/// ephemeral loopback port.
class NetProtocolTest : public ::testing::Test {
 protected:
  void StartServer(NetServerOptions net_options = {},
                   const ServeOptions& serve_options = {}) {
    graph_ = std::make_unique<Graph>(ServeGraph());
    std::string error;
    server_ = EmbeddingServer::FromCheckpoint(*graph_, MakeCheckpoint(*graph_),
                                              serve_options, &error);
    ASSERT_NE(server_, nullptr) << error;
    net_ = NetServer::Start(server_.get(), net_options, &error);
    ASSERT_NE(net_, nullptr) << error;
  }

  void TearDown() override {
    net_.reset();
    server_.reset();
  }

  int port() const { return net_->port(); }

  std::unique_ptr<Graph> graph_;
  std::unique_ptr<EmbeddingServer> server_;
  std::unique_ptr<NetServer> net_;
};

/// Raw loopback socket for forging hostile byte streams. 5s receive
/// timeout: a server that stops answering fails the test instead of
/// hanging it.
class RawSock {
 public:
  explicit RawSock(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    struct timeval tv;
    tv.tv_sec = 5;
    tv.tv_usec = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~RawSock() { Close(); }

  bool connected() const { return connected_; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool SendAll(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  bool RecvExact(std::size_t n, std::string* out) {
    char buf[4096];
    while (n > 0) {
      const ssize_t r = ::recv(fd_, buf, std::min(n, sizeof(buf)), 0);
      if (r <= 0) return false;
      out->append(buf, static_cast<std::size_t>(r));
      n -= static_cast<std::size_t>(r);
    }
    return true;
  }

  /// Reads one whole frame; EXPECTs valid framing on the way.
  bool RecvFrame(FrameHeader* header, std::string* payload) {
    std::string bytes;
    if (!RecvExact(kFrameHeaderSize, &bytes)) return false;
    WireError error = WireError::kBadRequest;
    if (TryDecodeHeader(bytes, header, &error) != HeaderStatus::kOk) {
      ADD_FAILURE() << "server sent an invalid header: "
                    << WireErrorName(error);
      return false;
    }
    payload->clear();
    if (!RecvExact(header->payload_len, payload)) return false;
    EXPECT_TRUE(VerifyPayload(*header, *payload));
    return true;
  }

  /// Drains until the server closes (HTTP responses end with a close).
  std::string RecvUntilClose() {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r <= 0) break;
      out.append(buf, static_cast<std::size_t>(r));
    }
    return out;
  }

  /// True when the server closed the connection (recv returns 0 before
  /// the receive timeout).
  bool AwaitClose() {
    char buf[256];
    for (;;) {
      const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r == 0) return true;
      if (r < 0) return false;  // timeout or error: not a clean close
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// A frame with full control over every header field.
std::string ForgeFrame(std::uint32_t magic, std::uint8_t version,
                       std::uint8_t type, std::uint16_t flags,
                       std::uint64_t request_id, std::uint32_t declared_len,
                       const std::string& payload, bool good_crc = true) {
  ByteWriter w;
  w.WriteU32(magic);
  w.WriteU32(static_cast<std::uint32_t>(version) |
             (static_cast<std::uint32_t>(type) << 8) |
             (static_cast<std::uint32_t>(flags) << 16));
  w.WriteU64(request_id);
  w.WriteU32(declared_len);
  w.WriteU32(good_crc ? Crc32(payload.data(), payload.size()) : 0xdeadbeef);
  return w.bytes() + payload;
}

std::string GoodEmbedFrame(std::uint64_t request_id, std::int64_t node) {
  GetEmbeddingRequest req;
  req.node = node;
  return EncodeGetEmbedding(request_id, req);
}

/// Asserts the next frame is kError with the given code.
void ExpectErrorFrame(RawSock* sock, WireError want) {
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(sock->RecvFrame(&header, &payload));
  ASSERT_EQ(header.type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(DecodeError(payload, &error));
  EXPECT_EQ(error.code, want) << error.message;
}

/// Asserts the server still answers correctly — the canary after every
/// torture case: whatever the hostile connection did, an honest client
/// must be unaffected.
void ExpectServerHealthy(int port, EmbeddingServer* server) {
  std::string error;
  auto client = NetClient::Connect("127.0.0.1", port, {}, &error);
  ASSERT_NE(client, nullptr) << error;
  const EmbeddingResponse got = client->GetEmbedding(5);
  ASSERT_EQ(got.status, ServeStatus::kOk) << client->last_error();
  const EmbeddingResponse want = server->GetEmbedding(5, {});
  EXPECT_EQ(got.row, want.row);
}

// --- Codec round trips (no sockets). ---------------------------------------

TEST(NetCodec, RequestRoundTrips) {
  GetEmbeddingRequest embed;
  embed.node = 42;
  embed.options.deadline_us = 1500;
  const std::string frame = EncodeGetEmbedding(9, embed);
  FrameHeader header;
  WireError error = WireError::kBadRequest;
  ASSERT_EQ(TryDecodeHeader(frame, &header, &error), HeaderStatus::kOk);
  EXPECT_EQ(header.type, FrameType::kGetEmbedding);
  EXPECT_EQ(header.request_id, 9u);
  const std::string payload = frame.substr(kFrameHeaderSize);
  ASSERT_TRUE(VerifyPayload(header, payload));
  Request decoded;
  ASSERT_TRUE(DecodeRequest(header, payload, &decoded));
  EXPECT_EQ(decoded.embed.node, 42);
  EXPECT_EQ(decoded.embed.options.deadline_us, 1500);
}

TEST(NetCodec, ResponseRoundTrips) {
  TopKResponse topk;
  topk.status = ServeStatus::kOk;
  topk.generation = 3;
  topk.result.nodes = {4, 7, 1};
  topk.result.scores = {0.5f, 0.25f, -1.0f};
  const std::string frame = EncodeTopKResponse(11, topk);
  FrameHeader header;
  WireError error = WireError::kBadRequest;
  ASSERT_EQ(TryDecodeHeader(frame, &header, &error), HeaderStatus::kOk);
  TopKResponse decoded;
  ASSERT_TRUE(DecodeTopKResponse(frame.substr(kFrameHeaderSize), &decoded));
  EXPECT_EQ(decoded.status, ServeStatus::kOk);
  EXPECT_EQ(decoded.generation, 3u);
  EXPECT_EQ(decoded.result.nodes, topk.result.nodes);
  EXPECT_EQ(decoded.result.scores, topk.result.scores);
}

TEST(NetCodec, HeaderNeedsAllTwentyFourBytes) {
  const std::string frame = GoodEmbedFrame(1, 0);
  FrameHeader header;
  WireError error = WireError::kBadRequest;
  for (std::size_t n = 0; n < kFrameHeaderSize; ++n) {
    EXPECT_EQ(TryDecodeHeader(frame.substr(0, n), &header, &error),
              HeaderStatus::kNeedMore)
        << n;
  }
  EXPECT_EQ(TryDecodeHeader(frame, &header, &error), HeaderStatus::kOk);
}

TEST(NetCodec, RejectsUndefinedStatusByte) {
  // A response whose status byte is 250 (or the client-side transport
  // sentinel) must not decode: the wire can only carry real server
  // statuses.
  for (const std::uint32_t bad :
       {static_cast<std::uint32_t>(ServeStatus::kTransportError), 250u}) {
    ByteWriter w;
    w.WriteU32(bad);
    w.WriteU64(1);
    w.WriteF32(0.5f);
    ScoreResponse r;
    EXPECT_FALSE(DecodeScoreResponse(w.bytes(), &r)) << bad;
  }
}

TEST(NetCodec, RejectsTrailingBytes) {
  const std::string frame = GoodEmbedFrame(1, 3);
  FrameHeader header;
  WireError error = WireError::kBadRequest;
  ASSERT_EQ(TryDecodeHeader(frame, &header, &error), HeaderStatus::kOk);
  std::string payload = frame.substr(kFrameHeaderSize);
  payload.push_back('\0');
  header.payload_len += 1;
  Request decoded;
  EXPECT_FALSE(DecodeRequest(header, payload, &decoded));
}

// --- Framing errors: one typed error frame, then close. --------------------

TEST_F(NetProtocolTest, BadMagicGetsTypedErrorThenClose) {
  StartServer();
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  ASSERT_TRUE(sock.SendAll(
      ForgeFrame(0x12345678, kProtocolVersion, 1, 0, 7, 0, "")));
  ExpectErrorFrame(&sock, WireError::kBadMagic);
  EXPECT_TRUE(sock.AwaitClose());
  ExpectServerHealthy(port(), server_.get());
}

TEST_F(NetProtocolTest, UnsupportedVersionGetsTypedErrorThenClose) {
  StartServer();
  // Newer and older versions alike: a reader accepts only its own.
  for (const int version : {kProtocolVersion + 1, kProtocolVersion - 1}) {
    RawSock sock(port());
    ASSERT_TRUE(sock.connected());
    ASSERT_TRUE(sock.SendAll(ForgeFrame(
        kProtocolMagic, static_cast<std::uint8_t>(version), 1, 0, 7, 0, "")))
        << version;
    ExpectErrorFrame(&sock, WireError::kBadVersion);
    EXPECT_TRUE(sock.AwaitClose()) << version;
  }
  ExpectServerHealthy(port(), server_.get());
}

TEST_F(NetProtocolTest, NonzeroFlagsGetTypedErrorThenClose) {
  StartServer();
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  ASSERT_TRUE(sock.SendAll(
      ForgeFrame(kProtocolMagic, kProtocolVersion, 1, 0xBEEF, 7, 0, "")));
  ExpectErrorFrame(&sock, WireError::kBadFlags);
  EXPECT_TRUE(sock.AwaitClose());
  ExpectServerHealthy(port(), server_.get());
}

TEST_F(NetProtocolTest, OversizedDeclaredLengthGetsTypedErrorThenClose) {
  StartServer();
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  // Declares 256 MiB; the server must reject from the header alone,
  // never waiting for (or buffering toward) a payload that large.
  ASSERT_TRUE(sock.SendAll(ForgeFrame(kProtocolMagic, kProtocolVersion, 1, 0,
                                      7, 256u << 20, "")));
  ExpectErrorFrame(&sock, WireError::kFrameTooLarge);
  EXPECT_TRUE(sock.AwaitClose());
  ExpectServerHealthy(port(), server_.get());
}

TEST_F(NetProtocolTest, PoisonedStreamDecodesNoFurtherFrames) {
  FlusherGate gate;
  ServeOptions serve_options;
  serve_options.fault_injector.stall_batch = [&](std::int64_t) {
    gate.Block();
  };
  StartServer({}, serve_options);
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  // Request 1 is wedged mid-batch, so the connection has work in flight
  // and cannot close as soon as the stream is poisoned.
  ASSERT_TRUE(sock.SendAll(GoodEmbedFrame(1, 4)));
  gate.AwaitBlocked();
  ASSERT_TRUE(sock.SendAll(
      ForgeFrame(0x12345678, kProtocolVersion, 1, 0, 2, 0, "")));
  ExpectErrorFrame(&sock, WireError::kBadMagic);
  const auto frames_ok = [] {
    return MetricsRegistry::Get().Snapshot().counter("net.frames.ok");
  };
  const std::uint64_t frames_before = frames_ok();
  ASSERT_TRUE(sock.SendAll(GoodEmbedFrame(3, 5)));
  // A Stats round trip on another connection: the loop answers it only
  // after a poll pass that has already read frame 3.
  std::string error;
  auto canary = NetClient::Connect("127.0.0.1", port(), {}, &error);
  ASSERT_NE(canary, nullptr) << error;
  StatsResponse stats;
  EXPECT_TRUE(canary->Stats(&stats)) << canary->last_error();
  gate.Release();

  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(sock.RecvFrame(&header, &payload));
  EXPECT_EQ(header.type, FrameType::kEmbeddingResponse);
  EXPECT_EQ(header.request_id, 1u);
  EXPECT_EQ(sock.RecvUntilClose(), "");  // no answer to 3 ...
  EXPECT_TRUE(sock.AwaitClose());        // ... and a close, not a timeout
  EXPECT_EQ(frames_ok(), frames_before + 1);  // the canary's Stats only
}

TEST_F(NetProtocolTest, CrcMismatchGetsTypedErrorThenClose) {
  StartServer();
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  ByteWriter payload;
  payload.WriteI64(5);
  payload.WriteI64(0);
  ASSERT_TRUE(sock.SendAll(
      ForgeFrame(kProtocolMagic, kProtocolVersion, 1, 0, 7,
                 static_cast<std::uint32_t>(payload.bytes().size()),
                 payload.bytes(), /*good_crc=*/false)));
  ExpectErrorFrame(&sock, WireError::kBadCrc);
  EXPECT_TRUE(sock.AwaitClose());
  ExpectServerHealthy(port(), server_.get());
}

// --- Payload errors: in-band kBadRequest, connection survives. -------------

TEST_F(NetProtocolTest, UnknownTypeAnsweredInBandAndConnectionSurvives) {
  StartServer();
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  ASSERT_TRUE(sock.SendAll(
      ForgeFrame(kProtocolMagic, kProtocolVersion, 0x55, 0, 7, 0, "")));
  ExpectErrorFrame(&sock, WireError::kBadRequest);
  // The stream is still frame-aligned: a good request on the same
  // connection must be served.
  ASSERT_TRUE(sock.SendAll(GoodEmbedFrame(8, 3)));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(sock.RecvFrame(&header, &payload));
  EXPECT_EQ(header.type, FrameType::kEmbeddingResponse);
  EXPECT_EQ(header.request_id, 8u);
}

TEST_F(NetProtocolTest, TruncatedFieldsAnsweredInBand) {
  StartServer();
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  const std::string short_payload = "abc";
  ASSERT_TRUE(sock.SendAll(
      ForgeFrame(kProtocolMagic, kProtocolVersion, 1, 0, 7,
                 static_cast<std::uint32_t>(short_payload.size()),
                 short_payload)));
  ExpectErrorFrame(&sock, WireError::kBadRequest);
}

TEST_F(NetProtocolTest, InvalidOptionBytesAnsweredInBand) {
  StartServer();
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  ByteWriter payload;  // valid node, negative deadline
  payload.WriteI64(5);
  payload.WriteI64(-1);
  ASSERT_TRUE(sock.SendAll(
      ForgeFrame(kProtocolMagic, kProtocolVersion, 1, 0, 7,
                 static_cast<std::uint32_t>(payload.bytes().size()),
                 payload.bytes())));
  ExpectErrorFrame(&sock, WireError::kBadRequest);
}

// --- Serving-level validation: typed responses, not error frames. ----------

TEST_F(NetProtocolTest, OutOfRangeNodeGetsInvalidArgumentResponse) {
  StartServer();
  std::string error;
  auto client = NetClient::Connect("127.0.0.1", port(), {}, &error);
  ASSERT_NE(client, nullptr) << error;
  // Hostile ids and k get a typed rejection, never a crash.
  EXPECT_EQ(client->GetEmbedding(std::int64_t{1} << 30).status,
            ServeStatus::kInvalidArgument);
  EXPECT_EQ(client->GetEmbedding(-1).status, ServeStatus::kInvalidArgument);
  EXPECT_EQ(client->ScoreLink(0, graph_->num_nodes).status,
            ServeStatus::kInvalidArgument);
  EXPECT_EQ(client->TopKSimilar(0, -1).status, ServeStatus::kInvalidArgument);
  EXPECT_EQ(client->TopKSimilar(0, std::int64_t{1} << 30).status,
            ServeStatus::kInvalidArgument);
  // The connection survived every rejection.
  EXPECT_EQ(client->GetEmbedding(5).status, ServeStatus::kOk);
}

// --- Stream torture. -------------------------------------------------------

TEST_F(NetProtocolTest, MidRequestDisconnectLeavesServerHealthy) {
  StartServer();
  {
    RawSock sock(port());
    ASSERT_TRUE(sock.connected());
    // Header promising payload bytes, a few of them sent, then gone.
    const std::string frame = GoodEmbedFrame(7, 5);
    ASSERT_TRUE(sock.SendAll(frame.substr(0, kFrameHeaderSize + 5)));
    sock.Close();
  }
  {
    RawSock sock(port());  // disconnect with only half a header out
    ASSERT_TRUE(sock.connected());
    ASSERT_TRUE(sock.SendAll(GoodEmbedFrame(7, 5).substr(0, 10)));
    sock.Close();
  }
  ExpectServerHealthy(port(), server_.get());
}

TEST_F(NetProtocolTest, SlowLorisDoesNotBlockFastClients) {
  StartServer();
  RawSock slow(port());
  ASSERT_TRUE(slow.connected());
  const std::string frame = GoodEmbedFrame(3, 9);
  std::size_t sent = 0;
  // Drip half the frame one byte at a time; a fast client must make
  // progress in between (the event loop never blocks on one socket).
  for (; sent < frame.size() / 2; ++sent) {
    ASSERT_TRUE(slow.SendAll(frame.substr(sent, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ExpectServerHealthy(port(), server_.get());
  for (; sent < frame.size(); ++sent) {
    ASSERT_TRUE(slow.SendAll(frame.substr(sent, 1)));
  }
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(slow.RecvFrame(&header, &payload));
  EXPECT_EQ(header.type, FrameType::kEmbeddingResponse);
  EXPECT_EQ(header.request_id, 3u);
}

TEST_F(NetProtocolTest, PipelinedRequestsEachGetTheirAnswer) {
  StartServer();
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  // Two requests in one write. They may be answered in either order;
  // request ids pair answers with questions.
  ASSERT_TRUE(sock.SendAll(GoodEmbedFrame(21, 4) + GoodEmbedFrame(22, 8)));
  bool saw21 = false;
  bool saw22 = false;
  for (int i = 0; i < 2; ++i) {
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(sock.RecvFrame(&header, &payload));
    ASSERT_EQ(header.type, FrameType::kEmbeddingResponse);
    EmbeddingResponse r;
    ASSERT_TRUE(DecodeEmbeddingResponse(payload, &r));
    EXPECT_EQ(r.status, ServeStatus::kOk);
    const std::int64_t node = header.request_id == 21 ? 4 : 8;
    EXPECT_EQ(r.row, server_->GetEmbedding(node, {}).row);
    saw21 |= header.request_id == 21;
    saw22 |= header.request_id == 22;
  }
  EXPECT_TRUE(saw21);
  EXPECT_TRUE(saw22);
}

TEST_F(NetProtocolTest, IdleConnectionIsReaped) {
  NetServerOptions options;
  options.idle_timeout_ms = 50;
  StartServer(options);
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  EXPECT_TRUE(sock.AwaitClose());  // never sent a byte
}

TEST_F(NetProtocolTest, ConnectAndVanishImmediately) {
  StartServer();
  for (int i = 0; i < 8; ++i) {
    RawSock sock(port());
    ASSERT_TRUE(sock.connected());
  }
  ExpectServerHealthy(port(), server_.get());
}

TEST_F(NetProtocolTest, GarbageBytesGetBadMagicThenClose) {
  StartServer();
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  // Not a known HTTP method, not the magic: binary path, bad magic.
  ASSERT_TRUE(sock.SendAll(std::string(64, 'Z')));
  ExpectErrorFrame(&sock, WireError::kBadMagic);
  EXPECT_TRUE(sock.AwaitClose());
  ExpectServerHealthy(port(), server_.get());
}

// --- HTTP sharing the port. ------------------------------------------------

TEST_F(NetProtocolTest, HttpHealthzMetricsAndErrors) {
  StartServer();
  struct Case {
    const char* request;
    const char* want_status;
    const char* want_body_substr;
  };
  const std::vector<Case> cases = {
      {"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", "200 OK", "ok"},
      {"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", "200 OK",
       "\"net.accepted\""},
      {"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", "404 Not Found", "not found"},
      {"POST /healthz HTTP/1.1\r\nHost: x\r\n\r\n", "405 Method Not Allowed",
       "only GET"},
  };
  for (const Case& c : cases) {
    RawSock sock(port());
    ASSERT_TRUE(sock.connected());
    ASSERT_TRUE(sock.SendAll(c.request));
    const std::string response = sock.RecvUntilClose();
    EXPECT_NE(response.find(c.want_status), std::string::npos) << response;
    EXPECT_NE(response.find(c.want_body_substr), std::string::npos)
        << response;
  }
}

TEST_F(NetProtocolTest, HttpMetricsPromFormatRoundTrips) {
  StartServer();
  // JSON view first: net.accepted only grows afterwards, so the prom
  // value read on a later connection must be >= this one.
  std::uint64_t json_accepted = 0;
  {
    RawSock sock(port());
    ASSERT_TRUE(sock.connected());
    ASSERT_TRUE(sock.SendAll("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
    const std::string response = sock.RecvUntilClose();
    const std::string key = "\"net.accepted\":";
    const std::size_t at = response.find(key);
    ASSERT_NE(at, std::string::npos) << response;
    json_accepted =
        std::strtoull(response.c_str() + at + key.size(), nullptr, 10);
    EXPECT_GE(json_accepted, 1u);
  }
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  ASSERT_TRUE(
      sock.SendAll("GET /metrics?format=prom HTTP/1.1\r\nHost: x\r\n\r\n"));
  const std::string response = sock.RecvUntilClose();
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos)
      << response;
  // Exposition-format shape: dotted names become e2gcl_-prefixed
  // underscore names, each with a # TYPE line.
  EXPECT_NE(response.find("# TYPE e2gcl_net_accepted counter"),
            std::string::npos)
      << response;
  EXPECT_EQ(response.find("net.accepted"), std::string::npos) << response;
  const std::string sample = "\ne2gcl_net_accepted ";
  const std::size_t at = response.find(sample);
  ASSERT_NE(at, std::string::npos) << response;
  const std::uint64_t prom_accepted =
      std::strtoull(response.c_str() + at + sample.size(), nullptr, 10);
  EXPECT_GE(prom_accepted, json_accepted) << response;
  // Every sample line in the body parses as `name value`.
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::istringstream body(response.substr(body_at + 4));
  std::string line;
  int samples = 0;
  while (std::getline(body, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("e2gcl_", 0), 0u) << line;
    char* end = nullptr;
    std::strtoull(line.c_str() + space + 1, &end, 10);
    EXPECT_EQ(*end, '\0') << line;
    ++samples;
  }
  EXPECT_GE(samples, 2);
}

TEST_F(NetProtocolTest, HttpMetricsCarryTopKRowsScored) {
  StartServer();
  ASSERT_EQ(server_->TopKSimilar(3, 5, ServeRequestOptions{}).status,
            ServeStatus::kOk);
  RawSock json(port());
  ASSERT_TRUE(json.connected());
  ASSERT_TRUE(json.SendAll("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
  const std::string json_body = json.RecvUntilClose();
  EXPECT_NE(json_body.find("\"serve.topk.rows_scored\":"), std::string::npos)
      << json_body;
  RawSock prom(port());
  ASSERT_TRUE(prom.connected());
  ASSERT_TRUE(
      prom.SendAll("GET /metrics?format=prom HTTP/1.1\r\nHost: x\r\n\r\n"));
  const std::string prom_body = prom.RecvUntilClose();
  EXPECT_NE(prom_body.find("# TYPE e2gcl_serve_topk_rows_scored counter"),
            std::string::npos)
      << prom_body;
}

TEST_F(NetProtocolTest, OversizedHttpHeadersGet400) {
  StartServer();
  RawSock sock(port());
  ASSERT_TRUE(sock.connected());
  // Past the server's fixed 8192-byte header cap.
  std::string request = "GET /healthz HTTP/1.1\r\n";
  request += "X-Filler: " + std::string(9000, 'a') + "\r\n";
  ASSERT_TRUE(sock.SendAll(request));  // never finishes the headers
  const std::string response = sock.RecvUntilClose();
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << response;
}

}  // namespace
}  // namespace net
}  // namespace e2gcl
