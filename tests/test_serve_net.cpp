// Tests for the TCP front end (src/serve/net): wire framing as pure
// byte-level round trips, and the socket server end-to-end over loopback.
//
// The load-bearing promises:
//   1. encode/decode round-trips exactly; truncated, trailing-garbage, and
//      bad-magic inputs are rejected rather than misread.
//   2. Responses over the socket are BIT-IDENTICAL to an in-process submit
//      against the same server.
//   3. One misbehaving connection (malformed frame, mid-request disconnect)
//      never takes down the server or its other connections.
//   4. NetServer::shutdown flushes every in-flight response before closing.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "data/video.hpp"
#include "serve/net/client.hpp"
#include "serve/net/http.hpp"
#include "serve/net/server.hpp"
#include "serve/net/wire.hpp"
#include "serve/registry.hpp"
#include "serve/sharded_server.hpp"
#include "tensor/tensor_ops.hpp"

namespace sesr::serve::net {
namespace {

core::SesrConfig small_config() {
  core::SesrConfig config;
  config.f = 8;
  config.m = 2;
  config.scale = 2;
  config.expand = 16;
  return config;
}

core::SesrInference make_inference(std::uint64_t seed) {
  Rng rng(seed);
  core::SesrNetwork network(small_config(), rng);
  return core::SesrInference(network);
}

Tensor make_frame(std::uint64_t seed, std::int64_t h, std::int64_t w) {
  Rng rng(seed);
  Tensor frame(1, h, w, 1);
  frame.fill_uniform(rng, 0.0F, 1.0F);
  return frame;
}

std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame_bytes) {
  return {frame_bytes.begin() + 8, frame_bytes.end()};
}

// ------------------------------------------------------------ wire framing

TEST(Wire, RequestRoundTripsExactly) {
  WireRequest request;
  request.id = 0xDEADBEEFCAFE0001ULL;
  request.deadline_us = 250'000;
  request.route = "m5:2:fp32";
  request.h = 3;
  request.w = 4;
  request.pixels = {0.0F, 0.25F, -1.5F, 3.25F, 1e-7F, 42.0F,
                    7.0F, 8.0F,  9.0F,  10.0F, 11.0F, 12.0F};
  const std::vector<std::uint8_t> bytes = encode_request(request);
  // Prefix: magic then payload length.
  ASSERT_GE(bytes.size(), 8U);
  EXPECT_EQ(bytes[0], 'S');
  EXPECT_EQ(bytes[1], 'E');
  EXPECT_EQ(bytes[2], 'S');
  EXPECT_EQ(bytes[3], 'R');
  const auto decoded = decode_request(payload_of(bytes));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->deadline_us, request.deadline_us);
  EXPECT_EQ(decoded->route, request.route);
  EXPECT_EQ(decoded->h, request.h);
  EXPECT_EQ(decoded->w, request.w);
  EXPECT_EQ(decoded->pixels, request.pixels);  // bit-exact floats
}

TEST(Wire, ResponseRoundTripsOkAndError) {
  WireResponse ok;
  ok.id = 7;
  ok.status = Status::kOk;
  ok.flags = kFlagDegraded | kFlagTwoStage;
  ok.route = "m5:2:fp16";
  ok.h = 2;
  ok.w = 2;
  ok.pixels = {1.0F, 2.0F, 3.0F, 4.0F};
  auto decoded = decode_response(payload_of(encode_response(ok)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 7U);
  EXPECT_EQ(decoded->status, Status::kOk);
  EXPECT_EQ(decoded->flags, ok.flags);
  EXPECT_EQ(decoded->route, ok.route);
  EXPECT_EQ(decoded->pixels, ok.pixels);

  WireResponse error;
  error.id = 8;
  error.status = Status::kOverloaded;
  error.route = "m5:2:fp32";
  error.message = "server: shed (estimated 900us over budget 100us)";
  decoded = decode_response(payload_of(encode_response(error)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, Status::kOverloaded);
  EXPECT_EQ(decoded->h, 0);
  EXPECT_EQ(decoded->w, 0);
  EXPECT_TRUE(decoded->pixels.empty());
  EXPECT_EQ(decoded->message, error.message);
}

// A round trip passes with any byte order the encoder and decoder share, so
// pin the bytes themselves: the pixel block is little-endian IEEE-754, the
// last h*w*4 bytes of a request and of an OK response.
TEST(Wire, PixelBlockIsLittleEndianOnTheWire) {
  const std::vector<float> pixels = {1.0F, -2.5F};
  const std::vector<std::uint8_t> want = {0x00, 0x00, 0x80, 0x3F, 0x00, 0x00, 0x20, 0xC0};
  const auto tail = [](const std::vector<std::uint8_t>& bytes) {
    return std::vector<std::uint8_t>(bytes.end() - 8, bytes.end());
  };
  WireRequest request;
  request.route = "m5:2:fp32";
  request.h = 1;
  request.w = 2;
  request.pixels = pixels;
  EXPECT_EQ(tail(encode_request(request)), want);
  WireResponse response;
  response.status = Status::kOk;
  response.route = "m5:2:fp32";
  response.h = 1;
  response.w = 2;
  response.pixels = pixels;
  EXPECT_EQ(tail(encode_response(response)), want);
  // And the decoder reads those bytes back as the same floats.
  const auto decoded = decode_response(payload_of(encode_response(response)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->pixels, pixels);
}

TEST(Wire, DecodeRejectsTruncatedAndTrailingBytes) {
  WireRequest request;
  request.id = 1;
  request.route = "m5:2:fp32";
  request.h = 2;
  request.w = 2;
  request.pixels = {1.0F, 2.0F, 3.0F, 4.0F};
  const std::vector<std::uint8_t> payload = payload_of(encode_request(request));
  // Every strict prefix must fail to decode, never misread.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(payload.begin(),
                                              payload.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_request(truncated).has_value()) << "cut=" << cut;
  }
  // Trailing garbage (payload longer than h*w pixels) must fail too: a length
  // mismatch means the framing is corrupt.
  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(0xAB);
  EXPECT_FALSE(decode_request(trailing).has_value());
  // Empty route and zero-dimension frames are invalid.
  WireRequest bad = request;
  bad.route.clear();
  EXPECT_FALSE(decode_request(payload_of(encode_request(bad))).has_value());
}

TEST(Wire, DecodeRejectsPixelCountOverflowInsteadOfThrowing) {
  // h=w=2^31 makes count=2^62, so count*4 wraps u64 to 0 and "matches" an
  // empty pixel block; the old multiply-based check then reached a
  // resize(2^62) that threw length_error. decode_request runs on the IO
  // thread BEFORE the auth check, so this 40-byte frame was an
  // unauthenticated remote crash on open binds. It must decode to nullopt.
  WireRequest request;
  request.id = 7;
  request.route = "m5:2:fp32";
  request.h = 0x80000000LL;  // 2^31, valid u32 on the wire
  request.w = 0x80000000LL;
  ASSERT_TRUE(request.pixels.empty());
  EXPECT_FALSE(decode_request(payload_of(encode_request(request))).has_value());

  // Same wrap on the response side.
  WireResponse response;
  response.id = 7;
  response.status = Status::kOk;
  response.route = "m5:2:fp32";
  response.h = 0x80000000LL;
  response.w = 0x80000000LL;
  EXPECT_FALSE(decode_response(payload_of(encode_response(response))).has_value());
}

TEST(Wire, FrameReaderReassemblesByteDribbledFrames) {
  WireRequest request;
  request.id = 42;
  request.route = "a:2:fp32";
  request.h = 2;
  request.w = 3;
  request.pixels = {1, 2, 3, 4, 5, 6};
  std::vector<std::uint8_t> stream = encode_request(request);
  const std::vector<std::uint8_t> second = encode_request(request);
  stream.insert(stream.end(), second.begin(), second.end());

  FrameReader reader;
  // Worst-case TCP segmentation: one byte at a time. Both frames must come
  // out whole and in order.
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const std::uint8_t byte : stream) {
    reader.feed(&byte, 1);
    while (auto payload = reader.next()) payloads.push_back(std::move(*payload));
  }
  ASSERT_EQ(payloads.size(), 2U);
  for (const auto& payload : payloads) {
    const auto decoded = decode_request(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->id, 42U);
    EXPECT_EQ(decoded->pixels, request.pixels);
  }
  EXPECT_FALSE(reader.poisoned());
}

TEST(Wire, FrameReaderPoisonsPermanentlyOnBadMagicAndOversizedLength) {
  FrameReader bad_magic;
  const std::uint8_t garbage[8] = {0xDE, 0xAD, 0xBE, 0xEF, 4, 0, 0, 0};
  bad_magic.feed(garbage, sizeof(garbage));
  EXPECT_TRUE(bad_magic.poisoned());
  EXPECT_EQ(bad_magic.next(), std::nullopt);
  // Even a pristine frame afterwards stays unread: framing lost sync.
  WireRequest request;
  request.id = 1;
  request.route = "a:2:fp32";
  request.h = 1;
  request.w = 1;
  request.pixels = {1.0F};
  const std::vector<std::uint8_t> clean = encode_request(request);
  bad_magic.feed(clean.data(), clean.size());
  EXPECT_EQ(bad_magic.next(), std::nullopt);

  FrameReader oversized(/*max_payload=*/64);
  std::uint8_t huge[8] = {'S', 'E', 'S', 'R', 0, 0, 0, 0};
  huge[4] = 65;  // length 65 > max 64
  oversized.feed(huge, sizeof(huge));
  EXPECT_TRUE(oversized.poisoned());
}

TEST(Wire, AuthFieldRoundTripsAndTokenlessStaysCompatible) {
  WireRequest with_auth;
  with_auth.id = 11;
  with_auth.auth = "hunter2-hunter2";
  with_auth.route = "m5:2:fp32";
  with_auth.h = 1;
  with_auth.w = 1;
  with_auth.pixels = {0.5F};
  const std::vector<std::uint8_t> bytes = encode_request(with_auth);
  // flags byte sits after id (8) and deadline (4) in the payload.
  EXPECT_NE(bytes[8 + 12] & kRequestFlagAuth, 0);
  const auto decoded = decode_request(payload_of(bytes));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->auth, with_auth.auth);
  EXPECT_EQ(decoded->route, with_auth.route);
  EXPECT_EQ(decoded->pixels, with_auth.pixels);

  // A tokenless request omits the field entirely — the pre-auth layout.
  WireRequest tokenless = with_auth;
  tokenless.auth.clear();
  const std::vector<std::uint8_t> plain = encode_request(tokenless);
  EXPECT_EQ(plain[8 + 12] & kRequestFlagAuth, 0);
  EXPECT_EQ(plain.size(), bytes.size() - 2 - with_auth.auth.size());
  const auto plain_decoded = decode_request(payload_of(plain));
  ASSERT_TRUE(plain_decoded.has_value());
  EXPECT_TRUE(plain_decoded->auth.empty());

  // Unknown flag bits are malformed, not silently ignored.
  std::vector<std::uint8_t> tampered = payload_of(plain);
  tampered[12] |= 1u << 2;
  EXPECT_FALSE(decode_request(tampered).has_value());

  // kRequestFlagAuth with auth_len = 0 is malformed: the flag promises bytes.
  std::vector<std::uint8_t> zero_len;
  auto put32 = [&zero_len](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) zero_len.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put32(0); put32(0);         // id (u64)
  put32(0);                   // deadline_us
  zero_len.push_back(kRequestFlagAuth);  // flags
  put32(0); put32(0);         // session_id (u64)
  put32(0);                   // frame_seq
  zero_len.push_back(0); zero_len.push_back(0);  // auth_len = 0
  zero_len.push_back(1); zero_len.push_back(0);  // route_len = 1
  zero_len.push_back('x');
  put32(1); put32(1);         // h, w
  put32(0x3F800000u);         // one pixel
  EXPECT_FALSE(decode_request(zero_len).has_value());
}

TEST(Wire, ConstantTimeEqualSemantics) {
  EXPECT_TRUE(constant_time_equal("secret", "secret"));
  EXPECT_FALSE(constant_time_equal("Secret", "secret"));
  EXPECT_FALSE(constant_time_equal("secre", "secret"));    // shorter
  EXPECT_FALSE(constant_time_equal("secrets", "secret"));  // longer
  EXPECT_FALSE(constant_time_equal("", "secret"));
  EXPECT_TRUE(constant_time_equal("", ""));
  EXPECT_FALSE(constant_time_equal("anything", ""));
}

TEST(Wire, FrameReaderDrainsAThousandCoalescedFramesInOneFeed) {
  // The regression: feed() used to erase the buffer front once PER FRAME, so
  // one recv() carrying K coalesced frames cost O(K^2) byte moves. The fix
  // carves by offset and compacts once; this test feeds ~1k tiny frames in a
  // single call and expects every one back, plus an intact partial tail.
  WireRequest request;
  request.id = 5;
  request.route = "a:2:fp32";
  request.h = 1;
  request.w = 1;
  request.pixels = {1.0F};
  const std::vector<std::uint8_t> one = encode_request(request);
  constexpr std::size_t kFrames = 1000;
  std::vector<std::uint8_t> stream;
  stream.reserve(one.size() * kFrames + one.size() / 2);
  for (std::size_t i = 0; i < kFrames; ++i) {
    stream.insert(stream.end(), one.begin(), one.end());
  }
  const std::size_t half = one.size() / 2;
  stream.insert(stream.end(), one.begin(), one.begin() + static_cast<std::ptrdiff_t>(half));

  FrameReader reader;
  reader.feed(stream.data(), stream.size());
  std::size_t count = 0;
  while (auto payload = reader.next()) {
    EXPECT_EQ(payload->size(), one.size() - 8);
    ++count;
  }
  EXPECT_EQ(count, kFrames);
  EXPECT_EQ(reader.partial_bytes(), half);  // the tail survives compaction
  EXPECT_FALSE(reader.poisoned());
  // Completing the torn frame releases exactly one more payload.
  reader.feed(one.data() + half, one.size() - half);
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_EQ(reader.next(), std::nullopt);
  EXPECT_EQ(reader.partial_bytes(), 0U);
}

// --------------------------------------------------------------- HTTP adapter

TEST(Http, ReaderParsesPipelinedRequestsQueryAndBody) {
  const std::string raw =
      "GET /v1/upscale?route=m5%3A2%3Afp32&h=8&w=8 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "\r\n"
      "POST /v1/upscale HTTP/1.1\r\n"
      "Content-Length: 4\r\n"
      "Connection: close\r\n"
      "\r\n"
      "\x01\x02\x03\x04";
  HttpReader reader;
  // Worst-case segmentation: byte at a time.
  for (const char c : raw) {
    reader.feed(reinterpret_cast<const std::uint8_t*>(&c), 1);
  }
  auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->method, "GET");
  EXPECT_EQ(first->path, "/v1/upscale");
  EXPECT_EQ(first->query.at("route"), "m5:2:fp32");  // percent-decoded
  EXPECT_EQ(first->query.at("h"), "8");
  EXPECT_TRUE(first->keep_alive);
  EXPECT_TRUE(first->body.empty());
  auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->method, "POST");
  EXPECT_FALSE(second->keep_alive);  // Connection: close
  EXPECT_EQ(second->body, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(reader.next(), std::nullopt);
  EXPECT_FALSE(reader.poisoned());
}

TEST(Http, ReaderPoisonsOnMalformedChunkedAndOversized) {
  auto feed_string = [](HttpReader& r, const std::string& s) {
    r.feed(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  };
  HttpReader bad_line;
  feed_string(bad_line, "NONSENSE\r\n\r\n");
  EXPECT_TRUE(bad_line.poisoned());

  HttpReader chunked;
  feed_string(chunked, "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_TRUE(chunked.poisoned());

  HttpReader bad_length;
  feed_string(bad_length, "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
  EXPECT_TRUE(bad_length.poisoned());

  HttpReader huge_body(/*max_body=*/16);
  feed_string(huge_body, "POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
  EXPECT_TRUE(huge_body.poisoned());

  HttpReader huge_header(/*max_body=*/1024, /*max_header_bytes=*/64);
  feed_string(huge_header, "GET /x HTTP/1.1\r\nPadding: " + std::string(128, 'a'));
  EXPECT_TRUE(huge_header.poisoned());

  // Duplicate framing headers: last-one-wins would let a proxy and this
  // parser disagree about where the body ends (request smuggling).
  HttpReader dup_length;
  feed_string(dup_length,
              "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 8\r\n\r\n");
  EXPECT_TRUE(dup_length.poisoned());

  // HTTP/1.0 defaults to close; headers are case-insensitive.
  HttpReader ten;
  feed_string(ten, "GET /healthz HTTP/1.0\r\nHOST: a\r\n\r\n");
  auto req = ten.next();
  ASSERT_TRUE(req.has_value());
  EXPECT_FALSE(req->keep_alive);
  EXPECT_EQ(req->header("host"), "a");
}

TEST(Http, ResponseBuilderAndSniffer) {
  const std::vector<std::uint8_t> resp = http_response(503, "text/plain", std::string("busy\n"), true);
  const std::string text(resp.begin(), resp.end());
  EXPECT_NE(text.find("HTTP/1.1 503 Service Unavailable\r\n"), std::string::npos);
  EXPECT_NE(text.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(text.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 5), "busy\n");

  auto sniff = [](const std::string& s) {
    return looks_like_http(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  };
  EXPECT_TRUE(sniff("GET /healthz"));
  EXPECT_TRUE(sniff("POST /v1/upscale"));
  EXPECT_TRUE(sniff("OPTIONS "));
  EXPECT_FALSE(sniff("SESR\x28\x00\x00\x00"));
  EXPECT_FALSE(sniff("XYZWABCD"));
  EXPECT_FALSE(sniff("GET"));  // no space yet: not committed
}

TEST(Http, PgmCodecRoundTripsAndRejectsMalformed) {
  std::vector<float> pixels(6);
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = static_cast<float>(i * 40) / 255.0F;  // exact 1/255 grid values
  }
  const std::vector<std::uint8_t> bytes = encode_pgm(2, 3, pixels);
  const auto decoded = decode_pgm(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->h, 2);
  EXPECT_EQ(decoded->w, 3);
  ASSERT_EQ(decoded->pixels.size(), 6U);
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    EXPECT_FLOAT_EQ(decoded->pixels[i], pixels[i]);
  }
  auto corrupt = [&](const std::string& s) {
    return decode_pgm(std::vector<std::uint8_t>(s.begin(), s.end())).has_value();
  };
  EXPECT_FALSE(corrupt("P6\n2 2\n255\nabcd"));       // wrong magic
  EXPECT_FALSE(corrupt("P5\n2 2\n65535\nabcd"));     // unsupported maxval
  EXPECT_FALSE(corrupt("P5\n2 2\n255\nabc"));        // short pixel block
  EXPECT_FALSE(corrupt("P5\n2 2\n255\nabcde"));      // long pixel block
  EXPECT_FALSE(corrupt("P5\n-1 2\n255\n"));          // negative dims
  // Overflow hardening: these run on the IO thread, where a throw (stoll
  // out_of_range, wrapped w*h matching an empty sample block) would
  // terminate the whole server. They must decode to nullopt instead.
  EXPECT_FALSE(corrupt("P5\n99999999999999999999 1\n255\n"));  // > long long
  EXPECT_FALSE(corrupt("P5\n4294967296 4294967296\n255\n"));   // w*h wraps
  EXPECT_FALSE(corrupt("P5\n2000000 1\n255\n"));               // over kMaxImageDim
}

// ------------------------------------------------------------ accept taxonomy

TEST(Socket, ClassifyAcceptErrnoTaxonomy) {
  EXPECT_EQ(classify_accept_errno(EAGAIN), AcceptAction::kDrained);
  EXPECT_EQ(classify_accept_errno(EWOULDBLOCK), AcceptAction::kDrained);
  // Per-connection failures: the listener is fine, keep accepting.
  EXPECT_EQ(classify_accept_errno(ECONNABORTED), AcceptAction::kRetry);
  EXPECT_EQ(classify_accept_errno(EPROTO), AcceptAction::kRetry);
  EXPECT_EQ(classify_accept_errno(EINTR), AcceptAction::kRetry);
  // Resource exhaustion: polling the still-readable listener would spin.
  EXPECT_EQ(classify_accept_errno(EMFILE), AcceptAction::kPause);
  EXPECT_EQ(classify_accept_errno(ENFILE), AcceptAction::kPause);
  EXPECT_EQ(classify_accept_errno(ENOBUFS), AcceptAction::kPause);
  EXPECT_EQ(classify_accept_errno(ENOMEM), AcceptAction::kPause);
  // Unknown errnos pause too: safe for any cause, spinning never is.
  EXPECT_EQ(classify_accept_errno(EINVAL), AcceptAction::kPause);
}

TEST(Socket, LoopbackAddressClassification) {
  EXPECT_TRUE(is_loopback_address("127.0.0.1"));
  EXPECT_TRUE(is_loopback_address("127.1.2.3"));  // whole 127/8 block
  EXPECT_TRUE(is_loopback_address("localhost"));
  EXPECT_TRUE(is_loopback_address(""));
  EXPECT_FALSE(is_loopback_address("0.0.0.0"));
  EXPECT_FALSE(is_loopback_address("10.0.0.1"));
  EXPECT_FALSE(is_loopback_address("not-an-address"));
}

TEST(Wire, PixelHelpersRoundTripTheYPlane) {
  const Tensor frame = make_frame(5, 6, 7);
  const std::vector<float> pixels = frame_to_pixels(frame);
  ASSERT_EQ(pixels.size(), 42U);
  const Tensor back = pixels_to_frame(6, 7, pixels);
  EXPECT_EQ(back.shape(), frame.shape());
  EXPECT_EQ(max_abs_diff(back, frame), 0.0F);
}

// -------------------------------------------------------- socket end-to-end

struct NetFixture {
  explicit NetFixture(NetServerOptions net_options = {}) : inference(make_inference(90)) {
    NetworkRegistry registry;
    registry.add(RouteKey{"m5", 2, core::InferencePrecision::kFp32}, inference);
    ServeOptions options;
    options.workers = 2;
    server = std::make_unique<ShardedServer>(registry, options);
    net = std::make_unique<NetServer>(*server, net_options);  // default: ephemeral port
  }
  ~NetFixture() {
    net->shutdown();
    server->shutdown();
  }
  core::SesrInference inference;
  std::unique_ptr<ShardedServer> server;
  std::unique_ptr<NetServer> net;
};

TEST(NetServer, UpscaleOverLoopbackBitIdenticalToInProcess) {
  NetFixture fx;
  NetClient client("127.0.0.1", fx.net->port());
  const Tensor frame = make_frame(91, 12, 16);
  const WireResponse response = client.upscale("m5:2:fp32", frame);
  ASSERT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.route, "m5:2:fp32");
  EXPECT_EQ(response.flags, 0);
  const Tensor got = pixels_to_frame(response.h, response.w, response.pixels);
  // The wire carries raw f32 bit patterns: the socket path must be
  // bit-identical to submitting in-process (itself bit-identical to the
  // single-threaded reference).
  EXPECT_EQ(max_abs_diff(got, fx.server->submit(RouteKey{"m5", 2, core::InferencePrecision::kFp32},
                                                frame)
                                  .get()),
            0.0F);
  EXPECT_EQ(max_abs_diff(got, fx.inference.upscale(frame)), 0.0F);
}

TEST(NetServer, UnknownRouteAnswersTypedStatusAndKeepsServing) {
  NetFixture fx;
  NetClient client("127.0.0.1", fx.net->port());
  const Tensor frame = make_frame(92, 8, 8);
  const WireResponse bad = client.upscale("nope:2:fp32", frame);
  EXPECT_EQ(bad.status, Status::kUnknownRoute);
  EXPECT_EQ(bad.h, 0);
  EXPECT_FALSE(bad.message.empty());
  // Same connection is still healthy.
  const WireResponse good = client.upscale("m5:2:fp32", frame);
  EXPECT_EQ(good.status, Status::kOk);
}

TEST(NetServer, PipelinedRequestsAllAnswered) {
  NetFixture fx;
  NetClient client("127.0.0.1", fx.net->port());
  constexpr int kRequests = 16;
  std::map<std::uint64_t, Tensor> sent;
  for (int i = 0; i < kRequests; ++i) {
    Tensor frame = make_frame(100 + static_cast<std::uint64_t>(i), 8, 10);
    const std::uint64_t id = client.send("m5:2:fp32", frame);
    sent.emplace(id, std::move(frame));
  }
  // Responses may arrive in any completion order; match by echoed id.
  for (int i = 0; i < kRequests; ++i) {
    const auto response = client.recv_response();
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, Status::kOk);
    const auto it = sent.find(response->id);
    ASSERT_NE(it, sent.end());
    EXPECT_EQ(max_abs_diff(pixels_to_frame(response->h, response->w, response->pixels),
                           fx.inference.upscale(it->second)),
              0.0F);
    sent.erase(it);
  }
  EXPECT_TRUE(sent.empty());
}

TEST(NetServer, MalformedFramePoisonsOnlyThatConnection) {
  NetFixture fx;
  NetClient victim("127.0.0.1", fx.net->port());
  NetClient bystander("127.0.0.1", fx.net->port());
  const Tensor frame = make_frame(93, 8, 8);
  // An in-flight request on the healthy connection...
  const std::uint64_t pending_id = bystander.send("m5:2:fp32", frame);
  // ...while the victim ships garbage: bad magic can only be answered with
  // kBadRequest (request id 0, the bytes are not trustworthy) and a close.
  victim.send_raw({0xBA, 0xD0, 0xBA, 0xD0, 0x10, 0x00, 0x00, 0x00});
  const auto reject = victim.recv_response();
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(reject->status, Status::kBadRequest);
  EXPECT_EQ(reject->id, 0U);
  EXPECT_EQ(victim.recv_response(), std::nullopt);  // server closed it
  // The bystander's request and connection are untouched.
  const auto response = bystander.recv_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, pending_id);
  EXPECT_EQ(response->status, Status::kOk);
  EXPECT_GE(fx.net->stats().malformed, 1U);
}

TEST(NetServer, MidRequestDisconnectLeavesOtherConnectionsServing) {
  NetFixture fx;
  const Tensor frame = make_frame(94, 10, 10);
  {
    // Half a request, then gone: the server must just drop the connection.
    WireRequest request;
    request.id = 99;
    request.route = "m5:2:fp32";
    request.h = frame.shape().h();
    request.w = frame.shape().w();
    request.pixels = frame_to_pixels(frame);
    std::vector<std::uint8_t> bytes = encode_request(request);
    bytes.resize(bytes.size() / 2);
    NetClient half("127.0.0.1", fx.net->port());
    half.send_raw(bytes);
    half.disconnect();
  }
  {
    // A full request followed by an immediate disconnect: the inference still
    // runs; the response is dropped on the floor, never crossed to another
    // connection or crashing the IO loop.
    NetClient vanish("127.0.0.1", fx.net->port());
    vanish.send("m5:2:fp32", frame);
    vanish.disconnect();
  }
  NetClient healthy("127.0.0.1", fx.net->port());
  for (int i = 0; i < 3; ++i) {
    const WireResponse response = healthy.upscale("m5:2:fp32", frame);
    ASSERT_EQ(response.status, Status::kOk);
    EXPECT_EQ(max_abs_diff(pixels_to_frame(response.h, response.w, response.pixels),
                           fx.inference.upscale(frame)),
              0.0F);
  }
  EXPECT_GE(fx.net->stats().disconnects, 2U);
}

std::vector<Tensor> video_sequence(data::VideoPattern pattern, std::int64_t frames,
                                   std::uint64_t seed) {
  data::VideoSequenceOptions options;
  options.pattern = pattern;
  options.frames = frames;
  options.h = 48;
  options.w = 48;
  return data::synthesize_video(options, seed);
}

TEST(NetServer, VideoSessionOverTheWireReusesTilesBitExactly) {
  NetFixture fx;
  NetClient client("127.0.0.1", fx.net->port());
  const std::vector<Tensor> frames = video_sequence(data::VideoPattern::kPan, 2, 96);
  for (std::uint32_t seq = 1; seq <= 2; ++seq) {
    const Tensor& frame = frames[seq - 1];
    const WireResponse response = client.upscale_video("m5:2:fp32", frame, 5001, seq);
    ASSERT_EQ(response.status, Status::kOk) << "seq " << seq;
    // Seq 1 has no predecessor; seq 2 deltas against seq 1's snapshot.
    EXPECT_EQ((response.flags & kFlagDeltaReuse) != 0, seq == 2) << "seq " << seq;
    EXPECT_EQ(max_abs_diff(pixels_to_frame(response.h, response.w, response.pixels),
                           fx.inference.upscale(frame)),
              0.0F)
        << "seq " << seq;
  }
}

TEST(NetServer, VideoSessionSurvivesMidFrameDisconnect) {
  // A session is keyed by (route, session id), not by the connection, so
  // its tile-delta state must outlive a client that vanishes mid-frame.
  NetFixture fx;
  const std::vector<Tensor> frames = video_sequence(data::VideoPattern::kSparkle, 3, 97);
  const std::uint64_t session_id = 7001;
  {
    NetClient first("127.0.0.1", fx.net->port());
    for (std::uint32_t seq = 1; seq <= 2; ++seq) {
      ASSERT_EQ(first.upscale_video("m5:2:fp32", frames[seq - 1], session_id, seq).status,
                Status::kOk);
    }
    WireRequest torn;
    torn.id = 3;
    torn.video = true;
    torn.session_id = session_id;
    torn.frame_seq = 3;
    torn.route = "m5:2:fp32";
    torn.h = frames[2].shape().h();
    torn.w = frames[2].shape().w();
    torn.pixels = frame_to_pixels(frames[2]);
    std::vector<std::uint8_t> bytes = encode_request(torn);
    bytes.resize(bytes.size() / 2);  // half of seq 3, then gone
    first.send_raw(bytes);
    first.disconnect();
  }
  // The session resumes on a fresh connection and still deltas against
  // seq 2's snapshot.
  NetClient second("127.0.0.1", fx.net->port());
  const WireResponse resumed = second.upscale_video("m5:2:fp32", frames[2], session_id, 3);
  ASSERT_EQ(resumed.status, Status::kOk);
  EXPECT_NE(resumed.flags & kFlagDeltaReuse, 0);
  EXPECT_EQ(max_abs_diff(pixels_to_frame(resumed.h, resumed.w, resumed.pixels),
                         fx.inference.upscale(frames[2])),
            0.0F);
}

TEST(NetServer, ShutdownFlushesInFlightResponses) {
  const core::SesrInference inference = make_inference(95);
  NetworkRegistry registry;
  registry.add(RouteKey{"m5", 2, core::InferencePrecision::kFp32}, inference);
  std::atomic<bool> hold{true};
  ServeOptions options;
  options.workers = 1;
  options.worker_hook = [&] {
    while (hold.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ShardedServer server(registry, options);
  auto net = std::make_unique<NetServer>(server, NetServerOptions{});
  NetClient client("127.0.0.1", net->port());
  const Tensor frame = make_frame(96, 8, 8);
  const std::uint64_t id = client.send("m5:2:fp32", frame);
  // Wait until the server has decoded and submitted the request.
  while (net->stats().requests == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // shutdown() must block on the in-flight response, flush it, then close.
  std::thread closer([&] { net->shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  hold.store(false, std::memory_order_release);
  closer.join();
  const auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, id);
  EXPECT_EQ(response->status, Status::kOk);
  EXPECT_EQ(max_abs_diff(pixels_to_frame(response->h, response->w, response->pixels),
                         inference.upscale(frame)),
            0.0F);
  EXPECT_EQ(client.recv_response(), std::nullopt);  // then the socket closed
  server.shutdown();
}

TEST(NetServer, DeadlineShedSurfacesAsOverloadedStatus) {
  const core::SesrInference inference = make_inference(97);
  NetworkRegistry registry;
  registry.add(RouteKey{"m5", 2, core::InferencePrecision::kFp32}, inference);
  ServeOptions options;
  options.workers = 1;
  ShardedServer server(registry, options);
  NetServer net(server, NetServerOptions{});
  NetClient client("127.0.0.1", net.port());
  const Tensor frame = make_frame(98, 32, 32);
  // Warm the route's service estimate (four observations), then ask for the
  // impossible: a 1us deadline. With no cheaper registered route the request
  // sheds, and the wire answer is the typed overload status, not a dead
  // connection.
  for (int i = 0; i < 4; ++i) ASSERT_EQ(client.upscale("m5:2:fp32", frame).status, Status::kOk);
  const WireResponse shed = client.upscale("m5:2:fp32", frame, /*deadline_us=*/1);
  EXPECT_EQ(shed.status, Status::kOverloaded);
  EXPECT_FALSE(shed.message.empty());
  // The connection survives shedding.
  EXPECT_EQ(client.upscale("m5:2:fp32", frame).status, Status::kOk);
  net.shutdown();
  server.shutdown();
}

// One raw HTTP exchange: connect, write `raw`, read until the server closes.
// Callers always send "Connection: close" so EOF delimits the response.
std::string http_exchange(std::uint16_t port, const std::string& raw) {
  Fd fd = connect_tcp("127.0.0.1", port);
  set_nodelay(fd);
  send_all(fd, reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size());
  std::string out;
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t got = ::recv(fd.get(), chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw SocketError("recv failed in http_exchange");
    }
    if (got == 0) break;
    out.append(reinterpret_cast<const char*>(chunk), static_cast<std::size_t>(got));
  }
  return out;
}

std::string http_status_line(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string http_body(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string{} : response.substr(pos + 4);
}

TEST(NetServer, HttpHealthzStatsAndUpscaleOverTheSamePort) {
  NetFixture fx;
  const std::uint16_t port = fx.net->port();

  const std::string health =
      http_exchange(port, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(http_status_line(health), "HTTP/1.1 200 OK");
  EXPECT_EQ(http_body(health), "ok\n");

  const std::string stats =
      http_exchange(port, "GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(http_status_line(stats), "HTTP/1.1 200 OK");
  EXPECT_NE(http_body(stats).find("\"io_shards\""), std::string::npos);
  EXPECT_NE(http_body(stats).find("\"shards\""), std::string::npos);

  // Raw-f32 upscale: bit-identical to the in-process path, dims in headers.
  const Tensor frame = make_frame(70, 8, 8);
  const std::vector<float> pixels = frame_to_pixels(frame);
  std::string body(reinterpret_cast<const char*>(pixels.data()), pixels.size() * sizeof(float));
  std::string request =
      "POST /v1/upscale?route=m5%3A2%3Afp32&h=8&w=8 HTTP/1.1\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n"
      "Connection: close\r\n\r\n" + body;
  const std::string upscaled = http_exchange(port, request);
  EXPECT_EQ(http_status_line(upscaled), "HTTP/1.1 200 OK");
  EXPECT_NE(upscaled.find("X-SESR-Height: 16\r\n"), std::string::npos);
  EXPECT_NE(upscaled.find("X-SESR-Width: 16\r\n"), std::string::npos);
  const std::string out = http_body(upscaled);
  ASSERT_EQ(out.size(), 16U * 16U * sizeof(float));
  std::vector<float> got(16 * 16);
  std::memcpy(got.data(), out.data(), out.size());
  EXPECT_EQ(max_abs_diff(pixels_to_frame(16, 16, got), fx.inference.upscale(frame)), 0.0F);

  // PGM in, PGM out.
  const std::vector<std::uint8_t> pgm = encode_pgm(8, 8, pixels);
  std::string pgm_request =
      "POST /v1/upscale?route=m5%3A2%3Afp32 HTTP/1.1\r\n"
      "Content-Length: " + std::to_string(pgm.size()) + "\r\n"
      "Connection: close\r\n\r\n";
  pgm_request.append(reinterpret_cast<const char*>(pgm.data()), pgm.size());
  const std::string pgm_out = http_exchange(port, pgm_request);
  EXPECT_EQ(http_status_line(pgm_out), "HTTP/1.1 200 OK");
  EXPECT_NE(pgm_out.find("Content-Type: image/x-portable-graymap\r\n"), std::string::npos);
  const std::string pgm_body = http_body(pgm_out);
  const auto decoded =
      decode_pgm(std::vector<std::uint8_t>(pgm_body.begin(), pgm_body.end()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->h, 16);
  EXPECT_EQ(decoded->w, 16);

  // Error mapping: unknown route is 404, missing route query is 400,
  // unknown path is 404.
  EXPECT_EQ(http_status_line(http_exchange(
                port, "POST /v1/upscale?route=nope%3A2%3Afp32&h=8&w=8 HTTP/1.1\r\n"
                      "Content-Length: " + std::to_string(body.size()) +
                      "\r\nConnection: close\r\n\r\n" + body)),
            "HTTP/1.1 404 Not Found");
  EXPECT_EQ(http_status_line(http_exchange(
                port, "POST /v1/upscale HTTP/1.1\r\nContent-Length: 0\r\n"
                      "Connection: close\r\n\r\n")),
            "HTTP/1.1 400 Bad Request");
  EXPECT_EQ(http_status_line(http_exchange(
                port, "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n")),
            "HTTP/1.1 404 Not Found");
  EXPECT_GE(fx.net->stats().http_requests, 6U);
}

TEST(NetServer, OverflowProbesAnswerCleanlyAndServerSurvives) {
  // Each probe used to reach an uncaught throw on the IO thread
  // (std::terminate for the whole process). Now each gets a typed rejection
  // and only its own connection closes.
  NetFixture fx;
  const std::uint16_t port = fx.net->port();

  // Binary protocol, pre-auth: h=w=2^31 with an empty pixel block wraps the
  // u64 byte count to 0.
  {
    WireRequest overflow;
    overflow.id = 13;
    overflow.route = "m5:2:fp32";
    overflow.h = 0x80000000LL;
    overflow.w = 0x80000000LL;
    NetClient probe("127.0.0.1", port);
    probe.send_raw(encode_request(overflow));
    const auto reject = probe.recv_response();
    ASSERT_TRUE(reject.has_value());
    EXPECT_EQ(reject->status, Status::kBadRequest);
    EXPECT_EQ(probe.recv_response(), std::nullopt);  // server closed it
  }

  // Raw f32 mode: h*w*4 wraps u64 to 0, matching the empty body.
  const std::string wrap = http_exchange(
      port,
      "POST /v1/upscale?route=m5%3A2%3Afp32&h=2147483648&w=2147483648 HTTP/1.1\r\n"
      "Content-Length: 0\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(http_status_line(wrap), "HTTP/1.1 400 Bad Request");

  // PGM header with a 20-digit width: stoll would throw out_of_range.
  const std::string big_pgm = "P5 99999999999999999999 1 255\nx";
  const std::string pgm = http_exchange(
      port, "POST /v1/upscale?route=m5%3A2%3Afp32 HTTP/1.1\r\nContent-Length: " +
                std::to_string(big_pgm.size()) + "\r\nConnection: close\r\n\r\n" +
                big_pgm);
  EXPECT_EQ(http_status_line(pgm), "HTTP/1.1 400 Bad Request");
  EXPECT_EQ(http_body(pgm), "malformed PGM body\n");

  // Duplicate Content-Length is a smuggling vector: poison, answer, close.
  const std::string dup = http_exchange(
      port, "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 2\r\n"
            "Connection: close\r\n\r\n");
  EXPECT_EQ(http_status_line(dup), "HTTP/1.1 400 Bad Request");

  // The server outlived every probe and still serves both protocols.
  const Tensor frame = make_frame(71, 8, 8);
  NetClient healthy("127.0.0.1", port);
  EXPECT_EQ(healthy.upscale("m5:2:fp32", frame).status, Status::kOk);
  EXPECT_EQ(http_status_line(http_exchange(
                port, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")),
            "HTTP/1.1 200 OK");
  EXPECT_GE(fx.net->stats().malformed, 2U);  // binary poison + duplicate header
}

TEST(NetServer, AuthTokenGatesBinaryAndHttpButNotHealthz) {
  NetServerOptions opts;
  opts.auth_token = "sesame-str33t";
  NetFixture fx(opts);
  const std::uint16_t port = fx.net->port();
  const Tensor frame = make_frame(71, 8, 8);

  // Binary without a token: typed kUnauthorized, connection survives.
  NetClient anon("127.0.0.1", port);
  EXPECT_EQ(anon.upscale("m5:2:fp32", frame).status, Status::kUnauthorized);
  // Wrong token: still unauthorized.
  anon.set_auth_token("sesame-str33v");
  EXPECT_EQ(anon.upscale("m5:2:fp32", frame).status, Status::kUnauthorized);
  // Right token on the SAME connection: auth is per-request, not per-conn.
  anon.set_auth_token("sesame-str33t");
  EXPECT_EQ(anon.upscale("m5:2:fp32", frame).status, Status::kOk);

  // HTTP: /healthz is deliberately tokenless (load balancers probe it);
  // everything else wants Authorization: Bearer.
  EXPECT_EQ(http_status_line(http_exchange(
                port, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")),
            "HTTP/1.1 200 OK");
  EXPECT_EQ(http_status_line(http_exchange(
                port, "GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")),
            "HTTP/1.1 401 Unauthorized");
  EXPECT_EQ(http_status_line(http_exchange(
                port, "GET /stats HTTP/1.1\r\nAuthorization: Bearer sesame-str33t\r\n"
                      "Connection: close\r\n\r\n")),
            "HTTP/1.1 200 OK");
  EXPECT_GE(fx.net->stats().auth_failures, 3U);
}

TEST(NetServer, NonLoopbackBindWithoutTokenRefusesToConstruct) {
  const core::SesrInference inference = make_inference(72);
  NetworkRegistry registry;
  registry.add(RouteKey{"m5", 2, core::InferencePrecision::kFp32}, inference);
  ShardedServer server(registry, ServeOptions{});
  NetServerOptions open_bind;
  open_bind.bind_address = "0.0.0.0";
  EXPECT_THROW(NetServer(server, open_bind), std::invalid_argument);
  NetServerOptions zero_shards;
  zero_shards.io_shards = 0;
  EXPECT_THROW(NetServer(server, zero_shards), std::invalid_argument);
  // With a token, the open bind is allowed.
  open_bind.auth_token = "t0ken";
  NetServer net(server, open_bind);
  EXPECT_NE(net.port(), 0);
  net.shutdown();
  server.shutdown();
}

TEST(NetServer, DrainedServerAnswersShuttingDownAndNetShutdownReturns) {
  // Regression shape for the pending-entry leak: requests arriving after the
  // inference server drained must still produce a typed response (the sharded
  // server resolves rejected submits through the done hook), and NetServer
  // shutdown must not spin on phantom in-flight entries.
  NetFixture fx;
  fx.server->shutdown();  // drain the inference backend FIRST
  NetClient client("127.0.0.1", fx.net->port());
  const WireResponse response = client.upscale("m5:2:fp32", make_frame(73, 8, 8));
  EXPECT_EQ(response.status, Status::kShuttingDown);
  std::atomic<bool> done{false};
  std::thread closer([&] {
    fx.net->shutdown();
    done.store(true, std::memory_order_release);
  });
  for (int i = 0; i < 500 && !done.load(std::memory_order_acquire); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(done.load(std::memory_order_acquire))
      << "NetServer::shutdown() wedged on a leaked pending entry";
  closer.join();
}

TEST(NetServer, SynchronousSubmitFaultDoesNotLeakPendingEntry) {
  // The actual bug: a synchronous throw out of submit left pending[seq]
  // behind with no done-hook ever coming, so conn.inflight never decayed and
  // shutdown() waited forever. The submit_fault seam forces that throw
  // deterministically.
  NetServerOptions opts;
  opts.submit_fault = [] { throw std::runtime_error("injected submit fault"); };
  NetFixture fx(opts);
  NetClient client("127.0.0.1", fx.net->port());
  // Pre-fix: no response ever (entry leaked). Post-fix: typed kError.
  const WireResponse response = client.upscale("m5:2:fp32", make_frame(74, 8, 8));
  EXPECT_EQ(response.status, Status::kError);
  EXPECT_FALSE(response.message.empty());
  // And the connection is still usable for the next (also faulted) request.
  EXPECT_EQ(client.upscale("m5:2:fp32", make_frame(75, 8, 8)).status, Status::kError);
  std::atomic<bool> done{false};
  std::thread closer([&] {
    fx.net->shutdown();
    done.store(true, std::memory_order_release);
  });
  for (int i = 0; i < 500 && !done.load(std::memory_order_acquire); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(done.load(std::memory_order_acquire))
      << "leaked pending entry kept shutdown() spinning";
  closer.join();
}

TEST(NetServer, ConnectionCapShedsCleanlyAndFreesOnDisconnect) {
  NetServerOptions opts;
  opts.max_connections = 2;
  NetFixture fx(opts);
  const std::uint16_t port = fx.net->port();
  const Tensor frame = make_frame(76, 8, 8);

  auto occupy_a = std::make_unique<NetClient>("127.0.0.1", port);
  auto occupy_b = std::make_unique<NetClient>("127.0.0.1", port);
  ASSERT_EQ(occupy_a->upscale("m5:2:fp32", frame).status, Status::kOk);
  ASSERT_EQ(occupy_b->upscale("m5:2:fp32", frame).status, Status::kOk);

  // Third binary connection: accepted into the overflow pen, then closed
  // cleanly (EOF before any response) once it reveals itself as binary.
  NetClient over("127.0.0.1", port);
  over.send("m5:2:fp32", frame);
  EXPECT_EQ(over.recv_response(), std::nullopt);

  // Third HTTP connection: gets an honest 503, not a silent close.
  const std::string shed =
      http_exchange(port, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(http_status_line(shed), "HTTP/1.1 503 Service Unavailable");
  EXPECT_GE(fx.net->stats().connections_rejected, 2U);

  // Freeing a slot readmits new connections. The disconnect needs a poll
  // cycle to land, so retry until the new client is actually served.
  occupy_a.reset();
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    try {
      NetClient retry("127.0.0.1", port);
      served = retry.upscale("m5:2:fp32", frame).status == Status::kOk;
    } catch (const std::exception&) {
    }
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served) << "cap never released the disconnected client's slot";
}

TEST(NetServer, IoShardsServeIdenticallyAndStatsRollUp) {
  NetServerOptions opts;
  opts.io_shards = 2;
  NetFixture fx(opts);
  const Tensor frame = make_frame(77, 8, 8);
  const Tensor expected = fx.inference.upscale(frame);
  // The kernel hashes the 4-tuple to pick a shard; distinct ephemeral source
  // ports make 32 sequential connections land on both shards with
  // overwhelming probability (miss chance 2^-31).
  for (int i = 0; i < 32; ++i) {
    NetClient client("127.0.0.1", fx.net->port());
    const WireResponse response = client.upscale("m5:2:fp32", frame);
    ASSERT_EQ(response.status, Status::kOk);
    ASSERT_EQ(max_abs_diff(pixels_to_frame(response.h, response.w, response.pixels), expected),
              0.0F);
  }
  // The response counter ticks AFTER the bytes hit the socket, so the last
  // client can observe its reply a beat before the shard thread bumps the
  // count — poll briefly instead of racing it.
  NetStats stats = fx.net->stats();
  for (int i = 0; i < 500 && stats.responses < 32; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stats = fx.net->stats();
  }
  ASSERT_EQ(stats.shards.size(), 2U);
  EXPECT_EQ(stats.connections_accepted, 32U);
  EXPECT_EQ(stats.requests, 32U);
  EXPECT_EQ(stats.responses, 32U);
  EXPECT_GT(stats.shards[0].connections_accepted, 0U);
  EXPECT_GT(stats.shards[1].connections_accepted, 0U);
  EXPECT_EQ(stats.shards[0].connections_accepted + stats.shards[1].connections_accepted, 32U);
  EXPECT_EQ(stats.shards[0].responses + stats.shards[1].responses, 32U);
}

TEST(NetServer, SlowLorisPartialFrameTripsReadTimeout) {
  NetServerOptions opts;
  opts.read_timeout_ms = 150;
  opts.idle_timeout_ms = 0;  // isolate the read timeout
  NetFixture fx(opts);
  const std::vector<std::uint8_t> full = encode_request([] {
    WireRequest r;
    r.id = 1;
    r.route = "m5:2:fp32";
    r.h = 8;
    r.w = 8;
    r.pixels.assign(64, 0.5F);
    return r;
  }());
  // A classic slow-loris: send half a frame, then go quiet. The server must
  // cut the connection after read_timeout_ms instead of holding the slot.
  NetClient loris("127.0.0.1", fx.net->port());
  loris.send_raw(std::vector<std::uint8_t>(full.begin(), full.begin() + full.size() / 2));
  EXPECT_EQ(loris.recv_response(), std::nullopt);  // EOF, no reply
  EXPECT_GE(fx.net->stats().timeouts, 1U);
  // An honest client connecting afterwards is unaffected.
  NetClient honest("127.0.0.1", fx.net->port());
  EXPECT_EQ(honest.upscale("m5:2:fp32", make_frame(78, 8, 8)).status, Status::kOk);
}

TEST(NetServer, IdleTimeoutSweepsSilentConnections) {
  NetServerOptions opts;
  opts.idle_timeout_ms = 150;
  opts.read_timeout_ms = 0;
  NetFixture fx(opts);
  // Connect and send NOTHING: no partial request pending, so the idle sweep
  // (not the read timeout) must reap this connection.
  NetClient silent("127.0.0.1", fx.net->port());
  EXPECT_EQ(silent.recv_response(), std::nullopt);
  EXPECT_GE(fx.net->stats().timeouts, 1U);
}

TEST(NetServer, SlowReaderWithLargeOutboxNeitherBlocksShardNorLosesResponses) {
  NetFixture fx;
  constexpr int kRequests = 64;
  const Tensor frame = make_frame(79, 64, 64);
  // Pipeline 64 requests (~4MB of 128x128 f32 responses) WITHOUT reading any
  // replies: the kernel socket buffers fill, the server's outbox grows, and
  // partial writes kick in. The IO shard must stay responsive throughout.
  NetClient greedy("127.0.0.1", fx.net->port());
  std::vector<std::uint64_t> ids;
  ids.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ids.push_back(greedy.send("m5:2:fp32", frame));
  }
  // While greedy's responses pile up unread, other clients keep getting
  // ANSWERS: the partial-write path must never park the whole shard on one
  // socket. A typed kOverloaded is a fine answer here (greedy's pipeline may
  // legitimately have the queue full); a hang or dead connection is not.
  for (int i = 0; i < 3; ++i) {
    NetClient bystander("127.0.0.1", fx.net->port());
    const Status status = bystander.upscale("m5:2:fp32", make_frame(80, 8, 8)).status;
    EXPECT_TRUE(status == Status::kOk || status == Status::kOverloaded);
  }
  // Now drain: every pipelined request gets exactly one response. With two
  // inference workers completions legitimately finish out of order (that is
  // what the wire id is for), and under pipelining pressure the admission
  // ladder may shed some as kOverloaded — fine; LOSING a response is not.
  std::map<std::uint64_t, int> answered;
  for (int i = 0; i < kRequests; ++i) {
    const auto response = greedy.recv_response();
    ASSERT_TRUE(response.has_value()) << "response " << i << " lost";
    EXPECT_TRUE(response->status == Status::kOk || response->status == Status::kOverloaded);
    ++answered[response->id];
  }
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(answered[id], 1) << "request id " << id << " answered " << answered[id] << " times";
  }
}

}  // namespace
}  // namespace sesr::serve::net
