#include "serve/net/wire.hpp"

#include <bit>
#include <cstring>

namespace sesr::serve::net {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// The pixel block is little-endian IEEE-754 floats. A little-endian host
// copies it in bulk; any other host converts float by float, so the wire
// bytes are the same everywhere.
constexpr bool kBulkF32 = std::endian::native == std::endian::little;

void put_f32s(std::vector<std::uint8_t>& out, const std::vector<float>& v) {
  if constexpr (kBulkF32) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(v.data());
    out.insert(out.end(), bytes, bytes + v.size() * sizeof(float));
  } else {
    for (float f : v) put_u32(out, std::bit_cast<std::uint32_t>(f));
  }
}

// Little cursor over a payload; every read checks remaining length.
struct Cursor {
  const std::uint8_t* p;
  std::size_t left;

  bool u16(std::uint16_t& v) {
    if (left < 2) return false;
    v = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
    p += 2;
    left -= 2;
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (left < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (left < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return true;
  }
  bool u8(std::uint8_t& v) {
    if (left < 1) return false;
    v = *p++;
    --left;
    return true;
  }
  bool bytes(std::size_t n, std::string& out) {
    if (left < n) return false;
    out.assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
  bool f32s(std::size_t n, std::vector<float>& out) {
    // Divide rather than multiply: n*4 wraps for n >= 2^62 and a wrapped
    // product of 0 would pass the length check, then resize(n) throws — on
    // the IO thread, pre-auth, that is a remote crash.
    if (n > left / 4) return false;
    out.resize(n);
    if constexpr (kBulkF32) {
      if (n > 0) std::memcpy(out.data(), p, n * sizeof(float));
      p += n * sizeof(float);
      left -= n * sizeof(float);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t bits = 0;
        u32(bits);
        out[i] = std::bit_cast<float>(bits);
      }
    }
    return true;
  }
};

void put_prefix(std::vector<std::uint8_t>& out) {
  put_u32(out, kMagic);
  put_u32(out, 0);  // payload length patched by seal()
}

void seal(std::vector<std::uint8_t>& out) {
  const auto payload = static_cast<std::uint32_t>(out.size() - 8);
  for (int i = 0; i < 4; ++i) out[4 + i] = static_cast<std::uint8_t>(payload >> (8 * i));
}

}  // namespace

std::vector<std::uint8_t> encode_request(const WireRequest& request) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + 41 + request.auth.size() + request.route.size() + request.pixels.size() * 4);
  put_prefix(out);
  put_u64(out, request.id);
  put_u32(out, request.deadline_us);
  std::uint8_t flags = request.video ? kRequestFlagVideo : 0;
  if (!request.auth.empty()) flags |= kRequestFlagAuth;
  out.push_back(flags);
  put_u64(out, request.session_id);
  put_u32(out, request.frame_seq);
  if (!request.auth.empty()) {
    put_u16(out, static_cast<std::uint16_t>(request.auth.size()));
    out.insert(out.end(), request.auth.begin(), request.auth.end());
  }
  put_u16(out, static_cast<std::uint16_t>(request.route.size()));
  out.insert(out.end(), request.route.begin(), request.route.end());
  put_u32(out, static_cast<std::uint32_t>(request.h));
  put_u32(out, static_cast<std::uint32_t>(request.w));
  put_f32s(out, request.pixels);
  seal(out);
  return out;
}

std::vector<std::uint8_t> encode_response(const WireResponse& response) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + 24 + response.route.size() + response.pixels.size() * 4 +
              response.message.size());
  put_prefix(out);
  put_u64(out, response.id);
  out.push_back(static_cast<std::uint8_t>(response.status));
  out.push_back(response.flags);
  put_u16(out, static_cast<std::uint16_t>(response.route.size()));
  out.insert(out.end(), response.route.begin(), response.route.end());
  if (response.status == Status::kOk) {
    put_u32(out, static_cast<std::uint32_t>(response.h));
    put_u32(out, static_cast<std::uint32_t>(response.w));
    put_f32s(out, response.pixels);
  } else {
    put_u32(out, 0);
    put_u32(out, 0);
    out.insert(out.end(), response.message.begin(), response.message.end());
  }
  seal(out);
  return out;
}

std::optional<WireRequest> decode_request(const std::vector<std::uint8_t>& payload) {
  Cursor c{payload.data(), payload.size()};
  WireRequest r;
  std::uint8_t flags;
  std::uint16_t route_len;
  std::uint32_t h, w;
  if (!c.u64(r.id) || !c.u32(r.deadline_us) || !c.u8(flags) || !c.u64(r.session_id) ||
      !c.u32(r.frame_seq)) {
    return std::nullopt;
  }
  if ((flags & ~(kRequestFlagVideo | kRequestFlagAuth)) != 0) {
    return std::nullopt;  // unknown flag bits
  }
  if ((flags & kRequestFlagAuth) != 0) {
    std::uint16_t auth_len;
    if (!c.u16(auth_len) || auth_len == 0 || !c.bytes(auth_len, r.auth)) return std::nullopt;
  }
  if (!c.u16(route_len) || !c.bytes(route_len, r.route) || !c.u32(h) || !c.u32(w)) {
    return std::nullopt;
  }
  r.video = (flags & kRequestFlagVideo) != 0;
  if (r.route.empty() || h == 0 || w == 0) return std::nullopt;
  // The pixel block must be exactly h*w floats — no trailing garbage. The
  // byte count is compared via division: count*4 wraps u64 for h=w=2^31
  // (count=2^62, count*4 == 0 matches an empty tail) and this runs before
  // the auth check, so it must be overflow-proof.
  const std::uint64_t count = static_cast<std::uint64_t>(h) * w;
  if (c.left % 4 != 0 || c.left / 4 != count) return std::nullopt;
  r.h = static_cast<std::int64_t>(h);
  r.w = static_cast<std::int64_t>(w);
  if (!c.f32s(count, r.pixels)) return std::nullopt;
  return r;
}

std::optional<WireResponse> decode_response(const std::vector<std::uint8_t>& payload) {
  Cursor c{payload.data(), payload.size()};
  WireResponse r;
  std::uint8_t status;
  std::uint16_t route_len;
  std::uint32_t h, w;
  if (!c.u64(r.id) || !c.u8(status) || !c.u8(r.flags) || !c.u16(route_len) ||
      !c.bytes(route_len, r.route) || !c.u32(h) || !c.u32(w)) {
    return std::nullopt;
  }
  if (status > static_cast<std::uint8_t>(Status::kUnauthorized)) return std::nullopt;
  r.status = static_cast<Status>(status);
  if (r.status == Status::kOk) {
    if (h == 0 || w == 0) return std::nullopt;
    const std::uint64_t count = static_cast<std::uint64_t>(h) * w;
    if (c.left % 4 != 0 || c.left / 4 != count) return std::nullopt;  // overflow-proof
    r.h = static_cast<std::int64_t>(h);
    r.w = static_cast<std::int64_t>(w);
    if (!c.f32s(count, r.pixels)) return std::nullopt;
  } else {
    if (h != 0 || w != 0) return std::nullopt;
    if (!c.bytes(c.left, r.message)) return std::nullopt;
  }
  return r;
}

void FrameReader::feed(const std::uint8_t* data, std::size_t size) {
  if (poisoned()) return;
  buffer_.insert(buffer_.end(), data, data + size);
  // Carve frames by advancing an offset and compact ONCE at the end: one
  // recv() can carry K coalesced small frames, and erasing the front of the
  // buffer per frame memmoves the whole tail K times — O(K^2) bytes for what
  // should be one pass.
  while (buffer_.size() - consumed_ >= 8) {
    const std::uint8_t* p = buffer_.data() + consumed_;
    std::uint32_t magic = 0, len = 0;
    for (int i = 0; i < 4; ++i) magic |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(p[4 + i]) << (8 * i);
    if (magic != kMagic) {
      error_ = "bad frame magic";
      buffer_.clear();
      consumed_ = 0;
      return;
    }
    if (len > max_payload_) {
      error_ = "frame payload exceeds limit (" + std::to_string(len) + " bytes)";
      buffer_.clear();
      consumed_ = 0;
      return;
    }
    if (buffer_.size() - consumed_ < 8 + static_cast<std::size_t>(len)) break;  // incomplete
    ready_.emplace_back(p + 8, p + 8 + len);
    consumed_ += 8 + static_cast<std::size_t>(len);
  }
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

std::optional<std::vector<std::uint8_t>> FrameReader::next() {
  if (ready_.empty()) return std::nullopt;
  std::vector<std::uint8_t> payload = std::move(ready_.front());
  ready_.pop_front();
  return payload;
}

bool constant_time_equal(const std::string& candidate, const std::string& secret) {
  // Fold the length difference into the accumulator instead of early-exiting,
  // and index the secret modulo its size so every candidate byte is touched:
  // runtime depends only on candidate.size(), never on match position.
  unsigned diff = candidate.size() == secret.size() ? 0u : 1u;
  if (secret.empty()) return diff == 0;
  for (std::size_t i = 0; i < candidate.size(); ++i) {
    diff |= static_cast<unsigned>(static_cast<unsigned char>(candidate[i]) ^
                                  static_cast<unsigned char>(secret[i % secret.size()]));
  }
  return diff == 0;
}

Tensor pixels_to_frame(std::int64_t h, std::int64_t w, const std::vector<float>& pixels) {
  return Tensor(Shape(1, h, w, 1), pixels);
}

std::vector<float> frame_to_pixels(const Tensor& frame) {
  return std::vector<float>(frame.raw(), frame.raw() + frame.numel());
}

}  // namespace sesr::serve::net
