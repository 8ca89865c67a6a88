// Blocking client for the TCP front end — the tests' view of the wire
// protocol. One connection, synchronous send/recv; run several NetClients
// (one per thread) for closed-loop concurrency.
//
// send()/recv_response() are split so a caller can pipeline a few requests on
// one connection; upscale() is the common send-one-wait-one wrapper. send_raw
// ships arbitrary bytes — the chaos tests use it for malformed frames and
// mid-request disconnects.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/net/socket.hpp"
#include "serve/net/wire.hpp"
#include "tensor/tensor.hpp"

namespace sesr::serve::net {

class NetClient {
 public:
  NetClient(const std::string& host, std::uint16_t port);

  // Attach a shared-secret token: every subsequent request carries it in the
  // wire auth field (kRequestFlagAuth). Required against servers bound
  // beyond loopback; harmless extra bytes against tokenless ones.
  void set_auth_token(std::string token) { auth_token_ = std::move(token); }

  // Queue one request; returns the request id used on the wire.
  std::uint64_t send(const std::string& route, const Tensor& frame,
                     std::uint32_t deadline_us = 0);

  // Queue one video-session frame (kRequestFlagVideo with session_id/seq).
  // Submit seq = 1, 2, 3, ... per session; consecutive seqs let the server's
  // tile-delta path reuse unchanged tiles (kFlagDeltaReuse in the response).
  std::uint64_t send_video(const std::string& route, const Tensor& frame,
                           std::uint64_t session_id, std::uint32_t seq,
                           std::uint32_t deadline_us = 0);

  // send_video + recv_response, asserting the echoed id matches.
  WireResponse upscale_video(const std::string& route, const Tensor& frame,
                             std::uint64_t session_id, std::uint32_t seq,
                             std::uint32_t deadline_us = 0);

  // Block for the next response frame. std::nullopt = server closed the
  // connection. Throws SocketError on transport errors and std::runtime_error
  // on an undecodable response.
  std::optional<WireResponse> recv_response();

  // send + recv_response, asserting the echoed id matches.
  WireResponse upscale(const std::string& route, const Tensor& frame,
                       std::uint32_t deadline_us = 0);

  // Ship raw bytes verbatim (chaos testing).
  void send_raw(const std::vector<std::uint8_t>& bytes);

  // Close the socket immediately (mid-request disconnect simulation).
  void disconnect();
  bool connected() const { return fd_.valid(); }

 private:
  Fd fd_;
  std::uint64_t next_id_ = 1;
  std::string auth_token_;
};

}  // namespace sesr::serve::net
