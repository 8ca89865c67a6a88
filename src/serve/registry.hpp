// Route keys and the multi-network registry behind the sharded server.
//
// A production deployment serves several collapsed SESR variants at once —
// different capacity tiers (M5 vs M11 vs XL), scale factors (x2 vs x4), and
// arithmetic precisions (fp32 vs fp16). A RouteKey names one such variant;
// the NetworkRegistry owns a checkpoint (TensorMap) per registered route so a
// ShardedServer can build bit-exact worker replicas per shard without keeping
// the caller's SesrInference alive. The same underlying network may be
// registered under several precisions: each route gets its own shard whose
// replicas are pinned to that precision.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sesr_inference.hpp"
#include "tensor/serialize.hpp"

namespace sesr::serve {

// submit() named a (network, scale, precision) route nobody registered.
class UnknownRouteError : public std::runtime_error {
 public:
  explicit UnknownRouteError(const std::string& route)
      : std::runtime_error("server: unknown route '" + route + "'") {}
};

// The routing coordinate of one served network variant.
struct RouteKey {
  std::string network;  // deployment name, e.g. "m5", "m11", "xl"
  std::int64_t scale = 2;
  core::InferencePrecision precision = core::InferencePrecision::kFp32;

  bool operator==(const RouteKey& other) const {
    return network == other.network && scale == other.scale && precision == other.precision;
  }
};

// Canonical spelling, e.g. "m5:2:fp32" — the CLI syntax of --networks and the
// per-route label in stats output.
std::string route_string(const RouteKey& key);

// Inverse of route_string; throws std::invalid_argument on malformed input.
// Scale-only shorthand "m5:2" defaults the precision to fp32.
RouteKey parse_route(const std::string& spec);

// One registered network: everything a shard needs to build worker replicas.
struct RegisteredNetwork {
  RouteKey key;
  core::SesrConfig config;
  TensorMap checkpoint;      // bit-exact round trip (SesrInference(TensorMap))
  std::int64_t exact_halo;   // receptive_field_radius of the collapsed net
};

// Collapsed networks keyed by route. add() snapshots the network into its
// checkpoint form, so the registry (and any server built from it) is
// independent of the caller's instance.
class NetworkRegistry {
 public:
  // Throws std::invalid_argument when the route is already registered or when
  // key.scale disagrees with the network's own scale.
  void add(const RouteKey& key, const core::SesrInference& network);

  bool contains(const RouteKey& key) const;
  // Throws UnknownRouteError when the route is not registered.
  const RegisteredNetwork& find(const RouteKey& key) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<RegisteredNetwork>& entries() const { return entries_; }

 private:
  std::vector<RegisteredNetwork> entries_;  // registration order = shard order
};

}  // namespace sesr::serve
