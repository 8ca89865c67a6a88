#include "serve/registry.hpp"

#include "core/tiled_inference.hpp"

namespace sesr::serve {

namespace {

const char* precision_string(core::InferencePrecision precision) {
  switch (precision) {
    case core::InferencePrecision::kFp16: return "fp16";
    case core::InferencePrecision::kInt8: return "int8";
    case core::InferencePrecision::kHybrid: return "hybrid";
    case core::InferencePrecision::kFp32: break;
  }
  return "fp32";
}

}  // namespace

std::string route_string(const RouteKey& key) {
  return key.network + ":" + std::to_string(key.scale) + ":" + precision_string(key.precision);
}

RouteKey parse_route(const std::string& spec) {
  const std::size_t first = spec.find(':');
  if (first == 0 || first == std::string::npos) {
    throw std::invalid_argument("bad route '" + spec + "' (expected name:scale[:precision])");
  }
  const std::size_t second = spec.find(':', first + 1);
  RouteKey key;
  key.network = spec.substr(0, first);
  const std::string scale_part =
      spec.substr(first + 1, second == std::string::npos ? std::string::npos : second - first - 1);
  try {
    std::size_t consumed = 0;
    key.scale = std::stoll(scale_part, &consumed);
    if (consumed != scale_part.size()) throw std::invalid_argument(scale_part);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad route scale in '" + spec + "'");
  }
  if (key.scale < 1) throw std::invalid_argument("bad route scale in '" + spec + "'");
  if (second != std::string::npos) {
    const std::string precision = spec.substr(second + 1);
    if (precision == "fp32") key.precision = core::InferencePrecision::kFp32;
    else if (precision == "fp16") key.precision = core::InferencePrecision::kFp16;
    else if (precision == "int8") key.precision = core::InferencePrecision::kInt8;
    else if (precision == "hybrid") key.precision = core::InferencePrecision::kHybrid;
    else throw std::invalid_argument("bad route precision '" + precision + "' in '" + spec + "'");
  }
  return key;
}

void NetworkRegistry::add(const RouteKey& key, const core::SesrInference& network) {
  if (key.network.empty()) {
    throw std::invalid_argument("NetworkRegistry: route needs a network name");
  }
  if (key.scale != network.config().scale) {
    throw std::invalid_argument("NetworkRegistry: route '" + route_string(key) + "' scale " +
                                std::to_string(key.scale) + " != network scale " +
                                std::to_string(network.config().scale));
  }
  if (contains(key)) {
    throw std::invalid_argument("NetworkRegistry: duplicate route '" + route_string(key) + "'");
  }
  // int8/hybrid routes need the calibration (and plan) to travel with the
  // checkpoint: every shard replica is rebuilt from it and pinned to the
  // route precision, so reject uncalibrated networks here rather than deep
  // inside shard construction.
  if (key.precision == core::InferencePrecision::kInt8 ||
      key.precision == core::InferencePrecision::kHybrid) {
    if (!network.int8_calibrated()) {
      throw std::invalid_argument("NetworkRegistry: route '" + route_string(key) +
                                  "' requires calibrate_int8() on the network");
    }
  }
  if (key.precision == core::InferencePrecision::kHybrid &&
      network.hybrid_plan().size() != network.convolutions().size()) {
    throw std::invalid_argument("NetworkRegistry: route '" + route_string(key) +
                                "' requires a hybrid plan (set_hybrid_plan)");
  }
  RegisteredNetwork entry;
  entry.key = key;
  entry.config = network.config();
  entry.checkpoint = network.to_tensor_map();
  entry.exact_halo = core::receptive_field_radius(network);
  entries_.push_back(std::move(entry));
}

bool NetworkRegistry::contains(const RouteKey& key) const {
  for (const RegisteredNetwork& entry : entries_) {
    if (entry.key == key) return true;
  }
  return false;
}

const RegisteredNetwork& NetworkRegistry::find(const RouteKey& key) const {
  for (const RegisteredNetwork& entry : entries_) {
    if (entry.key == key) return entry;
  }
  throw UnknownRouteError(route_string(key));
}

}  // namespace sesr::serve
