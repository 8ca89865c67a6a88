// Checker test of the serving benchmark:
//   1. the bit-exact comparison rejects a plane that differs in one bit (any
//      bit position, at the first, a middle and the last pixel) or in size;
//   2. the references it compares against are what the shipped server
//      computes: sesr-serve, started with a workload's deployment flags,
//      answers every route bit-identically to the mirrored registry's
//      references.
//
//   cmake --build .bench_build --target servebench_checker_test
//   .bench_build/servebench_checker_test
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "serve/net/client.hpp"
#include "server_process.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<float> flip_bit(std::vector<float> plane, std::size_t index, int bit) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &plane[index], sizeof(bits));
  bits ^= 1U << bit;
  std::memcpy(&plane[index], &bits, sizeof(bits));
  return plane;
}

}  // namespace

int main() {
  using namespace servebench;
  Workload workload = make_workload("small_frames", 3);
  workload.inputs.resize(4);  // two 64x64 and two 96x128 frames are enough here
  const sesr::serve::NetworkRegistry registry = build_registry(workload);
  compute_references(workload, registry, 2);

  const std::vector<float>& ref = workload.inputs[0].ref[0];
  check(planes_equal(ref, ref), "a plane equals itself");
  for (const std::size_t index : {std::size_t{0}, ref.size() / 2, ref.size() - 1}) {
    for (const int bit : {0, 11, 22, 23, 31}) {
      check(!planes_equal(flip_bit(ref, index, bit), ref), "one flipped bit is caught");
    }
  }
  std::vector<float> shorter(ref.begin(), ref.end() - 1);
  check(!planes_equal(shorter, ref), "a shorter plane is caught");
  check(!planes_equal(workload.inputs[0].ref[1], ref), "another route's output differs");

  ServerProcess server(SERVEBENCH_SERVE_PATH, workload.server_args());
  sesr::serve::net::NetClient client("127.0.0.1", server.port());
  for (const Input& in : workload.inputs) {
    for (std::size_t r = 0; r < workload.routes.size(); ++r) {
      const sesr::serve::net::WireResponse response =
          client.upscale(sesr::serve::route_string(workload.routes[r]), in.lr);
      check(response.status == sesr::serve::net::Status::kOk, "sesr-serve answers OK");
      check(planes_equal(response.pixels, in.ref[r]), "served output equals the reference");
    }
  }
  client.disconnect();
  check(server.stop() == 0, "sesr-serve drains and exits 0");

  if (failures == 0) std::printf("servebench checker test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
