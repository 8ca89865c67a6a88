// Deterministic concurrency tests for the sharded server (src/serve).
//
// The load-bearing promises under test:
//   1. Every accepted future completes — under multi-producer stress, under
//      shutdown-while-full, and under overload.
//   2. Served results are BIT-IDENTICAL to the single-threaded reference for
//      the same execution path (and, for exact-halo tiling, within float
//      tolerance of the full-frame pass).
//   3. The bounded queue's reject policy actually fires when the pipeline is
//      saturated, and blocked producers drain on shutdown without deadlock.
//
// The stress test is seeded: SESR_SERVE_STRESS_ITERS overrides the iteration
// count (CI's serve-tsan soak runs 100 under ThreadSanitizer). Worker threads
// are made deterministic where it matters via ServeOptions::worker_hook,
// which lets a test hold all workers on a latch.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "core/plan/execution_plan.hpp"
#include "core/sesr_inference.hpp"
#include "core/sesr_network.hpp"
#include "core/tiled_inference.hpp"
#include "serve/admission.hpp"
#include "serve/clock.hpp"
#include "serve/dispatch.hpp"
#include "serve/registry.hpp"
#include "serve/request.hpp"
#include "serve/response_cache.hpp"
#include "serve/sharded_server.hpp"
#include "serve/stats.hpp"
#include "data/video.hpp"
#include "tensor/tensor_ops.hpp"

namespace sesr::serve {
namespace {

core::SesrConfig small_config(bool with_bias = false, bool prelu = true) {
  core::SesrConfig config;
  config.f = 8;
  config.m = 2;
  config.scale = 2;
  config.expand = 16;
  config.prelu = prelu;
  config.with_bias = with_bias;
  return config;
}

core::SesrInference make_inference(std::uint64_t seed, const core::SesrConfig& config) {
  Rng rng(seed);
  core::SesrNetwork network(config, rng);
  return core::SesrInference(network);
}

Tensor make_frame(std::uint64_t seed, std::int64_t h, std::int64_t w) {
  Rng rng(seed);
  Tensor frame(1, h, w, 1);
  frame.fill_uniform(rng, 0.0F, 1.0F);
  return frame;
}

int stress_iterations() {
  if (const char* v = std::getenv("SESR_SERVE_STRESS_ITERS")) {
    const long n = std::strtol(v, nullptr, 10);
    if (n > 0) return static_cast<int>(n);
  }
  return 10;
}

// ------------------------------------------------------- end-to-end server

const RouteKey kFp32Route{"a", 2, core::InferencePrecision::kFp32};

// A registry holding `inference` under one route: the smallest server.
NetworkRegistry one_route(const core::SesrInference& inference,
                          const RouteKey& route = kFp32Route) {
  NetworkRegistry registry;
  registry.add(route, inference);
  return registry;
}

TEST(OneRouteServer, SingleFrameRoundTrip) {
  const core::SesrInference inference = make_inference(21, small_config());
  ServeOptions options;
  options.workers = 2;
  ShardedServer server(one_route(inference), options);
  const Tensor frame = make_frame(77, 16, 16);
  Tensor out = server.submit(kFp32Route, frame).get();
  EXPECT_EQ(max_abs_diff(out, inference.upscale(frame)), 0.0F);
  const ServerStats stats = server.stats().total;
  EXPECT_EQ(stats.submitted, 1U);
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_EQ(stats.rejected, 0U);
}

// Work-conserving dispatch: two same-shape frames submitted together run on
// two workers at once. The hook is a latch that opens only once both workers
// are inside it. A server that held the frames for a batch partner and ran
// them as one unit on one worker never opens it; the latch then gives up at a
// generous timeout, so the test fails instead of hanging.
TEST(OneRouteServer, TwoFramesRunOnTwoWorkersAtOnce) {
  const core::SesrInference inference = make_inference(28, small_config());
  std::atomic<int> inside{0};
  std::atomic<bool> timed_out{false};
  ServeOptions options;
  options.workers = 2;
  options.worker_hook = [&] {
    inside.fetch_add(1, std::memory_order_acq_rel);
    const auto give_up = ServeClock::now() + std::chrono::seconds(10);
    while (inside.load(std::memory_order_acquire) < 2) {
      if (ServeClock::now() >= give_up) {
        timed_out.store(true, std::memory_order_release);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ShardedServer server(one_route(inference), options);
  const Tensor a = make_frame(14, 16, 16);
  const Tensor b = make_frame(15, 16, 16);
  std::future<Tensor> fa = server.submit(kFp32Route, a);
  std::future<Tensor> fb = server.submit(kFp32Route, b);
  EXPECT_EQ(max_abs_diff(fa.get(), inference.upscale(a)), 0.0F);
  EXPECT_EQ(max_abs_diff(fb.get(), inference.upscale(b)), 0.0F);
  EXPECT_FALSE(timed_out.load(std::memory_order_acquire))
      << "the two frames never ran on two workers at the same time";
  EXPECT_EQ(server.stats().total.batches, 2U);  // one dispatched unit per frame
}

TEST(OneRouteServer, Fp16PrecisionBitIdenticalToDirectFp16Upscale) {
  // Worker replicas round their weight caches at construction; a served fp16
  // frame must match a direct fp16 upscale on the source network bit for bit,
  // and must actually differ from the fp32 answer (the knob is not a no-op).
  core::SesrInference inference = make_inference(31, small_config());
  ServeOptions options;
  options.workers = 2;
  const RouteKey fp16_route{"a", 2, core::InferencePrecision::kFp16};
  ShardedServer server(one_route(inference, fp16_route), options);
  const Tensor frame = make_frame(79, 16, 16);
  Tensor served = server.submit(fp16_route, frame).get();
  const Tensor fp32_ref = inference.upscale(frame);
  inference.set_precision(core::InferencePrecision::kFp16);
  EXPECT_EQ(max_abs_diff(served, inference.upscale(frame)), 0.0F);
  EXPECT_GT(max_abs_diff(served, fp32_ref), 0.0F);
}

TEST(OneRouteServer, BadFrameShapeFailsTheFutureNotTheServer) {
  const core::SesrInference inference = make_inference(22, small_config());
  ShardedServer server(one_route(inference), ServeOptions{});
  EXPECT_THROW(server.submit(kFp32Route, Tensor(2, 8, 8, 1)).get(), std::invalid_argument);
  EXPECT_THROW(server.submit(kFp32Route, Tensor(1, 8, 8, 3)).get(), std::invalid_argument);
  // The server still serves after bad submissions.
  const Tensor frame = make_frame(5, 8, 8);
  EXPECT_EQ(max_abs_diff(server.submit(kFp32Route, frame).get(), inference.upscale(frame)), 0.0F);
}

TEST(OneRouteServer, SubmitAfterShutdownFailsWithServerClosed) {
  const core::SesrInference inference = make_inference(23, small_config());
  ShardedServer server(one_route(inference), ServeOptions{});
  server.shutdown();
  EXPECT_THROW(server.submit(kFp32Route, make_frame(6, 8, 8)).get(), ServerClosedError);
}

TEST(OneRouteServer, TiledFanOutBitIdenticalToUpscaleTiled) {
  const core::SesrInference inference = make_inference(25, small_config());
  ServeOptions options;
  options.workers = 3;
  options.mode = ExecMode::kTiled;
  options.tiling.tile_h = 16;
  options.tiling.tile_w = 16;
  ShardedServer server(one_route(inference), options);
  const Tensor frame = make_frame(88, 40, 52);
  const Tensor out = server.submit(kFp32Route, frame).get();
  EXPECT_EQ(max_abs_diff(out, core::upscale_tiled(inference, frame, options.tiling)), 0.0F);
  // Exact halo: the fan-out result also matches the full frame to tolerance.
  EXPECT_LT(max_abs_diff(out, inference.upscale(frame)), 1e-5F);
  EXPECT_GE(server.stats().total.tiles, 6U);  // ceil(40/16) * ceil(52/16) = 3 * 4
}

// Deterministic overload: all workers held on a latch, so the pipeline's
// absorption capacity is finite and a bounded burst MUST trip kReject.
TEST(OneRouteServer, RejectPolicyFiresUnderOverloadAndAcceptedWorkCompletes) {
  const core::SesrInference inference = make_inference(26, small_config());
  std::atomic<bool> release{false};
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.overload = OverloadPolicy::kReject;
  options.worker_hook = [&] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ShardedServer server(one_route(inference), options);
  const Tensor frame = make_frame(9, 10, 10);
  // Shard bound (2) + the unit the held worker popped (1) bounds absorption;
  // with nothing draining, 50 submissions must see at least one rejection.
  std::vector<std::future<Tensor>> futures;
  bool saw_reject = false;
  for (int i = 0; i < 50 && !saw_reject; ++i) {
    futures.push_back(server.submit(kFp32Route, frame));
    saw_reject = server.stats().total.rejected > 0;
  }
  ASSERT_TRUE(saw_reject);
  release.store(true, std::memory_order_release);
  const Tensor want = inference.upscale(frame);
  std::size_t completed = 0;
  std::size_t rejected = 0;
  for (auto& f : futures) {
    try {
      EXPECT_EQ(max_abs_diff(f.get(), want), 0.0F);
      ++completed;
    } catch (const QueueFullError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(completed + rejected, futures.size());
  EXPECT_GE(completed, 1U);
  EXPECT_GE(rejected, 1U);
}

// Shutdown with a saturated pipeline and blocked producers: every accepted
// request must still complete, and shutdown() must not deadlock.
TEST(OneRouteServer, ShutdownWhileFullDrainsWithoutDeadlock) {
  const core::SesrInference inference = make_inference(27, small_config());
  std::atomic<bool> release{false};
  ServeOptions options;
  options.workers = 2;
  options.queue_capacity = 6;
  options.overload = OverloadPolicy::kBlock;
  options.worker_hook = [&] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ShardedServer server(one_route(inference), options);
  const Tensor frame = make_frame(13, 10, 12);
  const Tensor want = inference.upscale(frame);
  std::vector<std::future<Tensor>> futures(8);
  std::vector<std::thread> producers;
  std::atomic<int> submitted{0};
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        futures[static_cast<std::size_t>(t * 4 + i)] = server.submit(kFp32Route, frame);
        submitted.fetch_add(1);
      }
    });
  }
  // Wait until every producer has pushed: the bound (6) plus one unit held
  // by each latched worker (2) absorbs exactly the 8 submissions, so the
  // last two submits block until the workers pop, then go through.
  for (auto& p : producers) p.join();
  ASSERT_EQ(submitted.load(), 8);
  std::thread closer([&] { server.shutdown(); });
  release.store(true, std::memory_order_release);
  closer.join();
  for (auto& f : futures) {
    EXPECT_EQ(max_abs_diff(f.get(), want), 0.0F);
  }
  EXPECT_EQ(server.stats().total.completed, 8U);
}

// --------------------------------------------------- seeded stress harness

struct StressShape {
  std::int64_t h;
  std::int64_t w;
};

// One seeded iteration: N producer threads submit M frames each; every
// future must complete bit-identically to the single-threaded reference for
// the mode's execution path.
void run_stress_iteration(std::uint64_t seed) {
  const ExecMode modes[] = {ExecMode::kFullFrame, ExecMode::kTiled, ExecMode::kAuto};
  const ExecMode mode = modes[seed % 3];
  const core::SesrConfig config =
      small_config(/*with_bias=*/(seed / 3) % 2 == 1, /*prelu=*/seed % 2 == 0);
  const core::SesrInference inference = make_inference(1000 + seed, config);

  ServeOptions options;
  options.workers = 1 + static_cast<int>(seed % 4);
  options.queue_capacity = 8;
  options.overload = OverloadPolicy::kBlock;
  options.mode = mode;
  options.tiling.tile_h = 6;
  options.tiling.tile_w = 7;
  options.tiled_threshold_pixels = 12 * 12;  // kAuto: the larger shapes tile

  const StressShape shapes[] = {{10, 10}, {12, 14}, {16, 16}, {9, 11}};
  constexpr int kProducers = 3;
  constexpr int kFramesPerProducer = 6;

  ShardedServer server(one_route(inference), options);
  std::vector<std::vector<std::future<Tensor>>> futures(kProducers);
  std::vector<std::vector<Tensor>> sent(kProducers);
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    futures[static_cast<std::size_t>(t)].resize(kFramesPerProducer);
    sent[static_cast<std::size_t>(t)].resize(kFramesPerProducer);
    producers.emplace_back([&, t] {
      Rng rng(seed * 7919 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kFramesPerProducer; ++i) {
        const StressShape s = shapes[rng.uniform_int(0, 3)];
        Tensor frame(1, s.h, s.w, 1);
        frame.fill_uniform(rng, 0.0F, 1.0F);
        sent[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] = frame;
        futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            server.submit(kFp32Route, std::move(frame));
      }
    });
  }
  for (auto& p : producers) p.join();

  // Single-threaded references for the path each frame actually took.
  auto reference = [&](const Tensor& frame) -> Tensor {
    ExecMode resolved = mode;
    if (mode == ExecMode::kAuto) {
      resolved = frame.shape().h() * frame.shape().w() >= options.tiled_threshold_pixels
                     ? ExecMode::kTiled
                     : ExecMode::kFullFrame;
    }
    if (resolved == ExecMode::kTiled) return core::upscale_tiled(inference, frame, options.tiling);
    return inference.upscale(frame);
  };
  for (int t = 0; t < kProducers; ++t) {
    for (int i = 0; i < kFramesPerProducer; ++i) {
      Tensor got = futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)].get();
      const Tensor& frame = sent[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
      ASSERT_EQ(max_abs_diff(got, reference(frame)), 0.0F)
          << "seed=" << seed << " producer=" << t << " frame=" << i << " mode="
          << static_cast<int>(mode);
    }
  }
  server.shutdown();
  const ServerStats stats = server.stats().total;
  ASSERT_EQ(stats.completed, static_cast<std::uint64_t>(kProducers * kFramesPerProducer))
      << "seed=" << seed;
  ASSERT_EQ(stats.failed, 0U) << "seed=" << seed;
}

TEST(OneRouteServerStress, SeededMultiProducerBitIdentical) {
  const int iterations = stress_iterations();
  for (int i = 0; i < iterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    run_stress_iteration(static_cast<std::uint64_t>(i));
    if (HasFatalFailure()) return;
  }
}

// ----------------------------------------------------- percentile boundary

TEST(Percentile, EmptyInputReturnsZeroForEveryP) {
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(percentile({}, p), 0.0) << "p=" << p;
  }
}

TEST(Percentile, SingleSampleIsEveryPercentileOfItself) {
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(percentile({3.5}, p), 3.5) << "p=" << p;
  }
}

TEST(Percentile, TwoSamplesNearestRank) {
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_EQ(percentile(two, 0.0), 1.0);
  EXPECT_EQ(percentile(two, 50.0), 1.0);  // rank ceil(0.5 * 2) = 1
  EXPECT_EQ(percentile(two, 95.0), 2.0);
  EXPECT_EQ(percentile(two, 99.0), 2.0);
  EXPECT_EQ(percentile(two, 100.0), 2.0);
}

TEST(Percentile, P95OfTwentyIsTheNineteenthSample) {
  // Regression: 0.95 * 20 is 19.000000000000004 in binary, so a naive
  // ceil() lands on rank 20 and p95 silently reports the maximum.
  std::vector<double> samples;
  for (int i = 1; i <= 20; ++i) samples.push_back(static_cast<double>(i));
  EXPECT_EQ(percentile(samples, 95.0), 19.0);
  EXPECT_EQ(percentile(samples, 99.0), 20.0);  // rank ceil(19.8) = 20
  EXPECT_EQ(percentile(samples, 100.0), 20.0);
  EXPECT_EQ(percentile(samples, 0.0), 1.0);  // lower rank clamps to 1
  EXPECT_EQ(percentile(samples, 120.0), 20.0);
  EXPECT_EQ(percentile(samples, -5.0), 1.0);
}

// ------------------------------------------------------------ ResponseCache

TEST(ResponseCache, DisabledCacheNeverHitsOrStores) {
  ResponseCache cache(0);
  EXPECT_FALSE(cache.enabled());
  const Tensor frame = make_frame(1, 6, 6);
  cache.insert(0, frame, make_frame(2, 12, 12));
  EXPECT_FALSE(cache.lookup(0, frame).has_value());
  EXPECT_EQ(cache.stats().entries, 0U);
  EXPECT_EQ(cache.stats().insertions, 0U);
}

TEST(ResponseCache, HitIsBitIdenticalAndRouteScoped) {
  ResponseCache cache(4);
  const Tensor frame = make_frame(3, 6, 6);
  const Tensor output = make_frame(4, 12, 12);
  cache.insert(1, frame, output);
  const std::optional<Tensor> hit = cache.lookup(1, frame);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(max_abs_diff(*hit, output), 0.0F);
  // Same bytes under a different route is a different response: miss.
  EXPECT_FALSE(cache.lookup(2, frame).has_value());
  // A different frame misses.
  EXPECT_FALSE(cache.lookup(1, make_frame(5, 6, 6)).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1U);
  EXPECT_EQ(stats.misses, 2U);
  EXPECT_EQ(stats.entries, 1U);
}

TEST(ResponseCache, LruEvictionDropsTheColdestEntry) {
  ResponseCache cache(2);
  const Tensor a = make_frame(10, 5, 5);
  const Tensor b = make_frame(11, 5, 5);
  const Tensor c = make_frame(12, 5, 5);
  cache.insert(0, a, make_frame(20, 10, 10));
  cache.insert(0, b, make_frame(21, 10, 10));
  ASSERT_TRUE(cache.lookup(0, a).has_value());  // touch a: b becomes coldest
  cache.insert(0, c, make_frame(22, 10, 10));   // evicts b
  EXPECT_TRUE(cache.lookup(0, a).has_value());
  EXPECT_FALSE(cache.lookup(0, b).has_value());
  EXPECT_TRUE(cache.lookup(0, c).has_value());
  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_EQ(cache.stats().entries, 2U);
}

// -------------------------------------------------------- FairDispatchQueue

// Queue-only tests drive the scheduler with tagged dummy units.
Unit tagged_unit(std::uint64_t id) {
  FrameRequest request;
  request.id = id;
  return request;
}

std::uint64_t unit_tag(const Unit& unit) { return std::get<FrameRequest>(unit).id; }

using PushResult = FairDispatchQueue::PushResult;

TEST(FairDispatchQueue, FreshLanesFirstThenRoundRobin) {
  FairDispatchQueue queue(1, 64);
  // Three lanes, pushed fully before any pop: a has 3 units, b has 2, c has 1.
  ASSERT_EQ(queue.push(0, 1, tagged_unit(10)), PushResult::kAccepted);
  ASSERT_EQ(queue.push(0, 1, tagged_unit(11)), PushResult::kAccepted);
  ASSERT_EQ(queue.push(0, 1, tagged_unit(12)), PushResult::kAccepted);
  ASSERT_EQ(queue.push(0, 2, tagged_unit(20)), PushResult::kAccepted);
  ASSERT_EQ(queue.push(0, 2, tagged_unit(21)), PushResult::kAccepted);
  ASSERT_EQ(queue.push(0, 3, tagged_unit(30)), PushResult::kAccepted);
  queue.close();
  std::vector<std::uint64_t> order;
  Unit unit;
  while (queue.pop(0, unit)) order.push_back(unit_tag(unit));
  // Fresh lanes in arrival order, then round-robin over the survivors.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{10, 20, 30, 11, 21, 12}));
}

TEST(FairDispatchQueue, NewLanePreemptsServedLanes) {
  FairDispatchQueue queue(1, 64);
  ASSERT_EQ(queue.push(0, 1, tagged_unit(10)), PushResult::kAccepted);
  ASSERT_EQ(queue.push(0, 1, tagged_unit(11)), PushResult::kAccepted);
  Unit unit;
  ASSERT_TRUE(queue.pop(0, unit));
  EXPECT_EQ(unit_tag(unit), 10U);  // lane 1 is now "served"
  // A new logical request arrives mid-fan-out: it is scheduled next.
  ASSERT_EQ(queue.push(0, 2, tagged_unit(20)), PushResult::kAccepted);
  ASSERT_TRUE(queue.pop(0, unit));
  EXPECT_EQ(unit_tag(unit), 20U);
  ASSERT_TRUE(queue.pop(0, unit));
  EXPECT_EQ(unit_tag(unit), 11U);
}

TEST(FairDispatchQueue, WeightZeroPushNeverBlocksAtDepthLimit) {
  FairDispatchQueue queue(1, /*shard_capacity=*/1);
  ASSERT_EQ(queue.push(0, 1, tagged_unit(10), 1), PushResult::kAccepted);  // fills the bound
  // A fan-out continuation (weight 0) must go through without blocking.
  ASSERT_EQ(queue.push(0, 1, tagged_unit(11), 0), PushResult::kAccepted);
  EXPECT_EQ(queue.size(0), 1U);  // weighted depth: one admitted request
  // A weighted push blocks until the admitted request is popped.
  std::promise<PushResult> pushed;
  std::thread blocked([&] { pushed.set_value(queue.push(0, 2, tagged_unit(20), 1)); });
  auto future = pushed.get_future();
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds(50)), std::future_status::timeout);
  Unit unit;
  ASSERT_TRUE(queue.pop(0, unit));
  EXPECT_EQ(future.get(), PushResult::kAccepted);
  blocked.join();
  queue.close();
}

TEST(FairDispatchQueue, RejectPolicyFailsFastWhenFull) {
  FairDispatchQueue queue(1, /*shard_capacity=*/2);
  for (std::uint64_t lane = 1; lane <= 2; ++lane) {
    ASSERT_EQ(queue.push(0, lane, tagged_unit(lane), 1, OverloadPolicy::kReject),
              PushResult::kAccepted);
  }
  Unit overflow = tagged_unit(3);
  EXPECT_EQ(queue.push(0, 3, std::move(overflow), 1, OverloadPolicy::kReject), PushResult::kFull);
  // The refused unit is still owned by the caller; its promise is intact.
  std::get<FrameRequest>(overflow).promise.set_exception(
      std::make_exception_ptr(QueueFullError()));
  EXPECT_EQ(queue.size(0), 2U);
}

TEST(FairDispatchQueue, BlockedPushReturnsClosedOnShutdown) {
  FairDispatchQueue queue(1, /*shard_capacity=*/1);
  ASSERT_EQ(queue.push(0, 1, tagged_unit(1)), PushResult::kAccepted);
  std::promise<PushResult> result;
  std::thread blocked([&] { result.set_value(queue.push(0, 2, tagged_unit(2))); });
  queue.close();  // wakes the blocked producer
  EXPECT_EQ(result.get_future().get(), PushResult::kClosed);
  blocked.join();
}

TEST(FairDispatchQueue, RejectPushDuringDrainOnCloseReturnsClosed) {
  // After close() the queue drains already-accepted work, but new pushes must
  // report kClosed — never kFull, which would invite a retry loop against a
  // queue that will never accept again.
  FairDispatchQueue queue(1, /*shard_capacity=*/2);
  for (std::uint64_t lane = 1; lane <= 2; ++lane) {
    ASSERT_EQ(queue.push(0, lane, tagged_unit(lane), 1, OverloadPolicy::kReject),
              PushResult::kAccepted);
  }
  queue.close();
  EXPECT_EQ(queue.push(0, 3, tagged_unit(3), 1, OverloadPolicy::kReject), PushResult::kClosed);
  EXPECT_EQ(queue.push(0, 3, tagged_unit(3), 1, OverloadPolicy::kBlock), PushResult::kClosed);
  EXPECT_EQ(queue.push(0, 1, tagged_unit(4), 0, OverloadPolicy::kReject), PushResult::kClosed);
  // The accepted work is still drainable after the refused pushes.
  Unit unit;
  std::size_t drained = 0;
  while (queue.pop(0, unit)) ++drained;
  EXPECT_EQ(drained, 2U);
}

TEST(FairDispatchQueue, BoundCountsLogicalRequestsNotTiles) {
  // A 15-tile frame admits as ONE request: its first unit carries weight 1,
  // the other 14 weight 0, and none of them is refused or waits even though
  // the shard is at its bound while they arrive.
  FairDispatchQueue queue(1, /*shard_capacity=*/2);
  ASSERT_EQ(queue.push(0, 1, tagged_unit(100), 1, OverloadPolicy::kReject),
            PushResult::kAccepted);
  ASSERT_EQ(queue.push(0, 2, tagged_unit(200), 1, OverloadPolicy::kReject),
            PushResult::kAccepted);
  EXPECT_EQ(queue.size(0), 2U);  // at the bound
  for (std::uint64_t t = 1; t < 15; ++t) {
    ASSERT_EQ(queue.push(0, 1, tagged_unit(100 + t), 0, OverloadPolicy::kBlock),
              PushResult::kAccepted)
        << "tile " << t;
  }
  EXPECT_EQ(queue.size(0), 2U);
  EXPECT_EQ(queue.push(0, 3, tagged_unit(300), 1, OverloadPolicy::kReject), PushResult::kFull);
  // Popping the tiled frame's weighted unit frees one slot; its 14 remaining
  // tiles do not hold the bound.
  Unit unit;
  ASSERT_TRUE(queue.pop(0, unit));
  EXPECT_EQ(unit_tag(unit), 100U);
  EXPECT_EQ(queue.size(0), 1U);
  EXPECT_EQ(queue.push(0, 3, tagged_unit(300), 1, OverloadPolicy::kReject),
            PushResult::kAccepted);
  queue.close();
}

TEST(FairDispatchQueue, FullShardDoesNotBlockAnotherShard) {
  FairDispatchQueue queue(2, /*shard_capacity=*/1);
  ASSERT_EQ(queue.push(0, 1, tagged_unit(10)), PushResult::kAccepted);
  EXPECT_EQ(queue.push(0, 2, tagged_unit(11), 1, OverloadPolicy::kReject), PushResult::kFull);
  // A blocking push to the other shard must go straight through.
  std::promise<PushResult> pushed;
  std::thread other([&] { pushed.set_value(queue.push(1, 1, tagged_unit(40))); });
  auto future = pushed.get_future();
  const bool returned = future.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  queue.close();  // unblocks the push if the bound leaked across shards
  other.join();
  ASSERT_TRUE(returned) << "a full shard blocked a push to another shard";
  EXPECT_EQ(future.get(), PushResult::kAccepted);
  EXPECT_EQ(queue.size(0), 1U);
  EXPECT_EQ(queue.size(1), 1U);
}

TEST(FairDispatchQueue, CloseRejectsPushesAndDrainsPops) {
  FairDispatchQueue queue(2, 8);
  ASSERT_EQ(queue.push(0, 1, tagged_unit(10)), PushResult::kAccepted);
  ASSERT_EQ(queue.push(1, 1, tagged_unit(40)), PushResult::kAccepted);
  queue.close();
  EXPECT_EQ(queue.push(0, 2, tagged_unit(20)), PushResult::kClosed);
  Unit unit;
  ASSERT_TRUE(queue.pop(0, unit));
  EXPECT_EQ(unit_tag(unit), 10U);
  EXPECT_FALSE(queue.pop(0, unit));  // shard 0 drained
  ASSERT_TRUE(queue.pop(1, unit));
  EXPECT_EQ(unit_tag(unit), 40U);
  EXPECT_FALSE(queue.pop(1, unit));
}

TEST(FairDispatchQueue, CloseDrainsRemainingThenReturnsEmpty) {
  FairDispatchQueue queue(1, /*shard_capacity=*/4);
  for (std::uint64_t lane = 1; lane <= 3; ++lane) {
    ASSERT_EQ(queue.push(0, lane, tagged_unit(lane), 1, OverloadPolicy::kReject),
              PushResult::kAccepted);
  }
  queue.close();
  std::size_t drained = 0;
  Unit unit;
  while (queue.pop(0, unit)) ++drained;
  EXPECT_EQ(drained, 3U);
  EXPECT_FALSE(queue.pop(0, unit));  // stays empty once drained
}

// ---------------------------------------------------------- NetworkRegistry

TEST(NetworkRegistry, RouteStringParseRoundTrip) {
  const RouteKey fp16{"m11", 4, core::InferencePrecision::kFp16};
  EXPECT_EQ(route_string(fp16), "m11:4:fp16");
  EXPECT_TRUE(parse_route("m11:4:fp16") == fp16);
  const RouteKey int8{"m5", 2, core::InferencePrecision::kInt8};
  EXPECT_EQ(route_string(int8), "m5:2:int8");
  EXPECT_TRUE(parse_route("m5:2:int8") == int8);
  const RouteKey hybrid{"m7", 3, core::InferencePrecision::kHybrid};
  EXPECT_EQ(route_string(hybrid), "m7:3:hybrid");
  EXPECT_TRUE(parse_route("m7:3:hybrid") == hybrid);
  const RouteKey defaulted = parse_route("m5:2");
  EXPECT_EQ(defaulted.network, "m5");
  EXPECT_EQ(defaulted.scale, 2);
  EXPECT_EQ(defaulted.precision, core::InferencePrecision::kFp32);
  EXPECT_THROW(parse_route(""), std::invalid_argument);
  EXPECT_THROW(parse_route("m5"), std::invalid_argument);
  EXPECT_THROW(parse_route("m5:x"), std::invalid_argument);
  EXPECT_THROW(parse_route("m5:2:fp8"), std::invalid_argument);
  EXPECT_THROW(parse_route(":2"), std::invalid_argument);
}

TEST(NetworkRegistry, AddValidatesAndFindThrowsOnUnknown) {
  NetworkRegistry registry;
  const core::SesrInference inference = make_inference(41, small_config());
  const RouteKey key{"a", 2, core::InferencePrecision::kFp32};
  registry.add(key, inference);
  EXPECT_TRUE(registry.contains(key));
  EXPECT_EQ(registry.find(key).config.scale, 2);
  // Duplicate route.
  EXPECT_THROW(registry.add(key, inference), std::invalid_argument);
  // Scale disagreeing with the network's own scale.
  EXPECT_THROW(registry.add(RouteKey{"a", 4, core::InferencePrecision::kFp32}, inference),
               std::invalid_argument);
  // Same network under another precision is a distinct route.
  registry.add(RouteKey{"a", 2, core::InferencePrecision::kFp16}, inference);
  EXPECT_EQ(registry.size(), 2U);
  EXPECT_THROW(registry.find(RouteKey{"b", 2, core::InferencePrecision::kFp32}),
               UnknownRouteError);
}

TEST(NetworkRegistry, AddRejectsQuantizedRoutesWithoutCalibrationOrPlan) {
  NetworkRegistry registry;
  core::SesrInference inference = make_inference(43, small_config());
  // Quantized routes need scales baked into the checkpoint the shards will
  // restore from; hybrid additionally needs the per-layer split.
  EXPECT_THROW(registry.add(RouteKey{"a", 2, core::InferencePrecision::kInt8}, inference),
               std::invalid_argument);
  EXPECT_THROW(registry.add(RouteKey{"a", 2, core::InferencePrecision::kHybrid}, inference),
               std::invalid_argument);
  inference.calibrate_int8({make_frame(7, 12, 12)});
  registry.add(RouteKey{"a", 2, core::InferencePrecision::kInt8}, inference);
  EXPECT_THROW(registry.add(RouteKey{"a", 2, core::InferencePrecision::kHybrid}, inference),
               std::invalid_argument);
  inference.set_hybrid_plan(std::vector<core::LayerPrecision>(
      inference.convolutions().size(), core::LayerPrecision::kInt8));
  registry.add(RouteKey{"a", 2, core::InferencePrecision::kHybrid}, inference);
  EXPECT_EQ(registry.size(), 2U);
}

// ------------------------------------------------------------ ShardedServer

TEST(ShardedServer, MultiNetworkRoutingBitIdentical) {
  const core::SesrInference net_a = make_inference(51, small_config());
  const core::SesrInference net_b = make_inference(52, small_config(/*with_bias=*/true));
  const RouteKey route_a{"a", 2, core::InferencePrecision::kFp32};
  const RouteKey route_b{"b", 2, core::InferencePrecision::kFp32};
  NetworkRegistry registry;
  registry.add(route_a, net_a);
  registry.add(route_b, net_b);
  ServeOptions options;
  options.workers = 2;
  ShardedServer server(registry, options);
  EXPECT_EQ(server.shard_count(), 2U);
  const Tensor frame = make_frame(90, 12, 12);
  Tensor out_a = server.submit(route_a, frame).get();
  Tensor out_b = server.submit(route_b, frame).get();
  EXPECT_EQ(max_abs_diff(out_a, net_a.upscale(frame)), 0.0F);
  EXPECT_EQ(max_abs_diff(out_b, net_b.upscale(frame)), 0.0F);
  EXPECT_GT(max_abs_diff(out_a, out_b), 0.0F);  // the routes really differ
  server.shutdown();
  const ShardedStats stats = server.stats();
  ASSERT_EQ(stats.per_route.size(), 2U);
  EXPECT_EQ(stats.per_route[0].route, "a:2:fp32");
  EXPECT_EQ(stats.per_route[0].submitted, 1U);
  EXPECT_EQ(stats.per_route[0].completed, 1U);
  EXPECT_EQ(stats.per_route[1].route, "b:2:fp32");
  EXPECT_EQ(stats.per_route[1].completed, 1U);
  EXPECT_EQ(stats.total.completed, 2U);
}

TEST(ShardedServer, UnknownRouteFailsTheFutureNotTheServer) {
  const core::SesrInference inference = make_inference(53, small_config());
  const RouteKey known{"a", 2, core::InferencePrecision::kFp32};
  ShardedServer server(one_route(inference, known), ServeOptions{});
  EXPECT_THROW(
      server.submit(RouteKey{"nope", 2, core::InferencePrecision::kFp32}, make_frame(1, 8, 8))
          .get(),
      UnknownRouteError);
  const Tensor frame = make_frame(2, 8, 8);
  EXPECT_EQ(max_abs_diff(server.submit(known, frame).get(), inference.upscale(frame)), 0.0F);
}

TEST(ShardedServer, RejectsInvalidOptions) {
  const core::SesrInference inference = make_inference(56, small_config());
  NetworkRegistry registry;
  registry.add(RouteKey{"a", 2, core::InferencePrecision::kFp32}, inference);
  // Each invalid configuration must throw invalid_argument naming the class
  // that rejected it.
  const auto expect_rejected = [&](const ServeOptions& options, const char* what) {
    try {
      ShardedServer server(registry, options);
      ADD_FAILURE() << what << ": constructed";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("ShardedServer:", 0), 0U) << what << ": " << e.what();
    }
  };
  ServeOptions no_workers;
  no_workers.workers = 0;
  expect_rejected(no_workers, "workers = 0");
  ServeOptions no_capacity;
  no_capacity.queue_capacity = 0;
  expect_rejected(no_capacity, "queue_capacity = 0");
  ServeOptions tiled;
  tiled.mode = ExecMode::kTiled;
  tiled.tiling.tile_h = 0;
  expect_rejected(tiled, "kTiled, tile_h = 0");
  ServeOptions automatic;
  automatic.mode = ExecMode::kAuto;
  automatic.tiling.tile_w = 0;
  expect_rejected(automatic, "kAuto, tile_w = 0");
}

TEST(ShardedServer, EachRouteRunsAtItsOwnPrecision) {
  // One network registered under both precisions: each route's replicas are
  // pinned to the route's precision.
  core::SesrInference inference = make_inference(54, small_config());
  const RouteKey fp32_route{"a", 2, core::InferencePrecision::kFp32};
  const RouteKey fp16_route{"a", 2, core::InferencePrecision::kFp16};
  NetworkRegistry registry;
  registry.add(fp32_route, inference);
  registry.add(fp16_route, inference);
  ShardedServer server(registry, ServeOptions{});
  const Tensor frame = make_frame(91, 16, 16);
  Tensor out32 = server.submit(fp32_route, frame).get();
  Tensor out16 = server.submit(fp16_route, frame).get();
  EXPECT_EQ(max_abs_diff(out32, inference.upscale(frame)), 0.0F);
  inference.set_precision(core::InferencePrecision::kFp16);
  EXPECT_EQ(max_abs_diff(out16, inference.upscale(frame)), 0.0F);
  EXPECT_GT(max_abs_diff(out32, out16), 0.0F);
}

TEST(ShardedServer, CacheHitIsBitIdenticalAndCounted) {
  const core::SesrInference inference = make_inference(55, small_config());
  const RouteKey route{"a", 2, core::InferencePrecision::kFp32};
  NetworkRegistry registry;
  registry.add(route, inference);
  ServeOptions options;
  options.cache_entries = 4;
  ShardedServer server(registry, options);
  const Tensor frame = make_frame(92, 10, 10);
  const Tensor cold = server.submit(route, frame).get();
  const Tensor hit = server.submit(route, frame).get();
  EXPECT_EQ(max_abs_diff(hit, cold), 0.0F);
  server.shutdown();
  const ShardedStats stats = server.stats();
  EXPECT_EQ(stats.total.submitted, 2U);
  EXPECT_EQ(stats.total.completed, 2U);
  EXPECT_EQ(stats.total.cache_hits, 1U);
  EXPECT_EQ(stats.cache.hits, 1U);
  EXPECT_EQ(stats.cache.misses, 1U);
  EXPECT_EQ(stats.per_route[0].cache_hits, 1U);
  EXPECT_EQ(stats.per_route[0].completed, 2U);
}

// --------------------------------------- sharded seeded stress (soak: TSan)

// One seeded iteration of mixed-network traffic: producers interleave two
// routes (one of them fp16) across shapes and modes; every future must be
// bit-identical to its route's single-threaded reference, and the per-route
// counters must reconcile.
void run_sharded_stress_iteration(std::uint64_t seed) {
  const ExecMode modes[] = {ExecMode::kFullFrame, ExecMode::kTiled, ExecMode::kAuto};
  const ExecMode mode = modes[seed % 3];
  core::SesrInference net_a = make_inference(2000 + seed, small_config());
  core::SesrInference net_b =
      make_inference(3000 + seed, small_config(/*with_bias=*/seed % 2 == 0));
  const RouteKey route_a{"a", 2, core::InferencePrecision::kFp32};
  const RouteKey route_b{"b", 2, core::InferencePrecision::kFp16};
  NetworkRegistry registry;
  registry.add(route_a, net_a);
  registry.add(route_b, net_b);

  ServeOptions options;
  options.workers = 1 + static_cast<int>(seed % 3);
  options.queue_capacity = 8;
  options.mode = mode;
  options.tiling.tile_h = 6;
  options.tiling.tile_w = 7;
  options.tiled_threshold_pixels = 12 * 12;
  options.cache_entries = seed % 2 == 0 ? 4 : 0;  // alternate: cache on/off

  const StressShape shapes[] = {{10, 10}, {12, 14}, {16, 16}};
  constexpr int kProducers = 3;
  constexpr int kFramesPerProducer = 6;

  ShardedServer server(registry, options);
  std::vector<std::vector<std::future<Tensor>>> futures(kProducers);
  std::vector<std::vector<Tensor>> sent(kProducers);
  std::vector<std::vector<bool>> to_b(kProducers);
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    futures[static_cast<std::size_t>(t)].resize(kFramesPerProducer);
    sent[static_cast<std::size_t>(t)].resize(kFramesPerProducer);
    to_b[static_cast<std::size_t>(t)].resize(kFramesPerProducer);
    producers.emplace_back([&, t] {
      Rng rng(seed * 104729 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kFramesPerProducer; ++i) {
        const StressShape s = shapes[rng.uniform_int(0, 2)];
        // A small pool of repeated frames so the cache path gets real hits.
        Tensor frame(1, s.h, s.w, 1);
        Rng frame_rng(seed * 31 + static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
        frame.fill_uniform(frame_rng, 0.0F, 1.0F);
        const bool b = rng.uniform_int(0, 1) == 1;
        sent[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] = frame;
        to_b[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] = b;
        futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            server.submit(b ? route_b : route_a, std::move(frame));
      }
    });
  }
  for (auto& p : producers) p.join();

  net_b.set_precision(core::InferencePrecision::kFp16);
  auto reference = [&](const core::SesrInference& net, const Tensor& frame) -> Tensor {
    ExecMode resolved = mode;
    if (mode == ExecMode::kAuto) {
      resolved = frame.shape().h() * frame.shape().w() >= options.tiled_threshold_pixels
                     ? ExecMode::kTiled
                     : ExecMode::kFullFrame;
    }
    if (resolved == ExecMode::kTiled) return core::upscale_tiled(net, frame, options.tiling);
    return net.upscale(frame);
  };
  std::uint64_t want_b = 0;
  for (int t = 0; t < kProducers; ++t) {
    for (int i = 0; i < kFramesPerProducer; ++i) {
      Tensor got = futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)].get();
      const Tensor& frame = sent[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
      const bool b = to_b[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
      want_b += b ? 1 : 0;
      ASSERT_EQ(max_abs_diff(got, reference(b ? net_b : net_a, frame)), 0.0F)
          << "seed=" << seed << " producer=" << t << " frame=" << i << " route="
          << (b ? "b" : "a");
    }
  }
  server.shutdown();
  const ShardedStats stats = server.stats();
  constexpr auto kTotal = static_cast<std::uint64_t>(kProducers * kFramesPerProducer);
  ASSERT_EQ(stats.total.completed, kTotal) << "seed=" << seed;
  ASSERT_EQ(stats.total.failed, 0U) << "seed=" << seed;
  ASSERT_EQ(stats.per_route[0].completed + stats.per_route[1].completed, kTotal)
      << "seed=" << seed;
  ASSERT_EQ(stats.per_route[1].completed, want_b) << "seed=" << seed;
  ASSERT_EQ(stats.total.cache_hits, stats.per_route[0].cache_hits + stats.per_route[1].cache_hits)
      << "seed=" << seed;
}

TEST(ShardedServerStress, SeededMixedNetworkBitIdentical) {
  const int iterations = stress_iterations();
  for (int i = 0; i < iterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    run_sharded_stress_iteration(static_cast<std::uint64_t>(i));
    if (HasFatalFailure()) return;
  }
}

// One calibrated + hybrid-planned network served under all four precisions at
// once, with the execution mode (full-frame / tiled / auto) rotating per
// seed. Every result must be bit-identical to the same-mode single-threaded
// reference — the scales and the plan travel inside the checkpoint, so shard
// replicas must reproduce them exactly. The pure-int8 route carries a
// stronger promise (integer accumulation, fixed scales, elementwise
// quantization): its tiled outputs must ALSO match the full-frame pass
// bitwise, which the test asserts cross-mode.
void run_mixed_precision_stress_iteration(std::uint64_t seed) {
  const ExecMode modes[] = {ExecMode::kFullFrame, ExecMode::kTiled, ExecMode::kAuto};
  const ExecMode mode = modes[seed % 3];
  core::SesrInference net = make_inference(7000 + seed, small_config());
  Rng calib_rng(seed ^ 0xABCD17ULL);
  std::vector<Tensor> calib;
  for (int i = 0; i < 2; ++i) {
    Tensor frame(1, 16, 16, 1);
    frame.fill_uniform(calib_rng, 0.0F, 1.0F);
    calib.push_back(std::move(frame));
  }
  net.calibrate_int8(calib);
  // Interleave fp16 and int8 layers so the hybrid route actually exercises
  // both arithmetics (a planner run would work too; a fixed split is faster
  // and just as binding for the determinism promise).
  std::vector<core::LayerPrecision> plan(net.convolutions().size(),
                                         core::LayerPrecision::kFp16);
  for (std::size_t i = 0; i < plan.size(); i += 2) plan[i] = core::LayerPrecision::kInt8;
  net.set_hybrid_plan(std::move(plan));

  const RouteKey routes[] = {{"m", 2, core::InferencePrecision::kFp32},
                             {"m", 2, core::InferencePrecision::kFp16},
                             {"m", 2, core::InferencePrecision::kInt8},
                             {"m", 2, core::InferencePrecision::kHybrid}};
  NetworkRegistry registry;
  for (const RouteKey& route : routes) registry.add(route, net);

  ServeOptions options;
  options.workers = 1 + static_cast<int>(seed % 3);
  options.queue_capacity = 8;
  options.mode = mode;
  options.tiling.tile_h = 6;
  options.tiling.tile_w = 7;
  options.tiled_threshold_pixels = 12 * 12;
  options.cache_entries = seed % 2 == 0 ? 4 : 0;

  const StressShape shapes[] = {{10, 10}, {12, 14}, {16, 16}};
  constexpr int kProducers = 3;
  constexpr int kFramesPerProducer = 8;

  ShardedServer server(registry, options);
  std::vector<std::vector<std::future<Tensor>>> futures(kProducers);
  std::vector<std::vector<Tensor>> sent(kProducers);
  std::vector<std::vector<int>> route_of(kProducers);
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    futures[static_cast<std::size_t>(t)].resize(kFramesPerProducer);
    sent[static_cast<std::size_t>(t)].resize(kFramesPerProducer);
    route_of[static_cast<std::size_t>(t)].resize(kFramesPerProducer);
    producers.emplace_back([&, t] {
      Rng rng(seed * 7919 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kFramesPerProducer; ++i) {
        const StressShape s = shapes[rng.uniform_int(0, 2)];
        Tensor frame(1, s.h, s.w, 1);
        Rng frame_rng(seed * 37 + static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
        frame.fill_uniform(frame_rng, 0.0F, 1.0F);
        const int r = rng.uniform_int(0, 3);
        sent[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] = frame;
        route_of[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] = r;
        futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            server.submit(routes[r], std::move(frame));
      }
    });
  }
  for (auto& p : producers) p.join();

  auto reference = [&](core::InferencePrecision prec, const Tensor& frame,
                       ExecMode forced) -> Tensor {
    net.set_precision(prec);
    ExecMode resolved = forced;
    if (resolved == ExecMode::kAuto) {
      resolved = frame.shape().h() * frame.shape().w() >= options.tiled_threshold_pixels
                     ? ExecMode::kTiled
                     : ExecMode::kFullFrame;
    }
    if (resolved == ExecMode::kTiled) return core::upscale_tiled(net, frame, options.tiling);
    return net.upscale(frame);
  };
  std::uint64_t per_route_want[4] = {0, 0, 0, 0};
  for (int t = 0; t < kProducers; ++t) {
    for (int i = 0; i < kFramesPerProducer; ++i) {
      Tensor got = futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)].get();
      const Tensor& frame = sent[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
      const int r = route_of[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
      ++per_route_want[r];
      ASSERT_EQ(max_abs_diff(got, reference(routes[r].precision, frame, mode)), 0.0F)
          << "seed=" << seed << " producer=" << t << " frame=" << i
          << " route=" << route_string(routes[r]);
      if (routes[r].precision == core::InferencePrecision::kInt8) {
        ASSERT_EQ(max_abs_diff(got,
                               reference(core::InferencePrecision::kInt8, frame,
                                         ExecMode::kFullFrame)),
                  0.0F)
            << "seed=" << seed << " int8 cross-mode mismatch vs full-frame";
      }
    }
  }
  server.shutdown();
  const ShardedStats stats = server.stats();
  constexpr auto kTotal = static_cast<std::uint64_t>(kProducers * kFramesPerProducer);
  ASSERT_EQ(stats.total.completed, kTotal) << "seed=" << seed;
  ASSERT_EQ(stats.total.failed, 0U) << "seed=" << seed;
  std::uint64_t completed = 0;
  for (const RouteStats& route : stats.per_route) completed += route.completed;
  ASSERT_EQ(completed, kTotal) << "seed=" << seed;
}

TEST(MixedPrecisionStress, AllPrecisionsOneServerBitIdentical) {
  const int iterations = stress_iterations();
  for (int i = 0; i < iterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    run_mixed_precision_stress_iteration(static_cast<std::uint64_t>(i));
    if (HasFatalFailure()) return;
  }
}

// --------------------------------------------------------- video sessions

ServeOptions video_serve_options(ExecMode mode, int workers = 2) {
  ServeOptions options;
  options.workers = workers;
  options.mode = mode;
  options.tiling.tile_h = 6;
  options.tiling.tile_w = 7;
  options.tiled_threshold_pixels = 12 * 12;
  options.cache_entries = 0;  // reference submits must recompute
  return options;
}

// The tentpole promise at the server seam: a video session's delta output is
// bit-identical to the full re-upscale of the same frame, in every execution
// mode, and the delta path actually engages from frame 2 on.
TEST(VideoSession, DeltaBitIdenticalAllModes) {
  const ExecMode modes[] = {ExecMode::kFullFrame, ExecMode::kTiled, ExecMode::kAuto};
  const core::SesrInference net = make_inference(501, small_config());
  const RouteKey key{"m", 2, core::InferencePrecision::kFp32};
  data::VideoSequenceOptions vopts;
  vopts.pattern = data::VideoPattern::kSparkle;
  vopts.frames = 4;
  vopts.h = 16;
  vopts.w = 16;
  const std::vector<Tensor> frames = data::synthesize_video(vopts, 7);
  for (const ExecMode mode : modes) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    ShardedServer server(one_route(net, key), video_serve_options(mode));
    for (std::size_t i = 0; i < frames.size(); ++i) {
      VideoOptions video;
      video.session_id = 9;
      video.seq = i + 1;
      AdmitResult admitted = server.submit_video(key, frames[i], video);
      const Tensor got = admitted.future.get();
      const Tensor want = server.submit(key, frames[i]).get();
      ASSERT_EQ(max_abs_diff(got, want), 0.0F) << "frame " << i;
      EXPECT_EQ(admitted.delta, i > 0) << "frame " << i;
      if (i > 0) {
        EXPECT_LE(admitted.tiles_recomputed, admitted.tiles_total) << "frame " << i;
      }
    }
    server.shutdown();
    const ShardedStats stats = server.stats();
    EXPECT_EQ(stats.total.video_frames, frames.size());
    EXPECT_EQ(stats.total.video_delta_frames, frames.size() - 1);
    EXPECT_EQ(stats.video.publishes, frames.size());
    EXPECT_EQ(stats.video.hits, frames.size() - 1);
    EXPECT_EQ(stats.video.sessions, 1U);
  }
}

// A sequence-number gap means the stored snapshot is not the predecessor:
// the frame takes the (always correct) full path and re-primes the session.
TEST(VideoSession, SeqGapFallsBackToFull) {
  const core::SesrInference net = make_inference(503, small_config());
  const RouteKey key{"m", 2, core::InferencePrecision::kFp32};
  ShardedServer server(one_route(net, key), video_serve_options(ExecMode::kTiled));
  const Tensor frame = make_frame(31, 14, 14);
  const std::uint64_t seqs[] = {1, 2, 4, 5};
  const bool want_delta[] = {false, true, false, true};  // 4 breaks the chain, 5 re-deltas
  for (std::size_t i = 0; i < 4; ++i) {
    VideoOptions video;
    video.session_id = 1;
    video.seq = seqs[i];
    AdmitResult admitted = server.submit_video(key, frame, video);
    const Tensor got = admitted.future.get();
    ASSERT_EQ(max_abs_diff(got, server.submit(key, frame).get()), 0.0F) << "seq " << seqs[i];
    EXPECT_EQ(admitted.delta, want_delta[i]) << "seq " << seqs[i];
  }
  server.shutdown();
}

// A resolution change mid-session cannot splice tiles from the old shape:
// the frame takes the full path and the session re-primes at the new shape.
TEST(VideoSession, ShapeChangeFallsBackToFull) {
  const core::SesrInference net = make_inference(505, small_config());
  const RouteKey key{"m", 2, core::InferencePrecision::kFp32};
  ShardedServer server(one_route(net, key), video_serve_options(ExecMode::kTiled));
  const Tensor big = make_frame(37, 16, 16);
  const Tensor small = make_frame(41, 10, 12);
  VideoOptions video;
  video.session_id = 2;
  video.seq = 1;
  EXPECT_FALSE(server.submit_video(key, big, video).delta);
  video.seq = 2;
  AdmitResult switched = server.submit_video(key, small, video);
  EXPECT_FALSE(switched.delta);
  ASSERT_EQ(max_abs_diff(switched.future.get(), server.submit(key, small).get()), 0.0F);
  video.seq = 3;
  AdmitResult resumed = server.submit_video(key, small, video);
  EXPECT_TRUE(resumed.delta);
  ASSERT_EQ(max_abs_diff(resumed.future.get(), server.submit(key, small).get()), 0.0F);
  server.shutdown();
}

// A bitwise-identical frame short-circuits: zero dirty tiles, the previous
// HR output is returned synchronously (the future is already resolved when
// submit_video returns), and the reuse counters account for the whole grid.
TEST(VideoSession, ZeroDirtyResolvesSynchronously) {
  const core::SesrInference net = make_inference(507, small_config());
  const RouteKey key{"m", 2, core::InferencePrecision::kFp32};
  ShardedServer server(one_route(net, key), video_serve_options(ExecMode::kTiled));
  const Tensor frame = make_frame(43, 13, 15);
  VideoOptions video;
  video.session_id = 3;
  video.seq = 1;
  const Tensor first = server.submit_video(key, frame, video).future.get();
  video.seq = 2;
  AdmitResult repeat = server.submit_video(key, frame, video);
  EXPECT_TRUE(repeat.delta);
  EXPECT_EQ(repeat.tiles_recomputed, 0U);
  EXPECT_GT(repeat.tiles_total, 0U);
  ASSERT_EQ(repeat.future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ASSERT_EQ(max_abs_diff(repeat.future.get(), first), 0.0F);
  server.shutdown();
  const ShardedStats stats = server.stats();
  EXPECT_EQ(stats.total.video_tiles_recomputed, 0U);
  EXPECT_EQ(stats.total.video_tiles_reused, repeat.tiles_total);
}

// submit_video runs the same admission step as submit_admitted: a bad shape,
// an unknown route, a draining server and a closed server each fail the
// future with their typed error, every path (these four, a served frame and
// a zero-dirty frame) fires done_hook exactly once, and no path leaks an
// inflight token — begin_drain() returns.
TEST(ShardedServer, VideoSubmitSharesTheAdmissionGates) {
  const core::SesrInference net = make_inference(513, small_config());
  const RouteKey key{"m", 2, core::InferencePrecision::kFp32};
  ShardedServer server(one_route(net, key), video_serve_options(ExecMode::kTiled));
  std::array<std::atomic<int>, 6> fired{};
  const auto submit = [&](std::size_t path, const RouteKey& route, Tensor frame,
                          std::uint64_t seq) {
    SubmitOptions opts;
    opts.done_hook = [&fired, path] { fired[path].fetch_add(1); };
    return server.submit_video(route, std::move(frame), VideoOptions{7, seq}, std::move(opts));
  };
  const Tensor frame = make_frame(44, 13, 15);

  EXPECT_THROW(submit(0, key, Tensor(1, 13, 15, 3), 1).future.get(), std::invalid_argument);
  EXPECT_THROW(submit(1, RouteKey{"nope", 2, core::InferencePrecision::kFp32}, frame, 1)
                   .future.get(),
               UnknownRouteError);
  const Tensor first = submit(2, key, frame, 1).future.get();
  AdmitResult repeat = submit(3, key, frame, 2);  // zero dirty tiles: resolved on submit
  EXPECT_EQ(fired[3].load(), 1);
  EXPECT_TRUE(repeat.delta);
  EXPECT_EQ(repeat.tiles_recomputed, 0U);
  EXPECT_EQ(max_abs_diff(repeat.future.get(), first), 0.0F);

  server.begin_drain();  // returns once every admitted request gave its token back
  EXPECT_THROW(submit(4, key, frame, 3).future.get(), ServerDrainingError);
  server.begin_drain();  // the refused frame holds no token either
  server.shutdown();
  try {
    submit(5, key, frame, 3).future.get();
    ADD_FAILURE() << "closed server accepted a video frame";
  } catch (const ServerDrainingError&) {
    ADD_FAILURE() << "closed server answered ServerDrainingError";
  } catch (const ServerClosedError&) {
  }
  for (std::size_t path = 0; path < fired.size(); ++path) {
    EXPECT_EQ(fired[path].load(), 1) << "path " << path;
  }
  const ShardedStats stats = server.stats();
  EXPECT_EQ(stats.total.video_frames, 2U);  // only admitted frames count
  EXPECT_EQ(stats.total.submitted, 2U);
  EXPECT_EQ(stats.total.completed, 2U);
  EXPECT_EQ(stats.total.failed, 0U);
}

// reload_routes swaps the network set; stale sessions must not splice HR
// tiles produced by the previous deployment.
TEST(VideoSession, ReloadRoutesClearsSessions) {
  const core::SesrInference net = make_inference(509, small_config());
  const RouteKey key{"m", 2, core::InferencePrecision::kFp32};
  ShardedServer server(one_route(net, key), video_serve_options(ExecMode::kTiled));
  const Tensor frame = make_frame(47, 14, 14);
  VideoOptions video;
  video.session_id = 4;
  video.seq = 1;
  server.submit_video(key, frame, video).future.get();
  NetworkRegistry swapped;
  swapped.add(key, net);
  server.begin_drain();
  server.reload_routes(swapped);
  server.resume();
  video.seq = 2;
  AdmitResult after = server.submit_video(key, frame, video);
  EXPECT_FALSE(after.delta);  // the session table was cleared with the routes
  ASSERT_EQ(max_abs_diff(after.future.get(), server.submit(key, frame).get()), 0.0F);
  server.shutdown();
}

// LRU eviction under a tiny session budget: an evicted session falls back to
// the full path (correct, just slower) and the eviction is counted.
TEST(VideoSession, EvictionDropsLeastRecentSession) {
  const core::SesrInference net = make_inference(511, small_config());
  const RouteKey key{"m", 2, core::InferencePrecision::kFp32};
  NetworkRegistry registry;
  registry.add(key, net);
  ServeOptions options = video_serve_options(ExecMode::kTiled);
  options.video_sessions = 1;
  ShardedServer server(registry, options);
  const Tensor frame = make_frame(53, 12, 12);
  VideoOptions a{10, 1};
  server.submit_video(key, frame, a).future.get();
  VideoOptions b{11, 1};
  server.submit_video(key, frame, b).future.get();  // evicts session 10
  a.seq = 2;
  EXPECT_FALSE(server.submit_video(key, frame, a).future.get().numel() == 0);
  const ShardedStats mid = server.stats();
  EXPECT_GE(mid.video.evictions, 1U);
  b.seq = 2;
  // Session 11 was itself evicted by session 10's seq-2 re-prime.
  AdmitResult b2 = server.submit_video(key, frame, b);
  EXPECT_FALSE(b2.delta);
  b2.future.get();
  server.shutdown();
}

// video_sessions = 0 disables the table entirely: every frame takes the full
// path, results stay correct, nothing is published.
TEST(VideoSession, DisabledTableServesFullPath) {
  const core::SesrInference net = make_inference(513, small_config());
  const RouteKey key{"m", 2, core::InferencePrecision::kFp32};
  NetworkRegistry registry;
  registry.add(key, net);
  ServeOptions options = video_serve_options(ExecMode::kTiled);
  options.video_sessions = 0;
  ShardedServer server(registry, options);
  const Tensor frame = make_frame(59, 14, 14);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    VideoOptions video{7, seq};
    AdmitResult admitted = server.submit_video(key, frame, video);
    EXPECT_FALSE(admitted.delta);
    ASSERT_EQ(max_abs_diff(admitted.future.get(), server.submit(key, frame).get()), 0.0F);
  }
  server.shutdown();
  EXPECT_EQ(server.stats().video.publishes, 0U);
  EXPECT_EQ(server.stats().video.sessions, 0U);
}

// Multi-session interleaved stress: several closed-loop producers, each its
// own session, mode x precision x pattern rotating per seed, every frame held
// to bitwise equality with the single-threaded same-mode reference and every
// post-first frame required to take the delta path (closed-loop submission
// guarantees the predecessor is published before the next lookup).
void run_video_session_stress_iteration(std::uint64_t seed) {
  const ExecMode modes[] = {ExecMode::kFullFrame, ExecMode::kTiled, ExecMode::kAuto};
  const ExecMode mode = modes[seed % 3];
  core::SesrInference net = make_inference(9000 + seed, small_config());
  Rng calib_rng(seed ^ 0x51DE0ULL);
  std::vector<Tensor> calib;
  for (int i = 0; i < 2; ++i) {
    Tensor frame(1, 16, 16, 1);
    frame.fill_uniform(calib_rng, 0.0F, 1.0F);
    calib.push_back(std::move(frame));
  }
  net.calibrate_int8(calib);
  std::vector<core::LayerPrecision> plan(net.convolutions().size(),
                                         core::LayerPrecision::kFp16);
  for (std::size_t i = 0; i < plan.size(); i += 2) plan[i] = core::LayerPrecision::kInt8;
  net.set_hybrid_plan(std::move(plan));

  const RouteKey routes[] = {{"m", 2, core::InferencePrecision::kFp32},
                             {"m", 2, core::InferencePrecision::kFp16},
                             {"m", 2, core::InferencePrecision::kInt8},
                             {"m", 2, core::InferencePrecision::kHybrid}};
  NetworkRegistry registry;
  for (const RouteKey& route : routes) registry.add(route, net);

  ServeOptions options;
  options.workers = 1 + static_cast<int>(seed % 3);
  options.mode = mode;
  options.tiling.tile_h = 6;
  options.tiling.tile_w = 7;
  options.tiled_threshold_pixels = 12 * 12;
  options.cache_entries = 0;
  options.video_sessions = 8;

  const data::VideoPattern patterns[] = {data::VideoPattern::kStatic, data::VideoPattern::kPan,
                                         data::VideoPattern::kCut, data::VideoPattern::kSparkle,
                                         data::VideoPattern::kMixed};
  constexpr int kSessions = 3;
  constexpr int kFrames = 5;

  ShardedServer server(registry, options);
  std::vector<std::vector<Tensor>> sequences(kSessions);
  std::vector<std::vector<Tensor>> outputs(kSessions);
  std::vector<int> route_of(kSessions);
  std::vector<std::uint64_t> delta_frames(kSessions, 0);
  for (int s = 0; s < kSessions; ++s) {
    Rng rng(seed * 131 + static_cast<std::uint64_t>(s));
    data::VideoSequenceOptions vopts;
    vopts.pattern = patterns[rng.uniform_int(0, 4)];
    vopts.frames = kFrames;
    vopts.h = 16;
    vopts.w = 16 + 2 * s;  // distinct shapes across sessions
    sequences[static_cast<std::size_t>(s)] =
        data::synthesize_video(vopts, seed * 977 + static_cast<std::uint64_t>(s));
    route_of[static_cast<std::size_t>(s)] = static_cast<int>(rng.uniform_int(0, 3));
    outputs[static_cast<std::size_t>(s)].resize(kFrames);
  }
  std::vector<std::thread> producers;
  for (int s = 0; s < kSessions; ++s) {
    producers.emplace_back([&, s] {
      const auto& frames = sequences[static_cast<std::size_t>(s)];
      for (int i = 0; i < kFrames; ++i) {
        VideoOptions video;
        video.session_id = 100 + static_cast<std::uint64_t>(s);
        video.seq = static_cast<std::uint64_t>(i) + 1;
        AdmitResult admitted = server.submit_video(
            routes[route_of[static_cast<std::size_t>(s)]],
            frames[static_cast<std::size_t>(i)], video);
        if (admitted.delta) ++delta_frames[static_cast<std::size_t>(s)];
        // Closed loop: the publish lands before get() returns, so the next
        // frame's lookup must hit.
        outputs[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)] =
            admitted.future.get();
      }
    });
  }
  for (auto& p : producers) p.join();
  server.shutdown();

  auto reference = [&](core::InferencePrecision prec, const Tensor& frame) -> Tensor {
    net.set_precision(prec);
    ExecMode resolved = mode;
    if (resolved == ExecMode::kAuto) {
      resolved = frame.shape().h() * frame.shape().w() >= options.tiled_threshold_pixels
                     ? ExecMode::kTiled
                     : ExecMode::kFullFrame;
    }
    if (resolved == ExecMode::kTiled) return core::upscale_tiled(net, frame, options.tiling);
    return net.upscale(frame);
  };
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(delta_frames[static_cast<std::size_t>(s)],
              static_cast<std::uint64_t>(kFrames - 1))
        << "seed=" << seed << " session=" << s;
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_EQ(max_abs_diff(outputs[static_cast<std::size_t>(s)][static_cast<std::size_t>(i)],
                             reference(routes[route_of[static_cast<std::size_t>(s)]].precision,
                                       sequences[static_cast<std::size_t>(s)]
                                                [static_cast<std::size_t>(i)])),
                0.0F)
          << "seed=" << seed << " session=" << s << " frame=" << i
          << " mode=" << static_cast<int>(mode);
    }
  }
  const ShardedStats stats = server.stats();
  ASSERT_EQ(stats.total.failed, 0U) << "seed=" << seed;
  ASSERT_EQ(stats.total.video_frames, static_cast<std::uint64_t>(kSessions * kFrames))
      << "seed=" << seed;
}

TEST(VideoSessionStress, InterleavedSessionsBitIdentical) {
  const int iterations = stress_iterations();
  for (int i = 0; i < iterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    run_video_session_stress_iteration(static_cast<std::uint64_t>(i));
    if (HasFatalFailure()) return;
  }
}

// ------------------------------------------------ steady-clock deadline math

TEST(ServeClock, SaturatingDeadlineClampsOverflowAndNegativeDelay) {
  const auto t0 = ServeClock::now();
  EXPECT_EQ(saturating_deadline(t0, std::chrono::microseconds(-5)), t0);
  EXPECT_EQ(saturating_deadline(t0, std::chrono::microseconds(0)), t0);
  EXPECT_EQ(saturating_deadline(t0, std::chrono::microseconds(1000)),
            t0 + std::chrono::microseconds(1000));
  // INT64_MAX microseconds would wrap `t0 + delay` into the past; a deadline
  // would then expire instantly. Must clamp to max() instead.
  EXPECT_EQ(saturating_deadline(t0, std::chrono::microseconds::max()),
            ServeClock::time_point::max());
  EXPECT_EQ(saturating_deadline(ServeClock::time_point::max(), std::chrono::microseconds(1)),
            ServeClock::time_point::max());
}

// next_wait is the pure decision kernel of every timed wait in src/serve.
// Drive it with a simulated jumping clock: whatever `now` sequence a broken
// wall clock produces, the wait must stay in [0, deadline - now] and hit
// exactly zero once the deadline passes.
TEST(ServeClock, NextWaitSurvivesSimulatedClockJumps) {
  const auto t0 = ServeClock::time_point(std::chrono::microseconds(1'000'000));
  const auto deadline = t0 + std::chrono::microseconds(5000);
  // Jump sequence: normal tick, backwards step (suspend/NTP on a wrongly
  // wall-pinned clock), huge forward leap, then exactly-at and past-deadline.
  const std::int64_t nows_us[] = {1'000'000, 1'000'100, 999'000, 1'004'999,
                                  1'005'000, 2'000'000};
  const std::int64_t want_us[] = {5000, 4900, 6000, 1, 0, 0};
  for (std::size_t i = 0; i < std::size(nows_us); ++i) {
    const auto now = ServeClock::time_point(std::chrono::microseconds(nows_us[i]));
    EXPECT_EQ(next_wait(now, deadline).count(), want_us[i]) << "step " << i;
    EXPECT_GE(next_wait(now, deadline).count(), 0) << "step " << i;
    EXPECT_EQ(remaining_budget_us(now, deadline), want_us[i]) << "step " << i;
  }
}

// --------------------------------------------------- admission controller

NetworkRegistry two_precision_registry(std::uint64_t seed) {
  const core::SesrInference inference = make_inference(seed, small_config());
  NetworkRegistry registry;
  registry.add(RouteKey{"a", 2, core::InferencePrecision::kFp32}, inference);
  registry.add(RouteKey{"a", 2, core::InferencePrecision::kFp16}, inference);
  return registry;
}

TEST(Admission, UnwarmedRouteAdmitsOptimistically) {
  const NetworkRegistry registry = two_precision_registry(70);
  SloOptions slo;
  slo.p99_budget_us = 100;
  AdmissionController ctrl(registry.entries(), slo, /*workers=*/1);
  const auto idle = [](std::size_t) -> std::int64_t { return 0; };
  // No samples at all: the estimator has nothing to shed on.
  EXPECT_EQ(ctrl.admit(0, 0, idle).action, AdmissionController::Action::kAdmit);
  EXPECT_EQ(ctrl.ewma_us(0), 0.0);
  // Three samples far over budget are still warmup; the fourth warms it.
  for (int i = 0; i < 3; ++i) ctrl.record(0, 10'000);
  EXPECT_EQ(ctrl.admit(0, 0, idle).action, AdmissionController::Action::kAdmit);
  ctrl.record(0, 10'000);
  EXPECT_NE(ctrl.admit(0, 0, idle).action, AdmissionController::Action::kAdmit);
}

TEST(Admission, EwmaSeedsOnFirstSampleThenBlends) {
  const NetworkRegistry registry = two_precision_registry(71);
  AdmissionController ctrl(registry.entries(), SloOptions{}, 1);
  ctrl.record(0, 100);
  EXPECT_EQ(ctrl.ewma_us(0), 100.0);  // first sample seeds, no decay from 0
  ctrl.record(0, 200);
  EXPECT_DOUBLE_EQ(ctrl.ewma_us(0), 120.0);  // 100 + 0.2 * (200 - 100)
  EXPECT_EQ(ctrl.samples(0), 2U);
  EXPECT_EQ(ctrl.ewma_us(1), 0.0);  // the other route is untouched
}

TEST(Admission, DegradesToCheaperPrecisionThenSheds) {
  const NetworkRegistry registry = two_precision_registry(72);
  SloOptions slo;
  slo.p99_budget_us = 100;
  AdmissionController ctrl(registry.entries(), slo, 1);
  const auto idle = [](std::size_t) -> std::int64_t { return 0; };
  const auto warm = [&](std::size_t route, std::int64_t us) {
    for (int i = 0; i < 4; ++i) ctrl.record(route, us);
  };
  // fp32 warmed far over budget, fp16 cold: degrade to the fp16 shard.
  warm(0, 10'000);
  auto decision = ctrl.admit(0, 0, idle);
  EXPECT_EQ(decision.action, AdmissionController::Action::kDegrade);
  EXPECT_EQ(decision.route, 1U);
  // fp16 warmed over budget too: nothing fits, shed with the estimates.
  warm(1, 10'000);
  decision = ctrl.admit(0, 0, idle);
  EXPECT_EQ(decision.action, AdmissionController::Action::kShed);
  EXPECT_GT(decision.estimate_us, decision.budget_us);
  // Queue depth scales the estimate: a warmed route under budget when idle
  // goes over once enough requests are in the system.
  ctrl.record(0, 60);  // pull fp32's ewma back toward the budget
  while (ctrl.ewma_us(0) > 90.0) ctrl.record(0, 60);
  EXPECT_EQ(ctrl.admit(0, 0, idle).action, AdmissionController::Action::kAdmit);
  const auto deep = [](std::size_t) -> std::int64_t { return 50; };
  EXPECT_NE(ctrl.admit(0, 0, deep).action, AdmissionController::Action::kAdmit);
}

TEST(Admission, DegradeDisabledShedsAtRungZero) {
  const NetworkRegistry registry = two_precision_registry(73);
  SloOptions slo;
  slo.p99_budget_us = 10;
  slo.allow_degrade = false;
  AdmissionController ctrl(registry.entries(), slo, 1);
  for (int i = 0; i < 4; ++i) ctrl.record(0, 10'000);
  const auto idle = [](std::size_t) -> std::int64_t { return 0; };
  // The cold fp16 rung would admit optimistically, but with degrade off the
  // ladder stops at the requested route: over budget sheds there.
  const auto decision = ctrl.admit(0, 0, idle);
  EXPECT_EQ(decision.action, AdmissionController::Action::kShed);
  EXPECT_EQ(decision.route, 0U);
  EXPECT_GT(decision.estimate_us, decision.budget_us);
}

TEST(Admission, X4FallsBackToTwoStageX2Rung) {
  const core::SesrInference net4 = make_inference(74, [] {
    core::SesrConfig c = small_config();
    c.scale = 4;
    return c;
  }());
  const core::SesrInference net2 = make_inference(75, small_config());
  NetworkRegistry registry;
  registry.add(RouteKey{"a", 4, core::InferencePrecision::kFp32}, net4);
  registry.add(RouteKey{"a", 2, core::InferencePrecision::kFp32}, net2);
  SloOptions slo;
  slo.p99_budget_us = 1000;
  AdmissionController ctrl(registry.entries(), slo, 1);
  const auto idle = [](std::size_t) -> std::int64_t { return 0; };
  for (int i = 0; i < 4; ++i) {
    ctrl.record(0, 50'000);  // x4 hopelessly over budget
    ctrl.record(1, 100);     // x2 cheap: two-stage estimate 5 * 100 fits
  }
  const auto decision = ctrl.admit(0, 0, idle);
  EXPECT_EQ(decision.action, AdmissionController::Action::kDegradeTwoStage);
  EXPECT_EQ(decision.route, 1U);
  // And once the x2 rung is over budget / 5 as well, the x4 request sheds.
  ctrl.record(1, 50'000);
  EXPECT_EQ(ctrl.admit(0, 0, idle).action, AdmissionController::Action::kShed);
}

// ------------------------------------------- SLO admission through the server

TEST(ShardedServer, DeadlineDegradesToRegisteredFallbackAndSheds) {
  const core::SesrInference inference = make_inference(76, small_config());
  const RouteKey fp32_route{"a", 2, core::InferencePrecision::kFp32};
  const RouteKey fp16_route{"a", 2, core::InferencePrecision::kFp16};
  NetworkRegistry registry;
  registry.add(fp32_route, inference);
  registry.add(fp16_route, inference);
  ServeOptions options;
  options.workers = 1;
  ShardedServer server(registry, options);
  const Tensor frame = make_frame(93, 32, 32);

  // Warm fp32 (four observations): no deadline, no SLO budget -> always
  // admitted unchanged.
  for (int i = 0; i < 4; ++i) {
    AdmitResult r = server.submit_admitted(fp32_route, frame);
    r.future.get();
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.served_route, "a:2:fp32");
  }
  ASSERT_GT(server.admission().ewma_us(0), 0.0);

  // 1us deadline: fp32's warmed estimate cannot fit, fp16 is cold and admits
  // optimistically -> the request is rewritten to the registered fallback and
  // still served (degradation is not an error).
  SubmitOptions tight;
  tight.deadline_us = 1;
  AdmitResult degraded = server.submit_admitted(fp32_route, frame, tight);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_FALSE(degraded.shed);
  EXPECT_EQ(degraded.served_route, "a:2:fp16");
  core::SesrInference fp16_ref = make_inference(76, small_config());
  fp16_ref.set_precision(core::InferencePrecision::kFp16);
  EXPECT_EQ(max_abs_diff(degraded.future.get(), fp16_ref.upscale(frame)), 0.0F);

  // Three more fp16 completions warm it; now no rung fits 1us -> typed shed.
  for (int i = 0; i < 3; ++i) server.submit_admitted(fp16_route, frame).future.get();
  ASSERT_EQ(server.admission().samples(1), 4U);
  AdmitResult shed = server.submit_admitted(fp32_route, frame, tight);
  EXPECT_TRUE(shed.shed);
  EXPECT_THROW(shed.future.get(), ShedError);
  server.shutdown();
  const ShardedStats stats = server.stats();
  EXPECT_EQ(stats.total.shed, 1U);
  EXPECT_EQ(stats.total.degraded, 1U);
  EXPECT_GT(stats.per_route[0].service_ewma_us, 0.0);
}

TEST(ShardedServer, X4DegradesToTwoStageX2BitIdentical) {
  core::SesrConfig config4 = small_config();
  config4.scale = 4;
  const core::SesrInference net4 = make_inference(77, config4);
  const core::SesrInference net2 = make_inference(78, small_config());
  const RouteKey route4{"a", 4, core::InferencePrecision::kFp32};
  const RouteKey route2{"a", 2, core::InferencePrecision::kFp32};
  NetworkRegistry registry;
  registry.add(route4, net4);
  registry.add(route2, net2);
  ServeOptions options;
  options.workers = 2;
  ShardedServer server(registry, options);
  const Tensor frame = make_frame(94, 12, 12);

  // Warm the x4 route (four observations) so its estimate exists; leave x2
  // cold so the two-stage rung admits optimistically.
  for (int i = 0; i < 4; ++i) server.submit_admitted(route4, frame).future.get();
  SubmitOptions tight;
  tight.deadline_us = 1;
  AdmitResult result = server.submit_admitted(route4, frame, tight);
  EXPECT_TRUE(result.two_stage);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.served_route, "a:2:fp32");
  // x4 served as x2 applied twice must be bit-identical to chaining the x2
  // reference network by hand.
  const Tensor want = net2.upscale(net2.upscale(frame));
  const Tensor got = result.future.get();
  EXPECT_EQ(got.shape(), want.shape());  // x2 twice really lands at x4
  EXPECT_EQ(max_abs_diff(got, want), 0.0F);
  server.shutdown();
  EXPECT_EQ(server.stats().total.two_stage, 1U);
  EXPECT_EQ(server.stats().total.failed, 0U);
}

// A replica's arena grows on demand to exactly the largest unit it has run.
// A frame just below the kAuto tiling threshold leaves the route's peak at
// that frame's plan peak; a large frame, which kAuto fans into haloed tiles,
// leaves it at the larger of that frame and one full haloed tile.
TEST(ShardedServer, ReplicaArenaGrowsToTheLargestUnitRun) {
  const core::SesrInference inference = make_inference(78, small_config());
  const RouteKey route{"a", 2, core::InferencePrecision::kFp32};
  NetworkRegistry registry;
  registry.add(route, inference);
  const std::int64_t halo = registry.find(route).exact_halo;
  const auto peak = [&](std::int64_t h, std::int64_t w) {
    return static_cast<std::uint64_t>(
        core::plan::ExecutionPlan::compile(inference, h, w).peak_activation_bytes());
  };
  constexpr std::int64_t kTile = 8;
  const std::int64_t haloed = kTile + 2 * halo;
  // First the frame bound dominates (24x24 > one haloed 8x8 tile), then the
  // tile bound does (8x8 threshold).
  for (const std::int64_t side : {24, 8}) {
    SCOPED_TRACE("threshold " + std::to_string(side) + "x" + std::to_string(side));
    ServeOptions options;
    options.workers = 2;
    options.mode = ExecMode::kAuto;
    options.tiling.tile_h = kTile;
    options.tiling.tile_w = kTile;
    options.tiled_threshold_pixels = side * side;
    const Tensor small = make_frame(99, side - 1, side + 1);  // one pixel below the threshold
    const Tensor large = make_frame(100, 5 * side, 4 * side + 3);
    // shutdown() joins the workers, so each unit's arena bookkeeping is
    // recorded before the stats are read.
    {
      ShardedServer server(registry, options);
      EXPECT_EQ(max_abs_diff(server.submit(route, small).get(), inference.upscale(small)), 0.0F);
      server.shutdown();
      EXPECT_EQ(server.stats().per_route[0].peak_activation_bytes,
                peak(small.shape().h(), small.shape().w()));
    }
    {
      ShardedServer server(registry, options);
      EXPECT_EQ(max_abs_diff(server.submit(route, small).get(), inference.upscale(small)), 0.0F);
      EXPECT_EQ(max_abs_diff(server.submit(route, large).get(), inference.upscale(large)), 0.0F);
      server.shutdown();
      EXPECT_GT(server.stats().total.tiles, 1U);  // kAuto fanned the large frame into tiles
      EXPECT_EQ(server.stats().per_route[0].peak_activation_bytes,
                std::max(peak(small.shape().h(), small.shape().w()), peak(haloed, haloed)));
    }
  }
}

// ------------------------------------------------- drain / reload lifecycle

// Satellite regression for the mid-fan-out shutdown race: a large tiled frame
// is fanned out across the dispatch queue while every worker is held on a
// latch, and shutdown() lands in the middle. An early version closed the
// dispatch queue under the fan-out's feet; the push failed and the request's
// promise was silently abandoned (future.get() -> broken_promise). Now
// shutdown drains: the future must resolve with the bit-exact tiled result.
TEST(ShardedServer, ShutdownMidTileFanoutCompletesTheRequest) {
  const core::SesrInference inference = make_inference(79, small_config());
  const RouteKey route{"a", 2, core::InferencePrecision::kFp32};
  NetworkRegistry registry;
  registry.add(route, inference);
  std::atomic<bool> hold{true};
  ServeOptions options;
  options.workers = 2;
  options.mode = ExecMode::kTiled;
  options.tiling.tile_h = 8;
  options.tiling.tile_w = 8;
  options.worker_hook = [&] {
    while (hold.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ShardedServer server(registry, options);
  const Tensor frame = make_frame(95, 48, 56);  // 6 * 7 = 42 tiles
  std::future<Tensor> future = server.submit(route, frame);
  // submit() fans the frame out before it returns, so shutdown() lands with
  // tile units queued behind latched workers — the exact shape of the old
  // race.
  ASSERT_EQ(server.stats().total.batches, 1U);
  std::thread closer([&] { server.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  hold.store(false, std::memory_order_release);
  closer.join();
  EXPECT_EQ(max_abs_diff(future.get(), core::upscale_tiled(inference, frame, options.tiling)),
            0.0F);
  const ShardedStats stats = server.stats();
  EXPECT_EQ(stats.total.completed, 1U);
  EXPECT_EQ(stats.total.failed, 0U);
}

TEST(ShardedServer, DrainRejectsTypedAndResumeReopens) {
  const core::SesrInference inference = make_inference(80, small_config());
  const RouteKey route{"a", 2, core::InferencePrecision::kFp32};
  ShardedServer server(one_route(inference, route), ServeOptions{});
  const Tensor frame = make_frame(96, 10, 10);
  EXPECT_EQ(max_abs_diff(server.submit(route, frame).get(), inference.upscale(frame)), 0.0F);
  server.begin_drain();
  EXPECT_TRUE(server.draining());
  // Typed rejection, and ServerDrainingError is catchable as ServerClosedError
  // (clients treating both as "go away" keep working).
  try {
    server.submit(route, frame).get();
    FAIL() << "draining server accepted a request";
  } catch (const ServerDrainingError&) {
  }
  EXPECT_THROW(server.submit(route, frame).get(), ServerClosedError);
  server.resume();
  EXPECT_FALSE(server.draining());
  EXPECT_EQ(max_abs_diff(server.submit(route, frame).get(), inference.upscale(frame)), 0.0F);
  server.shutdown();
  EXPECT_THROW(server.resume(), std::logic_error);
}

TEST(ShardedServer, ReloadRoutesRequiresDrainAndMatchingRouteSet) {
  const core::SesrInference net_a = make_inference(81, small_config());
  const RouteKey route{"a", 2, core::InferencePrecision::kFp32};
  NetworkRegistry registry;
  registry.add(route, net_a);
  ShardedServer server(registry, ServeOptions{});
  // Not draining: reload must refuse.
  EXPECT_THROW(server.reload_routes(registry), std::logic_error);
  server.begin_drain();
  // Route set mismatch: refuse too.
  const core::SesrInference net_b = make_inference(82, small_config());
  NetworkRegistry wrong;
  wrong.add(RouteKey{"b", 2, core::InferencePrecision::kFp32}, net_b);
  EXPECT_THROW(server.reload_routes(wrong), std::invalid_argument);
  server.resume();
  server.shutdown();
}

// Satellite 3: checkpoint swap + route reload under live traffic. Producers
// hammer the server while the main thread drains, swaps checkpoints, and
// resumes. Every accepted request must complete bit-identically to the
// checkpoint that was live when it was admitted — zero lost futures across
// the swap boundary — and requests refused during the drain must fail with
// the typed drain error, nothing else.
TEST(ShardedServer, DrainSwapResumeUnderLiveTrafficLosesNothing) {
  const core::SesrInference net_old = make_inference(83, small_config());
  const core::SesrInference net_new = make_inference(84, small_config());
  const RouteKey route{"a", 2, core::InferencePrecision::kFp32};
  NetworkRegistry registry_old;
  registry_old.add(route, net_old);
  NetworkRegistry registry_new;
  registry_new.add(route, net_new);

  ServeOptions options;
  options.workers = 2;
  options.cache_entries = 8;  // reload must also invalidate cached outputs
  ShardedServer server(registry_old, options);

  constexpr int kProducers = 4;
  const Tensor frame = make_frame(97, 12, 12);
  const Tensor want_old = net_old.upscale(frame);
  const Tensor want_new = net_new.upscale(frame);
  ASSERT_GT(max_abs_diff(want_old, want_new), 0.0F);  // the swap is observable

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> drained_rejects{0};
  std::atomic<std::uint64_t> lost{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::future<Tensor> f = server.submit(route, frame);
        try {
          // Anything accepted before (or during) the drain ran on the OLD
          // checkpoint: begin_drain() waits for all of it before reload.
          const Tensor got = f.get();
          accepted.fetch_add(1);
          if (max_abs_diff(got, want_old) != 0.0F) lost.fetch_add(1);
        } catch (const ServerDrainingError&) {
          drained_rejects.fetch_add(1);
        } catch (...) {
          lost.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  // Let traffic build, then swap checkpoints mid-flight.
  while (accepted.load() < 8) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.begin_drain();  // returns only after every accepted future resolved
  server.reload_routes(registry_new);
  stop.store(true, std::memory_order_release);  // producers may still see draining
  server.resume();
  for (auto& p : producers) p.join();

  EXPECT_EQ(lost.load(), 0U) << "accepted requests lost or served the wrong checkpoint";
  EXPECT_GE(accepted.load(), 8U);
  // Post-swap: same frame, new weights — and the pre-swap cache entry for
  // this exact frame must NOT resurface the old output.
  EXPECT_EQ(max_abs_diff(server.submit(route, frame).get(), want_new), 0.0F);
  server.shutdown();
  EXPECT_EQ(server.stats().total.failed, 0U);
}

}  // namespace
}  // namespace sesr::serve
