// Unit tests for the tensor substrate: Shape, Tensor, elementwise/structural
// ops, RNG determinism and binary serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace sesr {
namespace {

TEST(Shape, NumelAndAccessors) {
  Shape s(2, 3, 4, 5);
  EXPECT_EQ(s.n(), 2);
  EXPECT_EQ(s.h(), 3);
  EXPECT_EQ(s.w(), 4);
  EXPECT_EQ(s.c(), 5);
  EXPECT_EQ(s.numel(), 120);
}

TEST(Shape, OffsetIsRowMajorNhwc) {
  Shape s(2, 3, 4, 5);
  EXPECT_EQ(s.offset(0, 0, 0, 0), 0);
  EXPECT_EQ(s.offset(0, 0, 0, 1), 1);
  EXPECT_EQ(s.offset(0, 0, 1, 0), 5);
  EXPECT_EQ(s.offset(0, 1, 0, 0), 20);
  EXPECT_EQ(s.offset(1, 0, 0, 0), 60);
  EXPECT_EQ(s.offset(1, 2, 3, 4), 119);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape(1, 2, 3, 4), Shape(1, 2, 3, 4));
  EXPECT_NE(Shape(1, 2, 3, 4), Shape(1, 2, 4, 3));
}

TEST(Shape, ValidRejectsNonPositive) {
  EXPECT_TRUE(Shape(1, 1, 1, 1).valid());
  EXPECT_FALSE(Shape(0, 1, 1, 1).valid());
  EXPECT_FALSE(Shape(1, -1, 1, 1).valid());
}

TEST(Shape, NumelOverflowThrows) {
  Shape s(1LL << 31, 1LL << 31, 2, 1);
  EXPECT_THROW(s.numel(), std::overflow_error);
}

TEST(Shape, ToStringFormat) { EXPECT_EQ(Shape(1, 2, 3, 4).to_string(), "[1, 2, 3, 4]"); }

TEST(Tensor, ConstructsZeroFilled) {
  Tensor t(2, 3, 3, 1);
  EXPECT_EQ(t.numel(), 18);
  for (float v : t.data()) EXPECT_EQ(v, 0.0F);
}

TEST(Tensor, InvalidShapeThrows) {
  EXPECT_THROW(Tensor(Shape(0, 1, 1, 1)), std::invalid_argument);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor(Shape(1, 1, 1, 2), std::vector<float>{1.0F}), std::invalid_argument);
}

TEST(Tensor, ElementAccessRoundTrip) {
  Tensor t(1, 2, 2, 2);
  t(0, 1, 0, 1) = 7.5F;
  EXPECT_EQ(t(0, 1, 0, 1), 7.5F);
  EXPECT_EQ(t.at(0, 1, 0, 1), 7.5F);
}

TEST(Tensor, AtThrowsOutOfRange) {
  Tensor t(1, 2, 2, 2);
  EXPECT_THROW(t.at(0, 2, 0, 0), std::out_of_range);
  EXPECT_THROW(t.at(-1, 0, 0, 0), std::out_of_range);
  EXPECT_THROW(t.at(0, 0, 0, 2), std::out_of_range);
}

TEST(Tensor, FillAndZero) {
  Tensor t(1, 2, 2, 1);
  t.fill(3.0F);
  for (float v : t.data()) EXPECT_EQ(v, 3.0F);
  t.zero();
  for (float v : t.data()) EXPECT_EQ(v, 0.0F);
}

TEST(Tensor, ReshapedPreservesData) {
  Tensor t(1, 2, 2, 1);
  t(0, 0, 0, 0) = 1.0F;
  t(0, 1, 1, 0) = 4.0F;
  Tensor r = t.reshaped(Shape(1, 1, 4, 1));
  EXPECT_EQ(r(0, 0, 0, 0), 1.0F);
  EXPECT_EQ(r(0, 0, 3, 0), 4.0F);
  EXPECT_THROW(t.reshaped(Shape(1, 1, 5, 1)), std::invalid_argument);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ForkDecouplesStreams) {
  Rng a(42);
  Rng fork = a.fork();
  const float after_fork = a.uniform();
  Rng c(42);
  (void)c.fork();
  EXPECT_EQ(after_fork, c.uniform());  // fork consumes exactly one draw
  (void)fork;
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal(1.0F, 2.0F);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(TensorOps, AddSubScale) {
  Tensor a(1, 1, 2, 1);
  Tensor b(1, 1, 2, 1);
  a(0, 0, 0, 0) = 1.0F;
  a(0, 0, 1, 0) = 2.0F;
  b(0, 0, 0, 0) = 10.0F;
  b(0, 0, 1, 0) = 20.0F;
  Tensor c = add(a, b);
  EXPECT_EQ(c(0, 0, 0, 0), 11.0F);
  Tensor d = sub(b, a);
  EXPECT_EQ(d(0, 0, 1, 0), 18.0F);
  Tensor e = scale(a, 3.0F);
  EXPECT_EQ(e(0, 0, 1, 0), 6.0F);
  add_inplace(a, b);
  EXPECT_EQ(a(0, 0, 0, 0), 11.0F);
  axpy_inplace(a, b, -1.0F);
  EXPECT_EQ(a(0, 0, 0, 0), 1.0F);
}

TEST(TensorOps, ShapeMismatchThrows) {
  Tensor a(1, 1, 2, 1);
  Tensor b(1, 2, 1, 1);
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(max_abs_diff(a, b), std::invalid_argument);
}

TEST(TensorOps, Reductions) {
  Tensor a(1, 1, 4, 1);
  a(0, 0, 0, 0) = -3.0F;
  a(0, 0, 1, 0) = 4.0F;
  EXPECT_FLOAT_EQ(sum(a), 1.0F);
  EXPECT_FLOAT_EQ(mean(a), 0.25F);
  EXPECT_FLOAT_EQ(max_abs(a), 4.0F);
  EXPECT_FLOAT_EQ(l2_norm(a), 5.0F);
}

TEST(TensorOps, PadSpatial) {
  Tensor a(1, 2, 2, 1);
  a.fill(1.0F);
  Tensor p = pad_spatial(a, 1, 2, 3, 0);
  EXPECT_EQ(p.shape(), Shape(1, 5, 5, 1));
  EXPECT_EQ(p(0, 0, 3, 0), 0.0F);
  EXPECT_EQ(p(0, 1, 3, 0), 1.0F);
  EXPECT_EQ(p(0, 2, 4, 0), 1.0F);
  EXPECT_EQ(p(0, 3, 3, 0), 0.0F);
  EXPECT_THROW(pad_spatial(a, -1, 0, 0, 0), std::invalid_argument);
}

TEST(TensorOps, CropSpatial) {
  Tensor a(1, 4, 4, 1);
  a(0, 1, 2, 0) = 5.0F;
  Tensor c = crop_spatial(a, 1, 2, 2, 2);
  EXPECT_EQ(c.shape(), Shape(1, 2, 2, 1));
  EXPECT_EQ(c(0, 0, 0, 0), 5.0F);
  EXPECT_THROW(crop_spatial(a, 3, 3, 2, 2), std::invalid_argument);
}

TEST(TensorOps, CropIsInverseOfPad) {
  Rng rng(3);
  Tensor a(2, 3, 4, 2);
  a.fill_uniform(rng, -1.0F, 1.0F);
  Tensor padded = pad_spatial(a, 2, 1, 1, 2);
  Tensor back = crop_spatial(padded, 2, 1, 3, 4);
  EXPECT_EQ(max_abs_diff(a, back), 0.0F);
}

TEST(TensorOps, ReverseSpatialInvolution) {
  Rng rng(5);
  Tensor a(1, 3, 5, 2);
  a.fill_uniform(rng, -1.0F, 1.0F);
  Tensor twice = reverse_spatial(reverse_spatial(a));
  EXPECT_EQ(max_abs_diff(a, twice), 0.0F);
  Tensor r = reverse_spatial(a);
  EXPECT_EQ(r(0, 0, 0, 0), a(0, 2, 4, 0));
  EXPECT_EQ(r(0, 2, 4, 1), a(0, 0, 0, 1));
}

TEST(TensorOps, TransposePermutes) {
  Tensor a(2, 3, 4, 5);
  Rng rng(9);
  a.fill_uniform(rng, -1.0F, 1.0F);
  Tensor t = transpose(a, {1, 2, 0, 3});
  EXPECT_EQ(t.shape(), Shape(3, 4, 2, 5));
  EXPECT_EQ(t(1, 2, 0, 3), a(0, 1, 2, 3));
  // The inverse permutation restores the original.
  Tensor back = transpose(t, {2, 0, 1, 3});
  EXPECT_EQ(max_abs_diff(a, back), 0.0F);
}

TEST(TensorOps, TransposeRejectsBadPerm) {
  Tensor a(1, 1, 1, 1);
  EXPECT_THROW(transpose(a, {0, 0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(transpose(a, {0, 1, 2, 4}), std::invalid_argument);
}

TEST(TensorOps, ConcatChannels) {
  Tensor a(1, 2, 2, 1);
  Tensor b(1, 2, 2, 2);
  a.fill(1.0F);
  b.fill(2.0F);
  Tensor c = concat_channels(a, b);
  EXPECT_EQ(c.shape(), Shape(1, 2, 2, 3));
  EXPECT_EQ(c(0, 1, 1, 0), 1.0F);
  EXPECT_EQ(c(0, 1, 1, 2), 2.0F);
  Tensor bad(1, 3, 2, 1);
  EXPECT_THROW(concat_channels(a, bad), std::invalid_argument);
}

TEST(TensorOps, BatchSliceAndSet) {
  Tensor batch(3, 2, 2, 1);
  Tensor img(1, 2, 2, 1);
  img.fill(4.0F);
  set_batch(batch, 2, img);
  Tensor out = slice_batch(batch, 2);
  EXPECT_EQ(max_abs_diff(out, img), 0.0F);
  Tensor zero = slice_batch(batch, 0);
  EXPECT_EQ(max_abs(zero), 0.0F);
  EXPECT_THROW(slice_batch(batch, 3), std::out_of_range);
  EXPECT_THROW(set_batch(batch, -1, img), std::out_of_range);
}

TEST(ThreadPool, InlineModeRunsEveryIndex) {
  ThreadPool pool(1);  // inline
  EXPECT_EQ(pool.worker_count(), 0U);
  std::vector<int> hits(10, 0);
  pool.parallel_for(0, 10, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, WorkersRunEveryIndexExactlyOnce) {
  // Pool size counts the participating caller, so size 3 = 2 workers.
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 2U);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 8,
                                 [](std::int64_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(0, 4, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, ReentrantCallsRunInline) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, 4, [&](std::int64_t) {
    pool.parallel_for(0, 3, [&](std::int64_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 12);
}

// Pool size the global pool should have picked: SESR_NUM_THREADS wins when
// set; otherwise hardware_concurrency() (<= 1 means inline, zero workers).
unsigned expected_global_threads() {
  if (const char* env = std::getenv("SESR_NUM_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    return n > 0 ? static_cast<unsigned>(n) : 1U;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1U;
}

TEST(ThreadPool, GlobalSizeFollowsEnvThenHardware) {
  // The caller is one of the compute threads, so N total = N - 1 workers.
  const unsigned expected = expected_global_threads();
  EXPECT_EQ(ThreadPool::global().worker_count(), expected <= 1 ? 0U : expected - 1);
}

TEST(ThreadPool, SetGlobalThreadsReplacesPool) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().worker_count(), 2U);
  std::atomic<int> count{0};
  ThreadPool::global().parallel_for(0, 17, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 17);
  ThreadPool::set_global_threads(expected_global_threads());
}

TEST(ThreadPool, ChunksCoverRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(103);
  std::atomic<int> calls{0};
  pool.parallel_for_chunks(0, 103, 10, [&](std::int64_t lo, std::int64_t hi) {
    EXPECT_LT(lo, hi);
    EXPECT_LE(hi - lo, 10);
    ++calls;
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  EXPECT_EQ(calls.load(), 11);  // ceil(103 / 10) — boundaries fixed by grain alone
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunkBoundariesMatchBetweenInlineAndThreaded) {
  // The deterministic-reduction contract: both pools decompose [5, 47) with
  // grain 8 into the same chunks; only the execution order may differ.
  auto collect = [](ThreadPool& pool) {
    std::mutex m;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    pool.parallel_for_chunks(5, 47, 8, [&](std::int64_t lo, std::int64_t hi) {
      std::lock_guard<std::mutex> lock(m);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  ThreadPool serial(1);
  ThreadPool threaded(4);
  EXPECT_EQ(collect(serial), collect(threaded));
}

TEST(ThreadPool, ChunkedExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_chunks(0, 40, 4,
                                        [](std::int64_t lo, std::int64_t) {
                                          if (lo == 12) throw std::runtime_error("boom");
                                        }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for_chunks(0, 8, 2, [&](std::int64_t lo, std::int64_t hi) { count += hi - lo; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ConcurrentExternalSubmittersSerialize) {
  // Two non-worker threads submitting at once must not clobber each other's
  // batch: every index of both loops runs exactly once. (Regression for the
  // check-then-install TOCTOU; run under -DSESR_SANITIZE=thread for full
  // effect.)
  ThreadPool pool(4);
  constexpr int kIters = 200;
  constexpr std::int64_t kIndices = 64;
  std::atomic<std::int64_t> total{0};
  std::vector<std::atomic<int>> hits(2 * kIndices);
  auto submitter = [&](std::int64_t base) {
    for (int it = 0; it < kIters; ++it) {
      pool.parallel_for(0, kIndices, [&](std::int64_t i) {
        ++hits[static_cast<std::size_t>(base + i)];
        ++total;
      });
    }
  };
  std::thread a(submitter, 0);
  std::thread b(submitter, kIndices);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * kIters * kIndices);
  for (const auto& h : hits) EXPECT_EQ(h.load(), kIters);
}

TEST(ThreadPool, BackToBackBatchesNeverLeakAcrossBatches) {
  // Rapid-fire tiny batches maximize the window where a worker wakes for
  // batch G after batch G+1 is installed. A stale worker must see only its
  // own (exhausted) batch — never double-run chunk 0 of the next one or
  // touch a destroyed std::function. (Regression for the stale-worker race;
  // run under -DSESR_SANITIZE=thread for full effect.)
  ThreadPool pool(4);
  for (int it = 0; it < 2000; ++it) {
    std::atomic<int> calls{0};
    pool.parallel_for_chunks(0, 8, 1, [&](std::int64_t, std::int64_t) { ++calls; });
    ASSERT_EQ(calls.load(), 8) << "iteration " << it;
  }
}

TEST(Serialize, TensorRoundTripThroughStream) {
  Rng rng(13);
  Tensor t(2, 3, 4, 5);
  t.fill_uniform(rng, -10.0F, 10.0F);
  std::stringstream ss;
  write_tensor(ss, t);
  Tensor back = read_tensor(ss);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(max_abs_diff(back, t), 0.0F);
}

TEST(Serialize, FileRoundTripMultipleTensors) {
  const std::string path = (std::filesystem::temp_directory_path() / "sesr_test.ckpt").string();
  Rng rng(17);
  TensorMap map;
  Tensor a(1, 2, 2, 1);
  a.fill_uniform(rng, 0.0F, 1.0F);
  Tensor b(3, 1, 1, 7);
  b.fill_uniform(rng, -1.0F, 0.0F);
  map.emplace("alpha", a);
  map.emplace("beta", b);
  save_tensors(path, map);
  TensorMap back = load_tensors(path);
  ASSERT_EQ(back.size(), 2U);
  EXPECT_EQ(max_abs_diff(back.at("alpha"), a), 0.0F);
  EXPECT_EQ(max_abs_diff(back.at("beta"), b), 0.0F);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_tensors("/nonexistent/path/x.ckpt"), std::runtime_error);
}

TEST(Serialize, CorruptMagicThrows) {
  const std::string path = (std::filesystem::temp_directory_path() / "sesr_bad.ckpt").string();
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOPE garbage";
  }
  EXPECT_THROW(load_tensors(path), std::runtime_error);
  std::remove(path.c_str());
}

// Writes a checkpoint header for one entry whose name length and dims are
// given raw, followed by `payload` bytes — the shapes a hostile or corrupt
// file can take.
std::string write_crafted_checkpoint(const char* file, std::uint64_t name_len,
                                     const std::array<std::int64_t, 4>& dims,
                                     std::size_t payload) {
  const std::string path = (std::filesystem::temp_directory_path() / file).string();
  std::ofstream os(path, std::ios::binary);
  const std::uint32_t version = 1;
  const std::uint64_t count = 1;
  os.write("SESR", 4);
  os.write(reinterpret_cast<const char*>(&version), sizeof(version));
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  os.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  os.write("w", 1);
  os.write(reinterpret_cast<const char*>(dims.data()), sizeof(dims));
  const std::string zeros(payload, '\0');
  os.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  return path;
}

TEST(Serialize, NameLengthPastEndOfFileThrowsBeforeAllocating) {
  const std::string path = write_crafted_checkpoint("sesr_name_len.ckpt",
                                                    std::uint64_t{1} << 62, {1, 1, 1, 1}, 4);
  EXPECT_THROW(load_tensors(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, TensorBytesPastEndOfFileThrowBeforeAllocating) {
  // 2^62 elements: more than any file holds, and more than a vector can.
  const std::string huge = write_crafted_checkpoint(
      "sesr_huge.ckpt", 1, {std::int64_t{1} << 31, std::int64_t{1} << 31, 1, 1}, 16);
  EXPECT_THROW(load_tensors(huge), std::runtime_error);
  std::remove(huge.c_str());
  // 64 elements declared, 8 present.
  const std::string short_data =
      write_crafted_checkpoint("sesr_short.ckpt", 1, {1, 4, 4, 4}, 32);
  EXPECT_THROW(load_tensors(short_data), std::runtime_error);
  std::remove(short_data.c_str());
}

TEST(Serialize, OverflowingDimsThrow) {
  // 2^62 elements fit int64, but their byte count does not.
  std::stringstream ss;
  const std::array<std::int64_t, 4> dims{std::int64_t{1} << 40, std::int64_t{1} << 22, 1, 1};
  ss.write(reinterpret_cast<const char*>(dims.data()), sizeof(dims));
  EXPECT_THROW(read_tensor(ss), std::runtime_error);
}

TEST(Serialize, TruncatedStreamThrows) {
  std::stringstream ss;
  Tensor t(1, 2, 2, 1);
  write_tensor(ss, t);
  std::string s = ss.str();
  std::stringstream cut(s.substr(0, s.size() - 3));
  EXPECT_THROW(read_tensor(cut), std::runtime_error);
}

}  // namespace
}  // namespace sesr
