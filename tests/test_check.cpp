// Tests for the differential numerical-audit subsystem (src/check): the
// error metrics, the double-precision references (cross-checked against the
// library's own naive paths), and the sweep engine itself — including the
// failure and nondeterminism detection paths, driven by synthetic pairs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "check/audit.hpp"
#include "check/compare.hpp"
#include "check/reference.hpp"
#include "metrics/psnr.hpp"
#include "metrics/ssim.hpp"
#include "nn/conv2d.hpp"
#include "nn/depth_to_space.hpp"
#include "nn/gemm_s8.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace sesr::check {
namespace {

TEST(Compare, UlpDistanceUnits) {
  EXPECT_EQ(ulp_distance_f32(1.0F, 1.0), 0.0);
  const float one_up = std::nextafter(1.0F, 2.0F);
  EXPECT_NEAR(ulp_distance_f32(one_up, 1.0), 1.0, 1e-9);
  const float big = 1024.0F;
  EXPECT_NEAR(ulp_distance_f32(std::nextafter(big, 2.0F * big), static_cast<double>(big)), 1.0,
              1e-9);
  // Around zero the spacing is floored at FLT_MIN, so tiny absolute noise does
  // not blow up to astronomic ULP counts.
  EXPECT_LT(ulp_distance_f32(1e-30F, 0.0), 1e10);
  // Non-finite values only match themselves.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ulp_distance_f32(std::numeric_limits<float>::infinity(), inf), 0.0);
  EXPECT_TRUE(std::isinf(ulp_distance_f32(1.0F, inf)));
  EXPECT_TRUE(std::isinf(ulp_distance_f32(std::numeric_limits<float>::quiet_NaN(), 1.0)));
}

TEST(Compare, TracksWorstElement) {
  const std::vector<float> got{1.0F, 2.0F, std::nextafter(3.0F, 4.0F)};
  const std::vector<double> want{1.0, 2.0, 3.0};
  const ErrorStats stats = compare_f32(got, want);
  EXPECT_EQ(stats.count, 3);
  EXPECT_EQ(stats.worst_index, 2);
  EXPECT_NEAR(stats.max_ulp, 1.0, 1e-9);
  EXPECT_GT(stats.max_abs, 0.0);
}

TEST(Compare, MergeKeepsWorstAndOffsetsIndex) {
  ErrorStats a = compare_f32(std::vector<float>{1.0F, 1.0F}, std::vector<double>{1.0, 1.0});
  const ErrorStats b =
      compare_f32(std::vector<float>{std::nextafter(2.0F, 3.0F)}, std::vector<double>{2.0});
  a.merge(b);
  EXPECT_EQ(a.count, 3);
  EXPECT_EQ(a.worst_index, 2);  // b's element 0, offset by a's count
  EXPECT_NEAR(a.max_ulp, 1.0, 1e-9);
}

TEST(Compare, HashIsBitSensitive) {
  std::vector<float> data{0.0F, 1.0F, 2.0F};
  const std::uint64_t h0 = hash_bits(data);
  data[2] = std::nextafter(2.0F, 3.0F);
  EXPECT_NE(hash_bits(data), h0);
  // -0.0f and +0.0f differ in bits, so the hash must distinguish them too.
  std::vector<float> zeros{0.0F};
  std::vector<float> neg_zeros{-0.0F};
  EXPECT_NE(hash_bits(zeros), hash_bits(neg_zeros));
}

TEST(Reference, GemmMatchesHandComputation) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const std::vector<float> a{1.0F, 2.0F, 3.0F, 4.0F};
  const std::vector<float> b{5.0F, 6.0F, 7.0F, 8.0F};
  const std::vector<double> c = ref_gemm(a, b, 2, 2, 2);
  EXPECT_DOUBLE_EQ(c[0], 19.0);
  EXPECT_DOUBLE_EQ(c[1], 22.0);
  EXPECT_DOUBLE_EQ(c[2], 43.0);
  EXPECT_DOUBLE_EQ(c[3], 50.0);
}

TEST(Reference, ConvMatchesLibraryNaiveConv) {
  Rng rng(3);
  Tensor x(1, 9, 7, 3);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor w(3, 3, 3, 4);
  w.fill_uniform(rng, -0.5F, 0.5F);
  for (const nn::Padding pad : {nn::Padding::kSame, nn::Padding::kValid}) {
    const Tensor naive = nn::conv2d_naive(x, w, pad);
    const DTensor ref = ref_conv2d(x, w, nn::conv_geometry(x, w, pad));
    ASSERT_EQ(static_cast<std::int64_t>(ref.data.size()), naive.numel());
    const ErrorStats stats = compare_f32(naive.data(), ref.data);
    EXPECT_LT(stats.max_abs, 1e-5);
  }
}

TEST(Reference, DepthToSpaceMatchesLibrary) {
  Rng rng(5);
  Tensor x(2, 3, 4, 8);
  x.fill_uniform(rng, -1.0F, 1.0F);
  const Tensor lib = nn::depth_to_space(x, 2);
  const DTensor ref = ref_depth_to_space(to_dtensor(x), 2);
  const ErrorStats stats = compare_f32(lib.data(), ref.data);
  EXPECT_EQ(stats.max_abs, 0.0);  // a permutation must be exact
  EXPECT_EQ(stats.max_ulp, 0.0);
}

TEST(Reference, MetricsAgreeWithLibrary) {
  Rng rng(7);
  Tensor a(1, 16, 16, 1);
  Tensor b(1, 16, 16, 1);
  a.fill_uniform(rng, 0.0F, 1.0F);
  b.fill_uniform(rng, 0.0F, 1.0F);
  EXPECT_NEAR(ref_psnr(a, b), metrics::psnr(a, b), 1e-9);
  EXPECT_NEAR(ref_ssim(a, b), metrics::ssim(a, b), 1e-9);
  EXPECT_DOUBLE_EQ(ref_psnr(a, a), 100.0);
  EXPECT_DOUBLE_EQ(ref_ssim(a, a), 1.0);
}

TEST(Reference, Int8ConvOverflowGuard) {
  // 1x1 spatial, huge channel count with worst-case codes: |acc| would be
  // 127 * 127 * c. Pick c so it exceeds int32 range and expect the guard.
  const std::int64_t c = 140000;  // 127^2 * 140000 ~ 2.26e9 > 2^31 - 1
  Tensor x(1, 1, 1, c);
  x.fill(1.0F);  // quantizes to 127 at scale 1/127
  Tensor w(1, 1, c, 1);
  w.fill(1.0F);  // per-channel max-abs scale 1/127: every code is 127
  const nn::S8ConvWeights qw = nn::quantize_conv_weights(w);
  ASSERT_EQ(qw.values.front(), 127);
  EXPECT_THROW(ref_conv2d_s8(x, 1.0F / 127.0F, qw, nullptr, nn::Epilogue{}), std::overflow_error);
}

TEST(Audit, TrialSeedsAreStableAndDistinct) {
  const std::uint64_t s = trial_seed(1, "gemm_scalar", 0);
  EXPECT_EQ(trial_seed(1, "gemm_scalar", 0), s);  // deterministic
  EXPECT_NE(trial_seed(1, "gemm_scalar", 1), s);  // varies with index
  EXPECT_NE(trial_seed(1, "conv2d_striped", 0), s);  // varies with pair
  EXPECT_NE(trial_seed(2, "gemm_scalar", 0), s);  // varies with base seed
}

TEST(Audit, BuiltinRegistryCoversTheFastPaths) {
  const auto& pairs = builtin_pairs();
  EXPECT_GE(pairs.size(), 8U);
  for (const char* name :
       {"gemm_scalar", "conv2d_striped", "collapse_linear_block", "conv2d_int8_vs_ref",
        "int8_network_vs_replay", "tiled_inference", "resize_bicubic", "ssim"}) {
    EXPECT_NE(find_pair(name), nullptr) << name;
  }
  EXPECT_EQ(find_pair("no_such_pair"), nullptr);
}

TEST(Audit, SweepPassesOnExactPair) {
  AuditOptions options;
  options.trials = 3;
  options.thread_counts = {1, 2};
  options.pair_filter = {"depth_to_space"};
  const auto reports = run_audit(options);
  ASSERT_EQ(reports.size(), 1U);
  EXPECT_TRUE(reports[0].passed());
  EXPECT_EQ(reports[0].trials_run, 3);
  EXPECT_TRUE(all_passed(reports));
}

TEST(Audit, ReplayReproducesTheSweepTrial) {
  const AuditPair* pair = find_pair("conv2d_striped");
  ASSERT_NE(pair, nullptr);
  const std::uint64_t seed = trial_seed(0x5E5A0D17ULL, pair->name, 0);
  const PairReport a = replay_trial(*pair, seed, {1});
  const PairReport b = replay_trial(*pair, seed, {1});
  EXPECT_EQ(a.worst.max_abs, b.worst.max_abs);
  EXPECT_EQ(a.worst.max_ulp, b.worst.max_ulp);
  EXPECT_EQ(a.worst_detail, b.worst_detail);
}

TEST(Audit, ViolationIsReportedWithSeed) {
  // Synthetic pair that always exceeds both tolerances.
  AuditPair bad;
  bad.name = "synthetic_bad";
  bad.tol_abs = 1e-6;
  bad.tol_ulp = 1.0;
  bad.trial = [](std::uint64_t) {
    TrialResult r;
    r.stats = compare_f32(std::vector<float>{1.5F}, std::vector<double>{1.0});
    r.detail = "synthetic";
    r.output_hash = 42;
    return r;
  };
  const PairReport report = replay_trial(bad, 777, {1});
  EXPECT_FALSE(report.passed());
  ASSERT_EQ(report.failures.size(), 1U);
  EXPECT_EQ(report.failures[0].seed, 777ULL);
}

TEST(Audit, PassRequiresExceedingBothTolerances) {
  // Exceeds the ULP tolerance but not the absolute one -> still a pass.
  AuditPair pair;
  pair.name = "synthetic_abs_ok";
  pair.tol_abs = 1.0;
  pair.tol_ulp = 0.5;
  pair.trial = [](std::uint64_t) {
    TrialResult r;
    r.stats = compare_f32(std::vector<float>{std::nextafter(1.0F, 2.0F)},
                          std::vector<double>{1.0});
    return r;
  };
  EXPECT_TRUE(replay_trial(pair, 1, {1}).passed());
}

TEST(Audit, DetectsThreadCountNondeterminism) {
  // Synthetic pair whose "optimized output" depends on the pool width — the
  // exact defect the cross-thread-count hash check exists to catch.
  AuditPair pair;
  pair.name = "synthetic_nondet";
  pair.tol_abs = 1.0;
  pair.tol_ulp = 1e9;
  pair.trial = [](std::uint64_t) {
    TrialResult r;
    const float v = static_cast<float>(ThreadPool::global().worker_count());
    const std::vector<float> out{v};
    r.stats = compare_f32(out, std::vector<double>{static_cast<double>(v)});
    r.output_hash = hash_bits(out);
    return r;
  };
  const PairReport report = replay_trial(pair, 9, {1, 4});
  EXPECT_FALSE(report.passed());
  ASSERT_EQ(report.nondeterministic_seeds.size(), 1U);
  EXPECT_EQ(report.nondeterministic_seeds[0], 9ULL);
}

TEST(Audit, SkippedTrialsDoNotFail) {
  AuditPair pair;
  pair.name = "synthetic_skip";
  pair.trial = [](std::uint64_t) {
    TrialResult r;
    r.skipped = true;
    return r;
  };
  const PairReport report = replay_trial(pair, 3, {1});
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.trials_run, 0);
  EXPECT_EQ(report.trials_skipped, 1);
}

TEST(Audit, FullySkippedPairPrintsSkipWithReason) {
  // A pair whose every trial is skipped (its kernel build is absent) must
  // not read as a PASS: it prints SKIP with the trial's reason, the summary
  // counts it, and the header names the int8 kernel the dispatcher picked.
  AuditPair skip_pair;
  skip_pair.name = "synthetic_skip";
  skip_pair.trial = [](std::uint64_t) {
    TrialResult r;
    r.skipped = true;
    r.detail = "fooisa not available on this CPU";
    return r;
  };
  AuditPair pass_pair;
  pass_pair.name = "synthetic_pass";
  pass_pair.trial = [](std::uint64_t) {
    TrialResult r;
    r.stats = compare_f32(std::vector<float>{1.0F}, std::vector<double>{1.0});
    return r;
  };
  AuditOptions options;
  options.trials = 1;
  options.thread_counts = {1};
  const std::vector<PairReport> reports = {replay_trial(skip_pair, 3, {1}),
                                           replay_trial(pass_pair, 3, {1})};
  EXPECT_TRUE(reports[0].skipped());
  EXPECT_TRUE(all_passed(reports));
  std::ostringstream os;
  print_report(os, reports, options);
  const std::string text = os.str();
  EXPECT_NE(text.find("int8 kernel: " + std::string(nn::gemm_s8_kernel_name())),
            std::string::npos);
  EXPECT_NE(text.find("SKIP synthetic_skip (fooisa not available on this CPU)\n"),
            std::string::npos);
  EXPECT_EQ(text.find("PASS synthetic_skip"), std::string::npos);
  EXPECT_NE(text.find("PASS synthetic_pass"), std::string::npos);
  EXPECT_NE(text.find("audit OK (2 pairs: 1 passed, 0 failed, 1 skipped)"), std::string::npos);
}

TEST(Audit, RestoresGlobalThreadPoolWidth) {
  const unsigned original_width = ThreadPool::global().worker_count() + 1;
  ThreadPool::set_global_threads(3);
  AuditOptions options;
  options.trials = 1;
  options.thread_counts = {1, 2};
  options.pair_filter = {"depth_to_space"};
  run_audit(options);
  EXPECT_EQ(ThreadPool::global().worker_count(), 2U);  // width 3 = 2 workers + caller
  ThreadPool::set_global_threads(original_width);
}

}  // namespace
}  // namespace sesr::check
