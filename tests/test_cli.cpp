// Tests for the tools/ command-line argument parser and the sesr-serve
// option table (bad values must raise UsageError — sesr-serve turns that
// into usage text plus a nonzero exit).
#include <gtest/gtest.h>

#include "../bench/bench_common.hpp"
#include "../tools/cli_args.hpp"
#include "../tools/serve_cli.hpp"

namespace sesr::cli {
namespace {

std::vector<Args::Option> options() {
  return {
      {"steps", "100", "training steps"},
      {"lr", "5e-4", "learning rate"},
      {"name", "model", "output name"},
      {"verbose", "", "boolean flag"},
  };
}

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(options(), static_cast<int>(argv.size()),
              const_cast<char**>(argv.data()));
}

TEST(CliArgs, DefaultsApply) {
  Args args = parse({});
  EXPECT_EQ(args.get_int("steps"), 100);
  EXPECT_DOUBLE_EQ(args.get_double("lr"), 5e-4);
  EXPECT_EQ(args.get("name"), "model");
  EXPECT_FALSE(args.get_flag("verbose"));
}

TEST(CliArgs, EqualsFormParses) {
  Args args = parse({"--steps=250", "--lr=0.01", "--name=foo"});
  EXPECT_EQ(args.get_int("steps"), 250);
  EXPECT_DOUBLE_EQ(args.get_double("lr"), 0.01);
  EXPECT_EQ(args.get("name"), "foo");
}

TEST(CliArgs, SpaceFormParses) {
  Args args = parse({"--steps", "42", "--name", "bar"});
  EXPECT_EQ(args.get_int("steps"), 42);
  EXPECT_EQ(args.get("name"), "bar");
}

TEST(CliArgs, BooleanFlag) {
  Args args = parse({"--verbose"});
  EXPECT_TRUE(args.get_flag("verbose"));
  Args off = parse({"--verbose=0"});
  EXPECT_FALSE(off.get_flag("verbose"));
  Args truthy = parse({"--verbose=true"});
  EXPECT_TRUE(truthy.get_flag("verbose"));
}

TEST(CliArgs, UnknownOptionThrows) {
  EXPECT_THROW(parse({"--bogus=1"}), UsageError);
  EXPECT_THROW(parse({"--stepz", "10"}), UsageError);
}

TEST(CliArgs, PositionalArgumentsCollected) {
  Args args = parse({"input.pgm", "--steps=5", "output.pgm"});
  ASSERT_EQ(args.positional().size(), 2U);
  EXPECT_EQ(args.positional()[0], "input.pgm");
  EXPECT_EQ(args.positional()[1], "output.pgm");
  EXPECT_EQ(args.get_int("steps"), 5);
}

TEST(CliArgs, LastValueWins) {
  Args args = parse({"--steps=1", "--steps=2"});
  EXPECT_EQ(args.get_int("steps"), 2);
}

// ------------------------- sesr-serve option table ---------------------------

ServeCliConfig parse_serve(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "sesr-serve");
  const Args args(serve_cli_options(), static_cast<int>(argv.size()),
                  const_cast<char**>(argv.data()));
  return parse_serve_cli(args);
}

TEST(ServeCli, DefaultsAreServable) {
  const ServeCliConfig config = parse_serve({});
  EXPECT_EQ(config.net, "m5");
  EXPECT_EQ(config.scale, 2);
  EXPECT_EQ(config.serve.workers, 4);
  EXPECT_EQ(config.serve.queue_capacity, 64U);
  EXPECT_EQ(config.serve.overload, serve::OverloadPolicy::kBlock);
  EXPECT_EQ(config.serve.mode, serve::ExecMode::kFullFrame);
  EXPECT_DOUBLE_EQ(config.qps, 0.0);  // closed loop
  ASSERT_EQ(config.shapes.size(), 1U);
  EXPECT_EQ(config.shapes[0].first, 64);
  EXPECT_EQ(config.shapes[0].second, 64);
}

TEST(ServeCli, ParsesFullTrafficSpec) {
  const ServeCliConfig config =
      parse_serve({"--net=m3", "--scale=4", "--workers=2", "--policy=reject",
                   "--mode=auto", "--qps=120.5", "--shapes=64x64,128x96", "--threads=2"});
  EXPECT_EQ(config.net, "m3");
  EXPECT_EQ(config.scale, 4);
  EXPECT_EQ(config.serve.workers, 2);
  EXPECT_EQ(config.serve.overload, serve::OverloadPolicy::kReject);
  EXPECT_EQ(config.serve.mode, serve::ExecMode::kAuto);
  EXPECT_DOUBLE_EQ(config.qps, 120.5);
  ASSERT_EQ(config.shapes.size(), 2U);
  EXPECT_EQ(config.shapes[1].first, 128);
  EXPECT_EQ(config.shapes[1].second, 96);
}

TEST(ServeCli, PrecisionParses) {
  EXPECT_EQ(parse_serve({}).serve.precision, core::InferencePrecision::kFp32);
  EXPECT_EQ(parse_serve({"--precision=fp32"}).serve.precision, core::InferencePrecision::kFp32);
  EXPECT_EQ(parse_serve({"--precision=fp16"}).serve.precision, core::InferencePrecision::kFp16);
  EXPECT_EQ(parse_serve({"--precision=int8"}).serve.precision, core::InferencePrecision::kInt8);
  EXPECT_EQ(parse_serve({"--precision=hybrid"}).serve.precision,
            core::InferencePrecision::kHybrid);
  EXPECT_THROW(parse_serve({"--precision=half"}), UsageError);
}

TEST(ServeCli, BadQpsRaisesUsageError) {
  EXPECT_THROW(parse_serve({"--qps=-1"}), UsageError);
  EXPECT_THROW(parse_serve({"--qps", "-0.5"}), UsageError);
}

TEST(ServeCli, ZeroWorkersRaisesUsageError) {
  EXPECT_THROW(parse_serve({"--workers=0"}), UsageError);
  EXPECT_THROW(parse_serve({"--workers=-2"}), UsageError);
}

TEST(ServeCli, MutuallyExclusiveStopConditionsRaiseUsageError) {
  EXPECT_THROW(parse_serve({"--frames=10", "--duration-s=2"}), UsageError);
  // Each alone is fine.
  EXPECT_EQ(parse_serve({"--frames=10"}).frames, 10);
  EXPECT_DOUBLE_EQ(parse_serve({"--duration-s=2"}).duration_s, 2.0);
}

TEST(ServeCli, BadEnumsRaiseUsageError) {
  EXPECT_THROW(parse_serve({"--mode=bogus"}), UsageError);
  // Streaming is not a serving mode; kTiled is the bounded-memory mode.
  EXPECT_THROW(parse_serve({"--mode=streaming"}), UsageError);
  EXPECT_THROW(parse_serve({"--policy=maybe"}), UsageError);
  EXPECT_THROW(parse_serve({"--net=m4"}), UsageError);
  EXPECT_THROW(parse_serve({"--scale=3"}), UsageError);
}

TEST(ServeCli, BadShapesRaiseUsageError) {
  EXPECT_THROW(parse_serve({"--shapes=64"}), UsageError);
  EXPECT_THROW(parse_serve({"--shapes=64x"}), UsageError);
  EXPECT_THROW(parse_serve({"--shapes=0x64"}), UsageError);
  EXPECT_THROW(parse_serve({"--shapes=64x64,,32x32"}), UsageError);
}

TEST(ServeCli, BadBatchingKnobsRaiseUsageError) {
  // Batching flags are unknown options, whatever their value.
  EXPECT_THROW(parse_serve({"--max-batch=4"}), UsageError);
  EXPECT_THROW(parse_serve({"--max-delay-us", "0"}), UsageError);
  EXPECT_THROW(parse_serve({"--queue-capacity=0"}), UsageError);
  EXPECT_THROW(parse_serve({"--tile=0"}), UsageError);
  EXPECT_THROW(parse_serve({"--threads=0"}), UsageError);
}

TEST(ServeCli, DefaultRoutesMirrorSingleNetworkFlags) {
  const ServeCliConfig config = parse_serve({"--net=m11", "--scale=4", "--precision=fp16"});
  ASSERT_EQ(config.routes.size(), 1U);
  EXPECT_EQ(config.routes[0].network, "m11");
  EXPECT_EQ(config.routes[0].scale, 4);
  EXPECT_EQ(config.routes[0].precision, core::InferencePrecision::kFp16);
}

TEST(ServeCli, NetworksFlagParsesShardedRoutes) {
  const ServeCliConfig config = parse_serve({"--networks", "m5:2,m11:2:fp16,m3:4"});
  ASSERT_EQ(config.routes.size(), 3U);
  EXPECT_EQ(config.routes[0].network, "m5");
  EXPECT_EQ(config.routes[0].precision, core::InferencePrecision::kFp32);
  EXPECT_EQ(config.routes[1].network, "m11");
  EXPECT_EQ(config.routes[1].precision, core::InferencePrecision::kFp16);
  EXPECT_EQ(config.routes[2].network, "m3");
  EXPECT_EQ(config.routes[2].scale, 4);
}

TEST(ServeCli, BadNetworksRaiseUsageError) {
  EXPECT_THROW(parse_serve({"--networks=m5"}), UsageError);          // missing scale
  EXPECT_THROW(parse_serve({"--networks=m4:2"}), UsageError);        // unknown net
  EXPECT_THROW(parse_serve({"--networks=m5:3"}), UsageError);        // bad scale
  EXPECT_THROW(parse_serve({"--networks=m5:2:int4"}), UsageError);   // bad precision
  EXPECT_THROW(parse_serve({"--networks=m5:2,m5:2"}), UsageError);   // duplicate route
  EXPECT_THROW(parse_serve({"--networks=m5:2,,m3:2"}), UsageError);  // empty entry
}

TEST(ServeCli, CacheKnobsParse) {
  const ServeCliConfig defaults = parse_serve({});
  EXPECT_EQ(defaults.serve.cache_entries, 0U);
  EXPECT_EQ(defaults.unique_frames, 1);
  const ServeCliConfig config = parse_serve({"--cache-entries=128", "--unique-frames=5"});
  EXPECT_EQ(config.serve.cache_entries, 128U);
  EXPECT_EQ(config.unique_frames, 5);
  EXPECT_THROW(parse_serve({"--cache-entries=-1"}), UsageError);
  EXPECT_THROW(parse_serve({"--unique-frames=0"}), UsageError);
  // The lane scheduler is the only dispatch policy: the FIFO switch is an
  // unknown option, whatever its value.
  EXPECT_THROW(parse_serve({"--fair-tiles=0"}), UsageError);
}

TEST(ServeCli, VideoKnobsParse) {
  const ServeCliConfig defaults = parse_serve({});
  EXPECT_EQ(defaults.video, "none");
  EXPECT_EQ(defaults.serve.video_sessions, 64U);
  const ServeCliConfig config = parse_serve({"--video=pan", "--video-sessions=8"});
  EXPECT_EQ(config.video, "pan");
  EXPECT_EQ(config.serve.video_sessions, 8U);
  EXPECT_EQ(parse_serve({"--video=mixed"}).video, "mixed");
  EXPECT_EQ(parse_serve({"--video-sessions=0"}).serve.video_sessions, 0U);
}

TEST(ServeCli, DeploymentKnobsParse) {
  const ServeCliConfig defaults = parse_serve({});
  EXPECT_EQ(defaults.bind_address, "127.0.0.1");
  EXPECT_TRUE(defaults.auth_token.empty());  // "none" sentinel → no auth
  EXPECT_EQ(defaults.io_shards, 1);
  const ServeCliConfig config = parse_serve(
      {"--listen=0", "--bind=0.0.0.0", "--auth-token=s3cret", "--io-shards=4"});
  EXPECT_EQ(config.bind_address, "0.0.0.0");
  EXPECT_EQ(config.auth_token, "s3cret");
  EXPECT_EQ(config.io_shards, 4);
  // A client can carry a token too (it is sent with every request).
  EXPECT_EQ(parse_serve({"--connect=127.0.0.1:9", "--auth-token=s3cret"}).auth_token, "s3cret");
}

TEST(ServeCli, BadDeploymentKnobsRaiseUsageError) {
  // An open bind without a shared secret is refused outright.
  EXPECT_THROW(parse_serve({"--listen=0", "--bind=0.0.0.0"}), UsageError);
  // Loopback binds stay tokenless-friendly.
  EXPECT_EQ(parse_serve({"--listen=0", "--bind=127.0.0.1"}).bind_address, "127.0.0.1");
  // Server-only knobs outside server mode.
  EXPECT_THROW(parse_serve({"--bind=10.0.0.1", "--auth-token=x"}), UsageError);
  EXPECT_THROW(parse_serve({"--io-shards=2"}), UsageError);
  // Shard-count and bind sanity.
  EXPECT_THROW(parse_serve({"--listen=0", "--io-shards=0"}), UsageError);
  EXPECT_THROW(parse_serve({"--listen=0", "--io-shards=65"}), UsageError);
  EXPECT_THROW(parse_serve({"--listen=0", "--bind="}), UsageError);
  EXPECT_THROW(parse_serve({"--listen=65536"}), UsageError);
  const std::string oversized = "--auth-token=" + std::string(4097, 'a');
  EXPECT_THROW(parse_serve({"--listen=0", oversized.c_str()}), UsageError);
  // SLO headroom is a fraction of the budget.
  EXPECT_DOUBLE_EQ(parse_serve({"--slo-headroom=0.5"}).serve.slo.headroom, 0.5);
  EXPECT_THROW(parse_serve({"--slo-headroom=0"}), UsageError);
  EXPECT_THROW(parse_serve({"--slo-headroom=1.5"}), UsageError);
}

TEST(ServeCli, BadVideoKnobsRaiseUsageError) {
  EXPECT_THROW(parse_serve({"--video=strobe"}), UsageError);
  EXPECT_THROW(parse_serve({"--video-sessions=-1"}), UsageError);
  // Sessions replay closed-loop; an open-loop rate would only measure gaps.
  EXPECT_THROW(parse_serve({"--video=static", "--qps=30"}), UsageError);
  // The malformed chaos case never sends a video frame.
  EXPECT_THROW(parse_serve({"--video=static", "--chaos=malformed", "--connect=127.0.0.1:1"}),
               UsageError);
}

// ------------------------------ bench JSON escaping --------------------------

TEST(JsonEscape, PassesPlainStringsThrough) {
  EXPECT_EQ(bench::json_escape("workers4/batch8"), "workers4/batch8");
  EXPECT_EQ(bench::json_escape(""), "");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(bench::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(bench::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(bench::json_escape("line\nbreak\ttab\r"), "line\\nbreak\\ttab\\r");
  EXPECT_EQ(bench::json_escape(std::string("nul\x01") + "x"), "nul\\u0001x");
  EXPECT_EQ(bench::json_escape("\b\f"), "\\b\\f");
}

TEST(JsonEscape, RoundTripsThroughAnUnescaper) {
  // Un-escape json_escape's output and require the original bytes back — the
  // round-trip check that catches both under- and over-escaping.
  const auto unescape = [](const std::string& s) {
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '\\') {
        out += s[i];
        continue;
      }
      ++i;
      switch (s[i]) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u':
          out += static_cast<char>(std::stoi(s.substr(i + 1, 4), nullptr, 16));
          i += 4;
          break;
        default: out += s[i];  // \" and \\ and anything else escaped literally
      }
    }
    return out;
  };
  const std::string nasty = "shape \"64x64\"\\path\n\ttab\x01\x1f end";
  EXPECT_EQ(unescape(bench::json_escape(nasty)), nasty);
  const std::string escaped = bench::json_escape(nasty);
  // The escaped form must contain no raw quote, backslash-run ambiguity, or
  // control bytes — i.e. it is safe inside a JSON string literal.
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20U);
  }
}

}  // namespace
}  // namespace sesr::cli
