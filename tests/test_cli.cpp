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

TEST(CliArgs, MalformedNumberThrowsUsageError) {
  EXPECT_THROW(parse({"--steps=ten"}).get_int("steps"), UsageError);
  EXPECT_THROW(parse({"--steps=99999999999999999999"}).get_int("steps"), UsageError);
  EXPECT_THROW(parse({"--lr=fast"}).get_double("lr"), UsageError);
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
  EXPECT_EQ(config.serve.workers, 4);
  EXPECT_EQ(config.serve.queue_capacity, 64U);
  EXPECT_EQ(config.serve.overload, serve::OverloadPolicy::kBlock);
  EXPECT_EQ(config.serve.mode, serve::ExecMode::kFullFrame);
  EXPECT_EQ(config.listen_port, 0);  // ephemeral; the banner prints the port
  EXPECT_DOUBLE_EQ(config.duration_s, 0.0);  // serve until a signal
}

TEST(ServeCli, ParsesFullTrafficSpec) {
  const ServeCliConfig config =
      parse_serve({"--networks=m3:4", "--workers=2", "--mode=auto", "--tile=32",
                   "--threads=2", "--duration-s=2.5", "--listen=7788", "--seed=9"});
  ASSERT_EQ(config.routes.size(), 1U);
  EXPECT_EQ(serve::route_string(config.routes[0]), "m3:4:fp32");
  EXPECT_EQ(config.serve.workers, 2);
  EXPECT_EQ(config.serve.mode, serve::ExecMode::kAuto);
  EXPECT_EQ(config.serve.tiling.tile_h, 32);
  EXPECT_EQ(config.serve.tiling.tile_w, 32);
  EXPECT_EQ(config.threads, 2);
  EXPECT_DOUBLE_EQ(config.duration_s, 2.5);
  EXPECT_EQ(config.listen_port, 7788);
  EXPECT_EQ(config.seed, 9U);
}

TEST(ServeCli, ZeroWorkersRaisesUsageError) {
  EXPECT_THROW(parse_serve({"--workers=0"}), UsageError);
  EXPECT_THROW(parse_serve({"--workers=-2"}), UsageError);
}

TEST(ServeCli, BadEnumsRaiseUsageError) {
  EXPECT_THROW(parse_serve({"--mode=bogus"}), UsageError);
  // Streaming is not a serving mode; kTiled is the bounded-memory mode.
  EXPECT_THROW(parse_serve({"--mode=streaming"}), UsageError);
}

TEST(ServeCli, BadBatchingKnobsRaiseUsageError) {
  // Batching flags are unknown options, whatever their value.
  EXPECT_THROW(parse_serve({"--max-batch=4"}), UsageError);
  EXPECT_THROW(parse_serve({"--max-delay-us", "0"}), UsageError);
  EXPECT_THROW(parse_serve({"--queue-capacity=0"}), UsageError);
  EXPECT_THROW(parse_serve({"--tile=0"}), UsageError);
  EXPECT_THROW(parse_serve({"--threads=0"}), UsageError);
}

TEST(ServeCli, LoadGeneratorAndSingleRouteFlagsRaiseUsageError) {
  // sesr-serve is only the server: load generation lives in servebench/ and
  // bench_serve_throughput, and --networks is the one way to name a route.
  // The socket front end never blocks on a full queue (it answers
  // kOverloaded / 503), so --policy is gone too. Each retired flag is an
  // unknown option, whatever its value.
  for (const char* flag : {"--qps=30", "--frames=10", "--shapes=64x64", "--unique-frames=5",
                           "--connect=127.0.0.1:9", "--clients=2", "--deadline-ms=5",
                           "--chaos=malformed", "--video=pan", "--net=m5", "--scale=2",
                           "--precision=fp32", "--policy=block", "--policy=reject"}) {
    EXPECT_THROW(parse_serve({flag}), UsageError) << flag;
  }
  EXPECT_THROW(parse_serve({"--listen=-1"}), UsageError);
}

TEST(ServeCli, DefaultRoutesMirrorSingleNetworkFlags) {
  // With no --networks the server loads exactly one route, m5:2:fp32.
  const ServeCliConfig config = parse_serve({});
  ASSERT_EQ(config.routes.size(), 1U);
  EXPECT_EQ(config.routes[0].network, "m5");
  EXPECT_EQ(config.routes[0].scale, 2);
  EXPECT_EQ(config.routes[0].precision, core::InferencePrecision::kFp32);
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
  EXPECT_EQ(parse_serve({}).serve.cache_entries, 0U);
  EXPECT_EQ(parse_serve({"--cache-entries=128"}).serve.cache_entries, 128U);
  EXPECT_THROW(parse_serve({"--cache-entries=-1"}), UsageError);
  // The lane scheduler is the only dispatch policy: the FIFO switch is an
  // unknown option, whatever its value.
  EXPECT_THROW(parse_serve({"--fair-tiles=0"}), UsageError);
}

TEST(ServeCli, VideoKnobsParse) {
  EXPECT_EQ(parse_serve({}).serve.video_sessions, 64U);
  EXPECT_EQ(parse_serve({"--video-sessions=8"}).serve.video_sessions, 8U);
  EXPECT_EQ(parse_serve({"--video-sessions=0"}).serve.video_sessions, 0U);
}

TEST(ServeCli, DeploymentKnobsParse) {
  const ServeCliConfig defaults = parse_serve({});
  EXPECT_EQ(defaults.bind_address, "127.0.0.1");
  EXPECT_TRUE(defaults.auth_token.empty());  // "none" sentinel → no auth
  EXPECT_EQ(defaults.io_shards, 1);
  const ServeCliConfig config =
      parse_serve({"--bind=0.0.0.0", "--auth-token=s3cret", "--io-shards=4"});
  EXPECT_EQ(config.bind_address, "0.0.0.0");
  EXPECT_EQ(config.auth_token, "s3cret");
  EXPECT_EQ(config.io_shards, 4);
  // A token is allowed, not required, on loopback.
  EXPECT_EQ(parse_serve({"--auth-token=s3cret"}).auth_token, "s3cret");
}

TEST(ServeCli, BadDeploymentKnobsRaiseUsageError) {
  // An open bind without a shared secret is refused outright.
  EXPECT_THROW(parse_serve({"--bind=0.0.0.0"}), UsageError);
  EXPECT_THROW(parse_serve({"--bind=10.0.0.1"}), UsageError);
  // Loopback binds stay tokenless-friendly.
  EXPECT_EQ(parse_serve({"--bind=127.0.0.1"}).bind_address, "127.0.0.1");
  // Shard-count, port and bind sanity.
  EXPECT_THROW(parse_serve({"--io-shards=0"}), UsageError);
  EXPECT_THROW(parse_serve({"--io-shards=65"}), UsageError);
  EXPECT_THROW(parse_serve({"--bind="}), UsageError);
  EXPECT_THROW(parse_serve({"--listen=65536"}), UsageError);
  const std::string oversized = "--auth-token=" + std::string(4097, 'a');
  EXPECT_THROW(parse_serve({oversized.c_str()}), UsageError);
  // SLO headroom is a fraction of the budget.
  EXPECT_DOUBLE_EQ(parse_serve({"--slo-headroom=0.5"}).serve.slo.headroom, 0.5);
  EXPECT_THROW(parse_serve({"--slo-headroom=0"}), UsageError);
  EXPECT_THROW(parse_serve({"--slo-headroom=1.5"}), UsageError);
}

TEST(ServeCli, BadVideoKnobsRaiseUsageError) {
  EXPECT_THROW(parse_serve({"--video-sessions=-1"}), UsageError);
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
