// The shared bench layer (bench/common.h) used by every bench and example:
// strict flag parsing in bench::OptionRegistry (a malformed number or an
// unknown flag is a usage error, exit 2, never a silent 0 that aborts deep
// in the simulator), the ObsSession flags going through that registry, the
// TraceReplay driver's termination and first-token accounting, and the
// conservation check.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "model/model_spec.h"
#include "serving/frontend.h"

namespace deepserve::bench {
namespace {

TEST(ParseNumberTest, AcceptsOnlyAWholeNumberOfTheTargetType) {
  double d = 0.0;
  EXPECT_TRUE(ParseNumber("2.5", &d));
  EXPECT_EQ(d, 2.5);
  EXPECT_TRUE(ParseNumber("-5", &d));
  EXPECT_EQ(d, -5.0);
  EXPECT_TRUE(ParseNumber("1e3", &d));
  EXPECT_EQ(d, 1000.0);
  for (const char* bad : {"", "abc", "5x", " 5", "5 ", "1,5", "nan", "inf", "1e999"}) {
    d = 7.0;
    EXPECT_FALSE(ParseNumber(bad, &d)) << "'" << bad << "'";
    EXPECT_EQ(d, 7.0) << "'" << bad << "' overwrote the value";
  }

  int i = 0;
  EXPECT_TRUE(ParseNumber("-12", &i));
  EXPECT_EQ(i, -12);
  for (const char* bad : {"", "4.5", "0x10", "12abc", "99999999999"}) {
    EXPECT_FALSE(ParseNumber(bad, &i)) << "'" << bad << "'";
  }

  uint64_t u = 0;
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  for (const char* bad : {"-1", "+3", "18446744073709551616"}) {
    EXPECT_FALSE(ParseNumber(bad, &u)) << "'" << bad << "'";
  }
}

struct Parsed {
  double rps = 1.0;
  int tes = 0;
  uint64_t seed = 0;
  bool smoke = false;
};

// Parses `args` with a few bench flags plus `obs`'s observability flags, the
// way every bench main does.
Parsed ParseArgs(std::vector<std::string> args, ObsSession* obs = nullptr) {
  Parsed parsed;
  OptionRegistry registry;
  registry.Flag("rps", &parsed.rps, "arrival rate");
  registry.Flag("tes", &parsed.tes, "TE count");
  registry.Flag("seed", &parsed.seed, "seed");
  registry.Flag("smoke", &parsed.smoke, "smoke mode");
  if (obs != nullptr) {
    obs->Register(registry);
  }
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  registry.Parse(static_cast<int>(argv.size()), argv.data());
  return parsed;
}

TEST(OptionRegistryTest, ParsesWellFormedFlagsIncludingTheObsFlags) {
  const std::string trace_path = ::testing::TempDir() + "bench_options_test.trace.json";
  const std::string metrics_path = ::testing::TempDir() + "bench_options_test.metrics.txt";
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  {
    ObsSession obs;
    EXPECT_FALSE(obs.tracing());
    Parsed parsed = ParseArgs({"--rps=2.5", "--tes=4", "--seed=42", "--smoke",
                               "--trace-out=" + trace_path, "--metrics-out=" + metrics_path},
                              &obs);
    EXPECT_EQ(parsed.rps, 2.5);
    EXPECT_EQ(parsed.tes, 4);
    EXPECT_EQ(parsed.seed, 42u);
    EXPECT_TRUE(parsed.smoke);
    EXPECT_TRUE(obs.tracing());
    EXPECT_TRUE(obs.metrics_enabled());
  }
  // The session writes its outputs when it goes out of scope.
  for (const std::string& path : {trace_path, metrics_path}) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr) << path;
    if (f != nullptr) {
      std::fclose(f);
    }
  }
}

TEST(OptionRegistryDeathTest, MalformedNumberIsAUsageError) {
  for (const char* bad : {"--rps=abc", "--rps=", "--rps=1.5x", "--tes=2.5", "--seed=-1"}) {
    EXPECT_EXIT(ParseArgs({bad}), ::testing::ExitedWithCode(2), "invalid value for --")
        << bad;
  }
}

TEST(OptionRegistryDeathTest, UnknownFlagIsAUsageError) {
  // Includes an obs flag given to a binary that registered none, and a
  // value flag spelled as a bare switch.
  for (const char* bad : {"--bogus", "--rps", "rps=2", "--trace-out=t.json"}) {
    EXPECT_EXIT(ParseArgs({"--tes=2", bad}), ::testing::ExitedWithCode(2), "unknown flag")
        << bad;
  }
}

std::vector<workload::RequestSpec> SmallTrace(int n) {
  std::vector<workload::RequestSpec> trace = workload::TraceGenerator::FixedBatch(n, 256, 8);
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].arrival = MsToNs(10) * static_cast<TimeNs>(i);
  }
  return trace;
}

TEST(TraceReplayTest, CountsAPreDispatchRejectionExactlyOnce) {
  sim::Simulator sim;
  serving::Frontend frontend(&sim);  // no JE serves any model: every request is rejected
  std::vector<workload::RequestSpec> trace = SmallTrace(3);
  int completions = 0;
  TraceReplay replay(&sim, trace,
                     [&completions](const workload::RequestSpec&, TimeNs,
                                    const flowserve::Sequence&) { ++completions; });
  replay.ScheduleOnto(&frontend, "yi-34b");
  sim.Run();

  const ReplayCounts& counts = replay.counts();
  EXPECT_EQ(counts.submitted, 3);
  EXPECT_EQ(counts.rejected, 3);
  EXPECT_EQ(counts.completed, 0);
  EXPECT_EQ(counts.errored, 0);
  EXPECT_EQ(counts.double_terminated, 0);
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(frontend.stats().rejected_total(), 3);
  EXPECT_TRUE(CheckConservation("rejections", counts, &frontend.stats()));

  // One hash term per rejection: the request's error tag.
  uint64_t hash = 1469598103934665603ull;
  for (const workload::RequestSpec& spec : trace) {
    hash ^= spec.id * 2 + 1;
    hash *= 1099511628211ull;
  }
  EXPECT_EQ(replay.timeline_hash(), hash);
}

TEST(TraceReplayTest, TakesTheFirstTokenFromThePrefillSideOnADisaggregatedRoute) {
  Testbed bed(/*num_machines=*/1);
  flowserve::EngineConfig engine;
  engine.model = model::ModelSpec::Tiny1B();
  engine.parallelism = {1, 1, 1};
  bed.BuildFleet(engine, /*colocated=*/0, /*prefill=*/1, /*decode=*/1);

  std::vector<workload::RequestSpec> trace = SmallTrace(4);
  for (workload::RequestSpec& spec : trace) {
    spec.arrival += bed.sim().Now();
  }
  int completions = 0;
  TraceReplay replay(
      &bed.sim(), trace,
      [&completions](const workload::RequestSpec& spec, TimeNs first,
                     const flowserve::Sequence& seq) {
        ++completions;
        // The decode TE never saw the first token: its sequence stamps the
        // finish time. The driver reports the prefill TE's time instead.
        EXPECT_EQ(seq.first_token_time, seq.finish_time);
        EXPECT_GT(first, spec.arrival);
        EXPECT_LT(first, seq.finish_time);
      });
  replay.ScheduleOnto(&bed.je());
  bed.sim().Run();

  EXPECT_EQ(completions, 4);
  EXPECT_EQ(bed.je().stats().routed_disaggregated, 4);
  EXPECT_TRUE(CheckConservation("1P1D", replay.counts()));
}

// Arrivals are chained, so the event queue's peak depth is set by what the
// fleet has in flight, not by how many requests the trace holds.
TEST(TraceReplayTest, QueueDepthDoesNotGrowWithTheTrace) {
  auto peak_depth = [](int requests) {
    Testbed bed(/*num_machines=*/1);
    flowserve::EngineConfig engine;
    engine.model = model::ModelSpec::Tiny1B();
    engine.parallelism = {1, 1, 1};
    bed.BuildFleet(engine, /*colocated=*/2, /*prefill=*/0, /*decode=*/0);
    obs::MetricsRegistry metrics;
    bed.sim().SetMetrics(&metrics);
    std::vector<workload::RequestSpec> trace = SmallTrace(requests);
    for (workload::RequestSpec& spec : trace) {
      spec.arrival += bed.sim().Now();
    }
    TraceReplay replay(&bed.sim(), trace);
    replay.ScheduleOnto(&bed.je());
    bed.sim().Run();
    EXPECT_EQ(replay.counts().completed, requests);
    return metrics.gauge("sim.event_queue_depth_max")->value();
  };
  const double short_peak = peak_depth(50);
  const double long_peak = peak_depth(200);
  EXPECT_GT(short_peak, 0.0);
  EXPECT_LE(long_peak, short_peak);
}

TEST(CheckConservationTest, ReportsEachKindOfViolation) {
  ReplayCounts ok;
  ok.submitted = 5;
  ok.completed = 3;
  ok.errored = 1;
  ok.rejected = 1;
  EXPECT_TRUE(CheckConservation("ok", ok));

  ReplayCounts missing = ok;
  missing.completed = 2;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(CheckConservation("missing", missing));
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("CONSERVATION VIOLATED (missing)"),
            std::string::npos);
  // ... unless exactly that many requests are known to hang.
  EXPECT_TRUE(CheckConservation("missing", missing, nullptr, /*hung=*/1));
  EXPECT_FALSE(CheckConservation("missing", missing, nullptr, /*hung=*/2));

  ReplayCounts twice = ok;
  twice.double_terminated = 1;
  EXPECT_FALSE(CheckConservation("twice", twice));

  serving::FrontendStats frontend;
  frontend.requests = 5;
  frontend.chat_dispatched = 4;
  frontend.rejected_by_reason[0] = 1;
  EXPECT_TRUE(CheckConservation("frontend", ok, &frontend));
  frontend.chat_dispatched = 3;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(CheckConservation("frontend", ok, &frontend));
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("frontend"), std::string::npos);
}

}  // namespace
}  // namespace deepserve::bench
