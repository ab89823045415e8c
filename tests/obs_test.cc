// Observability-layer tests: Tracer recording/export, MetricsRegistry, and a
// golden end-to-end trace of one request through a FlowServe engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "flowserve/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workload/request.h"

namespace deepserve {
namespace {

// ---------------- Tracer unit tests ----------------

TEST(TracerTest, TrackAndLaneRegistration) {
  obs::Tracer tracer;
  int a = tracer.NewTrack("engine/colocated");
  int b = tracer.NewTrack("rtc");
  EXPECT_NE(a, b);
  ASSERT_EQ(tracer.tracks().size(), 2u);
  EXPECT_EQ(tracer.tracks()[static_cast<size_t>(a)], "engine/colocated");
  EXPECT_EQ(tracer.tracks()[static_cast<size_t>(b)], "rtc");
  tracer.SetLaneName(a, 0, "dp0");
  tracer.SetLaneName(a, 1, "dp1");
  // Lane metadata lands in the Chrome export as thread_name records.
  std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("dp0"), std::string::npos);
  EXPECT_NE(json.find("dp1"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(TracerTest, LazyTrackRegistersOnceOnFirstUse) {
  obs::LazyTrack track("engine/colocated/tiny-1b", {"dp0", "dp1"});
  EXPECT_EQ(track.Pid(nullptr), -1) << "no tracer attached";
  obs::Tracer tracer;
  int rtc = tracer.NewTrack("rtc");
  int pid = track.Pid(&tracer);
  EXPECT_EQ(track.Pid(&tracer), pid);
  EXPECT_NE(pid, rtc);
  ASSERT_EQ(tracer.tracks().size(), 2u) << "one track, registered on first use";
  EXPECT_EQ(tracer.tracks()[static_cast<size_t>(pid)], "engine/colocated/tiny-1b");
  // Each lane is named once, in the Chrome export's thread_name records.
  std::string json = tracer.ToChromeJson();
  for (const char* lane : {"\"dp0\"", "\"dp1\""}) {
    size_t at = json.find(lane);
    ASSERT_NE(at, std::string::npos) << lane;
    EXPECT_EQ(json.find(lane, at + 1), std::string::npos) << lane;
  }
}

TEST(TracerTest, RecordsTypedEvents) {
  obs::Tracer tracer;
  int pid = tracer.NewTrack("engine");
  EXPECT_TRUE(tracer.empty());
  tracer.Instant(1000, pid, 0, "seq.submit", {obs::Arg("req", int64_t{7})});
  tracer.Begin(2000, pid, 0, "step", {obs::Arg("prefill_tokens", int64_t{512})});
  tracer.End(3000, pid, 0, "step");
  tracer.AsyncBegin(2500, pid, 42, "kv_send", {obs::Arg("bytes", int64_t{1 << 20})});
  tracer.AsyncEnd(4000, pid, 42, "kv_send");
  tracer.Counter(4500, pid, "kv_usage", 0.75);
  EXPECT_EQ(tracer.size(), 6u);

  auto steps = tracer.EventsNamed("step");
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0]->phase, obs::Phase::kBegin);
  EXPECT_EQ(steps[1]->phase, obs::Phase::kEnd);
  EXPECT_EQ(steps[0]->ts, 2000);
  ASSERT_EQ(steps[0]->args.size(), 1u);
  EXPECT_EQ(steps[0]->args[0].key, "prefill_tokens");
  EXPECT_EQ(steps[0]->args[0].value, "512");
  EXPECT_TRUE(steps[0]->args[0].numeric);

  auto sends = tracer.EventsNamed("kv_send");
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0]->async_id, 42u);
  EXPECT_EQ(sends[1]->async_id, 42u);
  EXPECT_EQ(sends[0]->phase, obs::Phase::kAsyncBegin);
  EXPECT_EQ(sends[1]->phase, obs::Phase::kAsyncEnd);
}

TEST(TracerTest, ChromeJsonIsSortedMicroseconds) {
  obs::Tracer tracer;
  int pid = tracer.NewTrack("t");
  // Record out of order across two lanes; export must sort by timestamp.
  tracer.Instant(5'000'000, pid, 1, "late");
  tracer.Instant(2'000'000, pid, 0, "early");
  std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  size_t early = json.find("\"early\"");
  size_t late = json.find("\"late\"");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, late);
  // ts is microseconds (2'000'000 ns -> 2000 us).
  EXPECT_NE(json.find("\"ts\":2000"), std::string::npos);
}

TEST(TracerTest, JsonlOneLinePerEvent) {
  obs::Tracer tracer;
  int pid = tracer.NewTrack("t");
  tracer.Instant(1, pid, 0, "a");
  tracer.Instant(2, pid, 0, "b", {obs::Arg("note", "with \"quotes\" and \\slash")});
  std::string jsonl = tracer.ToJsonl();
  size_t lines = 0;
  for (char c : jsonl) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, 2u);
  // String args are escaped JSON.
  EXPECT_NE(jsonl.find("with \\\"quotes\\\" and \\\\slash"), std::string::npos);
}

// ---------------- MetricsRegistry ----------------

TEST(MetricsRegistryTest, GetOrCreateIsStable) {
  obs::MetricsRegistry registry;
  obs::Counter* c1 = registry.counter("engine.steps");
  obs::Counter* c2 = registry.counter("engine.steps");
  EXPECT_EQ(c1, c2);
  c1->Inc();
  c2->Inc(4);
  EXPECT_EQ(c1->value(), 5);

  obs::Gauge* g = registry.gauge("sim.queue_depth_max");
  g->SetMax(3.0);
  g->SetMax(1.0);
  EXPECT_EQ(g->value(), 3.0);

  OnlineStats* s1 = registry.stats("engine.step_ms");
  OnlineStats* s2 = registry.stats("engine.step_ms");
  EXPECT_EQ(s1, s2);
  s1->Add(2.0);
  s1->Add(4.0);
  EXPECT_EQ(registry.size(), 3u);

  std::string dump = registry.Dump();
  EXPECT_NE(dump.find("counter engine.steps"), std::string::npos);
  EXPECT_NE(dump.find("gauge   sim.queue_depth_max"), std::string::npos);
  EXPECT_NE(dump.find("stats   engine.step_ms"), std::string::npos);
  EXPECT_NE(dump.find("count=2"), std::string::npos);
}

// ---------------- Golden engine trace ----------------

// One deterministic request through an engine records the canonical event
// sequence, which the exports write in non-decreasing timestamp order.
TEST(TraceGoldenTest, SingleRequestEventOrder) {
  sim::Simulator sim;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  sim.SetTracer(&tracer);
  sim.SetMetrics(&metrics);

  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.prefill_chunk_tokens = 512;
  config.kv_block_capacity_override = 4096;
  flowserve::Engine engine(&sim, config);

  workload::RequestSpec spec;
  spec.id = 9;
  spec.decode_len = 4;
  std::vector<TokenId> tokens;
  for (int i = 0; i < 1024; ++i) {
    tokens.push_back(100 + i);
  }
  spec.prompt = std::move(tokens);
  bool done = false;
  engine.Submit(spec, {nullptr, [&](const flowserve::Sequence&) { done = true; }});
  sim.Run();
  ASSERT_TRUE(done);

  // Lifecycle markers, in export order: submit -> enqueue -> first step
  // begin -> ... -> finish. 1024 prompt tokens at chunk 512 = 2 prefill
  // steps, plus 3 decode steps (prefill emits token 1 of 4).
  std::vector<std::string> names;
  std::vector<const obs::TraceEvent*> steps;
  for (const obs::TraceEvent* event : tracer.EventsByTs()) {
    names.push_back(event->name);
    if (event->name == "step") {
      steps.push_back(event);
    }
  }
  EXPECT_EQ(steps.size(), 10u);  // 5 steps x (begin + end)
  const std::vector<std::string> lifecycle = {"seq.submit", "seq.enqueue", "step", "seq.finish"};
  auto next = names.begin();
  for (const std::string& name : lifecycle) {
    next = std::find(next, names.end(), name);
    EXPECT_NE(next, names.end()) << name << " missing or out of order";
  }
  EXPECT_EQ(std::count(names.begin(), names.end(), "seq.submit"), 1);
  EXPECT_EQ(std::count(names.begin(), names.end(), "seq.enqueue"), 1);
  EXPECT_EQ(std::count(names.begin(), names.end(), "seq.finish"), 1);
  EXPECT_EQ(names.back(), "seq.finish");

  // The JSONL export's timestamps never go backwards.
  const std::string jsonl = tracer.ToJsonl();
  TimeNs last = 0;
  size_t lines = 0;
  for (size_t at = 0; at < jsonl.size(); at = jsonl.find('\n', at) + 1, ++lines) {
    ASSERT_EQ(jsonl.compare(at, 6, "{\"ts\":"), 0) << "line " << lines;
    const TimeNs ts = std::stoll(jsonl.substr(at + 6, 20));
    EXPECT_LE(last, ts) << "line " << lines << " went backwards";
    last = ts;
  }
  EXPECT_EQ(lines, tracer.size());

  // Step slices alternate B/E on the single DP lane and carry the StepShape.
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i]->phase, i % 2 == 0 ? obs::Phase::kBegin : obs::Phase::kEnd);
    EXPECT_EQ(steps[i]->tid, 0);
  }
  bool saw_prefill_tokens = false;
  for (const auto& arg : steps[0]->args) {
    saw_prefill_tokens |= arg.key == "prefill_tokens" && arg.value == "512";
  }
  EXPECT_TRUE(saw_prefill_tokens);

  // Registry picked up the simulator and engine counters.
  EXPECT_EQ(metrics.counter("engine.steps")->value(), 5);
  EXPECT_EQ(metrics.counter("engine.prefill_tokens")->value(), 1024);
  EXPECT_EQ(metrics.counter("engine.decode_tokens")->value(), 3);
  EXPECT_GT(metrics.counter("sim.events_fired")->value(), 0);

  // Exports are well-formed and include every event.
  std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"seq.finish\""), std::string::npos);
}

// A second simulator run with no tracer attached takes the identical
// schedule: tracing must be strictly passive.
TEST(TraceGoldenTest, TracerDoesNotPerturbTiming) {
  auto run = [](bool traced) {
    sim::Simulator sim;
    obs::Tracer tracer;
    if (traced) {
      sim.SetTracer(&tracer);
    }
    flowserve::EngineConfig config;
    config.model = model::ModelSpec::Tiny1B();
    config.parallelism = {1, 1, 1};
    config.kv_block_capacity_override = 4096;
    flowserve::Engine engine(&sim, config);
    workload::RequestSpec spec;
    spec.id = 1;
    spec.decode_len = 16;
    std::vector<TokenId> tokens;
    for (int i = 0; i < 700; ++i) {
      tokens.push_back(3000 + i);
    }
    spec.prompt = std::move(tokens);
    TimeNs finish = 0;
    engine.Submit(spec,
                  {nullptr, [&](const flowserve::Sequence& seq) { finish = seq.finish_time; }});
    sim.Run();
    return finish;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace deepserve
