// Scheduling-layer tests (src/flowserve/sched/):
//   * golden-stats parity — the "fcfs" policy must reproduce the pre-refactor
//     engine bit-identically (stats AND per-request timeline hash) across
//     seeds and feature combinations;
//   * policy unit tests — EDF admission ordering, TBT-bounded chunk search,
//     victim selection per policy, shed verdicts;
//   * engine-level behaviour — slo sheds expired/unmeetable requests through
//     on_error exactly once, bounds max_decode_step under the TBT budget, and
//     priority-preempt evicts strictly lower service classes on admission.
#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/time_units.h"
#include "flowserve/engine.h"
#include "flowserve/sched/fcfs_policy.h"
#include "flowserve/sched/priority_policy.h"
#include "flowserve/sched/sched_policy.h"
#include "flowserve/sched/slo_policy.h"
#include "sim/simulator.h"
#include "workload/request.h"

namespace deepserve::flowserve {
namespace {

// ---------------------------------------------------------------------------
// Golden-stats parity: this workload was run against the pre-refactor engine
// (single-file engine.cc, no sched/ layer) and the resulting stats captured
// below. The fcfs policy is the default, so a default-config engine must
// reproduce every value exactly — including the FNV-1a hash over each
// completion's (request id, first-token time, finish time), which pins the
// full per-request timeline, not just the aggregates.
// ---------------------------------------------------------------------------

struct GoldenResult {
  int64_t steps = 0;
  int64_t prefill_tokens = 0;
  int64_t attended_tokens = 0;
  int64_t decode_tokens = 0;
  int64_t reused_tokens = 0;
  int64_t preemptions = 0;
  int64_t completed = 0;
  DurationNs max_decode_step = 0;
  DurationNs npu_busy = 0;
  uint64_t timeline_hash = 0;  // FNV-1a over (id, first_token, finish) in completion order
  TimeNs end_time = 0;
};

GoldenResult RunGoldenWorkload(uint64_t seed, bool pic) {
  sim::Simulator sim;
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.kv_block_capacity_override = 160;  // tight KV: preemptions happen
  config.enable_chunked_prefill = true;
  config.enable_pic = pic;
  flowserve::Engine engine(&sim, config);

  Rng rng(seed * 7919 + 17);
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  GoldenResult result;
  std::vector<std::vector<TokenId>> history;
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    workload::RequestSpec spec;
    spec.id = static_cast<workload::RequestId>(i + 1);
    spec.arrival = SToNs(rng.Uniform(0, 6));
    spec.decode_len = rng.UniformInt(4, 160);
    spec.priority = static_cast<int>(rng.UniformInt(0, 2));
    int64_t len = rng.UniformInt(32, 1500);
    std::vector<TokenId> prompt;
    if (!history.empty() && rng.Bernoulli(0.35)) {
      const auto& prev =
          history[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(history.size()) - 1))];
      size_t keep = static_cast<size_t>(
          std::min<int64_t>(static_cast<int64_t>(prev.size()), rng.UniformInt(16, 512)));
      prompt.assign(prev.begin(), prev.begin() + static_cast<ptrdiff_t>(keep));
    }
    while (static_cast<int64_t>(prompt.size()) < len) {
      prompt.push_back(static_cast<TokenId>(rng.UniformInt(100, 30000)));
    }
    history.push_back(prompt);
    spec.prompt = std::move(prompt);
    sim.ScheduleAt(spec.arrival, [&engine, &result, &mix, spec] {
      engine.Submit(spec, nullptr, [&result, &mix](const flowserve::Sequence& seq) {
        ++result.completed;
        mix(seq.request_id);
        mix(static_cast<uint64_t>(seq.first_token_time));
        mix(static_cast<uint64_t>(seq.finish_time));
      });
    });
  }
  sim.Run();
  const flowserve::EngineStats& stats = engine.stats();
  result.steps = stats.steps;
  result.prefill_tokens = stats.prefill_tokens_processed;
  result.attended_tokens = stats.prefill_attended_tokens;
  result.decode_tokens = stats.decode_tokens_generated;
  result.reused_tokens = stats.reused_tokens;
  result.preemptions = stats.preemptions;
  result.max_decode_step = stats.max_decode_step;
  result.npu_busy = stats.npu_busy;
  result.timeline_hash = hash;
  result.end_time = sim.Now();
  return result;
}

struct GoldenCase {
  uint64_t seed;
  bool pic;
  GoldenResult expect;
};

// Seed 1 was captured from the pre-refactor engine at commit ed15be4; seeds
// 42 and 1337 with static chunking at the commit that removed the adaptive
// chunk controller. Seed 1337 covers position-independent caching.
const GoldenCase kGoldenCases[] = {
    {1ull, false,
     {1980, 33852, 17324365, 3282, 1472, 8, 40, 19036812, 5523138010, 0x358423cef76c9a98ull,
      6713015462}},
    {42ull, false,
     {1872, 32643, 16701199, 2887, 1328, 7, 40, 16740723, 5227001412, 0x865bca279ab76d73ull,
      6624205926}},
    {1337ull, true,
     {2168, 37115, 19204159, 3496, 560, 13, 40, 18449702, 6055942013, 0x33aa4ed1e8c0a975ull,
      7254044811}},
};

TEST(EngineSchedGoldenTest, FcfsParityIsBitIdentical) {
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE("seed=" + std::to_string(c.seed) + " pic=" + std::to_string(c.pic));
    GoldenResult r = RunGoldenWorkload(c.seed, c.pic);
    EXPECT_EQ(r.steps, c.expect.steps);
    EXPECT_EQ(r.prefill_tokens, c.expect.prefill_tokens);
    EXPECT_EQ(r.attended_tokens, c.expect.attended_tokens);
    EXPECT_EQ(r.decode_tokens, c.expect.decode_tokens);
    EXPECT_EQ(r.reused_tokens, c.expect.reused_tokens);
    EXPECT_EQ(r.preemptions, c.expect.preemptions);
    EXPECT_EQ(r.completed, c.expect.completed);
    EXPECT_EQ(r.max_decode_step, c.expect.max_decode_step);
    EXPECT_EQ(r.npu_busy, c.expect.npu_busy);
    EXPECT_EQ(r.timeline_hash, c.expect.timeline_hash);
    EXPECT_EQ(r.end_time, c.expect.end_time);
  }
}

// ---------------------------------------------------------------------------
// Policy factory
// ---------------------------------------------------------------------------

TEST(SchedPolicyFactoryTest, BuildsEveryKnownPolicy) {
  for (const char* name : {"fcfs", "slo", "priority-preempt"}) {
    sched::SchedConfig config;
    config.policy = name;
    auto policy = sched::MakeSchedPolicy(config);
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    EXPECT_EQ((*policy)->name(), name);
  }
}

TEST(SchedPolicyFactoryTest, RejectsUnknownPolicy) {
  sched::SchedConfig config;
  config.policy = "shortest-job-first";
  auto policy = sched::MakeSchedPolicy(config);
  EXPECT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchedPolicyFactoryTest, FcfsNeverWantsShedChecks) {
  sched::FcfsPolicy fcfs;
  EXPECT_FALSE(fcfs.WantsShedChecks());
  Sequence seq;
  EXPECT_FALSE(fcfs.AdmissionMayPreempt(seq));
  // Default verdict is always OK (fcfs never sheds), even past a deadline.
  seq.deadline = 1;
  EXPECT_TRUE(fcfs.ShedVerdict(seq, MsToNs(100), 0).ok());
}

// ---------------------------------------------------------------------------
// Admission ordering
// ---------------------------------------------------------------------------

Sequence MakeSeq(workload::RequestId id, int priority, TimeNs enqueue, TimeNs deadline = 0) {
  Sequence seq;
  seq.request_id = id;
  seq.priority = priority;
  seq.enqueue_time = enqueue;
  seq.deadline = deadline;
  seq.state = SeqState::kQueued;
  return seq;
}

TEST(FcfsPolicyTest, AdmissionOrdersByPriorityThenEnqueueTime) {
  sched::FcfsPolicy policy;
  Sequence a = MakeSeq(1, 1, 100);
  Sequence b = MakeSeq(2, 0, 300);  // higher class wins despite later enqueue
  Sequence c = MakeSeq(3, 0, 200);  // ...but earlier enqueue wins within class
  std::deque<Sequence*> ready = {&a, &b, &c};
  EXPECT_EQ((*policy.NextAdmission(ready, 0))->request_id, 3);
  ready = {&a, &b};
  EXPECT_EQ((*policy.NextAdmission(ready, 0))->request_id, 2);
  ready = {&a};
  EXPECT_EQ((*policy.NextAdmission(ready, 0))->request_id, 1);
}

TEST(SloPolicyTest, AdmissionIsEarliestDeadlineFirst) {
  sched::SchedConfig config;
  config.policy = "slo";
  sched::SloPolicy policy(config);
  Sequence a = MakeSeq(1, 0, 100, SToNs(9));
  Sequence b = MakeSeq(2, 2, 300, SToNs(3));  // earliest deadline, worst class
  Sequence c = MakeSeq(3, 1, 200, 0);               // no deadline = last
  std::deque<Sequence*> ready = {&a, &b, &c};
  EXPECT_EQ((*policy.NextAdmission(ready, 0))->request_id, 2);
  ready = {&a, &c};
  EXPECT_EQ((*policy.NextAdmission(ready, 0))->request_id, 1);
}

TEST(SloPolicyTest, AdmissionTiesFallBackToFcfsOrder) {
  sched::SchedConfig config;
  config.policy = "slo";
  sched::SloPolicy policy(config);
  // Same deadline: priority breaks the tie, then enqueue time.
  Sequence a = MakeSeq(1, 1, 100, SToNs(5));
  Sequence b = MakeSeq(2, 0, 300, SToNs(5));
  std::deque<Sequence*> ready = {&a, &b};
  EXPECT_EQ((*policy.NextAdmission(ready, 0))->request_id, 2);
  // No deadlines at all degenerates to pure fcfs.
  Sequence d = MakeSeq(4, 1, 50);
  Sequence e = MakeSeq(5, 1, 40);
  ready = {&d, &e};
  EXPECT_EQ((*policy.NextAdmission(ready, 0))->request_id, 5);
}

// ---------------------------------------------------------------------------
// Chunk bounding
// ---------------------------------------------------------------------------

TEST(SloPolicyTest, BoundChunkFindsLargestChunkUnderBudget) {
  sched::SchedConfig config;
  config.policy = "slo";
  config.tbt_budget_ms = 30.0;
  sched::SloPolicy policy(config);
  Sequence seq = MakeSeq(1, 1, 0, SToNs(10));
  // 1 ms per token: the largest chunk under a 30 ms budget is exactly 30.
  auto linear = [](int64_t chunk) { return MsToNs(1) * chunk; };
  EXPECT_EQ(policy.BoundChunk(seq, 100, /*step_has_decode=*/true, linear), 30);
  // Already under budget: untouched.
  EXPECT_EQ(policy.BoundChunk(seq, 20, true, linear), 20);
  // Even a single token would blow the budget: skip prefill this step.
  auto huge = [](int64_t chunk) { return MsToNs(40) * std::max<int64_t>(chunk, 1); };
  EXPECT_EQ(policy.BoundChunk(seq, 100, true, huge), 0);
  // No decode in the step: nothing to protect, full chunk goes through.
  EXPECT_EQ(policy.BoundChunk(seq, 100, /*step_has_decode=*/false, huge), 100);
}

TEST(SloPolicyTest, BoundChunkWithoutBudgetIsIdentity) {
  sched::SchedConfig config;
  config.policy = "slo";
  config.tbt_budget_ms = 0.0;
  sched::SloPolicy policy(config);
  Sequence seq = MakeSeq(1, 1, 0);
  auto huge = [](int64_t chunk) { return MsToNs(1000) * std::max<int64_t>(chunk, 1); };
  EXPECT_EQ(policy.BoundChunk(seq, 512, true, huge), 512);
}

// ---------------------------------------------------------------------------
// Victim selection
// ---------------------------------------------------------------------------

TEST(FcfsPolicyTest, VictimIsLowestClassNewestArrival) {
  sched::FcfsPolicy policy;
  Sequence keep = MakeSeq(99, 0, 0);
  Sequence a = MakeSeq(1, 1, 100);
  Sequence b = MakeSeq(2, 2, 50);  // lowest class: preferred victim
  Sequence c = MakeSeq(3, 2, 80);  // same class, newer: wins
  std::vector<Sequence*> candidates = {&a, &b, &c};
  EXPECT_EQ(policy.PickVictim(candidates, keep, sched::PreemptReason::kDecodeGrowth), &c);
  EXPECT_EQ(policy.PickVictim({}, keep, sched::PreemptReason::kDecodeGrowth), nullptr);
}

TEST(SloPolicyTest, VictimHasFarthestDeadline) {
  sched::SchedConfig config;
  config.policy = "slo";
  sched::SloPolicy policy(config);
  Sequence keep = MakeSeq(99, 0, 0, SToNs(1));
  Sequence a = MakeSeq(1, 1, 100, SToNs(2));
  Sequence b = MakeSeq(2, 1, 50, SToNs(8));  // farthest deadline: victim
  Sequence c = MakeSeq(3, 1, 80, SToNs(5));
  std::vector<Sequence*> candidates = {&a, &b, &c};
  EXPECT_EQ(policy.PickVictim(candidates, keep, sched::PreemptReason::kDecodeGrowth), &b);
  // A sequence with no deadline is the first pick over any dated one.
  Sequence d = MakeSeq(4, 1, 10, 0);
  candidates = {&a, &b, &d};
  EXPECT_EQ(policy.PickVictim(candidates, keep, sched::PreemptReason::kDecodeGrowth), &d);
}

TEST(PriorityPolicyTest, AdmissionVictimMustBeStrictlyLowerClass) {
  sched::PriorityPreemptPolicy policy;
  Sequence keep = MakeSeq(99, 1, 0);
  Sequence peer = MakeSeq(1, 1, 100);   // equal class: protected from admission
  Sequence batch = MakeSeq(2, 2, 50);   // strictly lower class: eligible
  Sequence inter = MakeSeq(3, 0, 200);  // higher class: protected
  std::vector<Sequence*> candidates = {&peer, &batch, &inter};
  EXPECT_EQ(policy.PickVictim(candidates, keep, sched::PreemptReason::kAdmission), &batch);
  // No strictly-lower class available: decline rather than evict a peer.
  candidates = {&peer, &inter};
  EXPECT_EQ(policy.PickVictim(candidates, keep, sched::PreemptReason::kAdmission), nullptr);
  // Decode growth keeps the fcfs liveness rule: peers are fair game.
  EXPECT_EQ(policy.PickVictim(candidates, keep, sched::PreemptReason::kDecodeGrowth), &peer);
  EXPECT_TRUE(policy.AdmissionMayPreempt(keep));
}

// ---------------------------------------------------------------------------
// Shed verdicts
// ---------------------------------------------------------------------------

TEST(SloPolicyTest, ShedVerdictExpiredAndUnmeetable) {
  sched::SchedConfig config;
  config.policy = "slo";
  sched::SloPolicy policy(config);
  Sequence none = MakeSeq(1, 1, 0, 0);
  EXPECT_TRUE(policy.ShedVerdict(none, SToNs(100), SToNs(100)).ok());

  Sequence dated = MakeSeq(2, 1, 0, SToNs(5));
  // Comfortably meetable.
  EXPECT_TRUE(policy.ShedVerdict(dated, SToNs(1), SToNs(1)).ok());
  // Expired outright.
  EXPECT_EQ(policy.ShedVerdict(dated, SToNs(6), 0).code(), StatusCode::kDeadlineExceeded);
  // Not yet expired, but the remaining-service lower bound overshoots.
  EXPECT_EQ(policy.ShedVerdict(dated, SToNs(4), SToNs(2)).code(),
            StatusCode::kDeadlineExceeded);
}

TEST(SloPolicyTest, ShedVerdictRespectsConfigGates) {
  sched::SchedConfig config;
  config.policy = "slo";
  config.shed_expired = false;
  config.shed_unmeetable = false;
  sched::SloPolicy policy(config);
  Sequence dated = MakeSeq(1, 1, 0, SToNs(5));
  EXPECT_TRUE(policy.ShedVerdict(dated, SToNs(6), SToNs(100)).ok());
}

// ---------------------------------------------------------------------------
// Engine-level behaviour
// ---------------------------------------------------------------------------

EngineConfig TinyEngineConfig() {
  EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.enable_chunked_prefill = true;
  return config;
}

workload::RequestSpec MakeSpec(workload::RequestId id, int64_t prompt_len, int64_t decode_len,
                               TimeNs deadline = 0, int priority = 1) {
  workload::RequestSpec spec;
  spec.id = id;
  spec.decode_len = decode_len;
  spec.deadline = deadline;
  spec.priority = priority;
  spec.prompt.reserve(static_cast<size_t>(prompt_len));
  for (int64_t i = 0; i < prompt_len; ++i) {
    spec.prompt.push_back(static_cast<TokenId>(1000 + (id * 7919 + i * 31) % 20000));
  }
  return spec;
}

TEST(EngineSchedTest, SloShedsExpiredQueuedRequestExactlyOnce) {
  sim::Simulator sim;
  EngineConfig config = TinyEngineConfig();
  config.sched.policy = "slo";
  Engine engine(&sim, config);

  int completions = 0;
  int errors = 0;
  Status last_error;
  bool missed_completion_deadline = false;

  // Request 1: deadline of 1 ns — expired the moment it reaches the ready
  // queue. Request 2: generous deadline — must complete normally.
  workload::RequestSpec doomed = MakeSpec(1, 600, 30, /*deadline=*/1);
  workload::RequestSpec fine = MakeSpec(2, 200, 10, /*deadline=*/SToNs(300));
  engine.Submit(
      doomed, nullptr, [&](const Sequence&) { ++completions; },
      [&](const Sequence& seq, const Status& status) {
        ++errors;
        last_error = status;
        EXPECT_EQ(seq.request_id, 1);
      });
  engine.Submit(
      fine, nullptr,
      [&](const Sequence& seq) {
        ++completions;
        missed_completion_deadline = seq.finish_time > seq.deadline;
      },
      [&](const Sequence&, const Status&) { ++errors; });
  sim.Run();

  EXPECT_EQ(errors, 1);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(last_error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(missed_completion_deadline);
  EXPECT_EQ(engine.stats().shed, 1);
  EXPECT_GE(engine.stats().deadline_misses, 1);
  EXPECT_EQ(engine.stats().completed, 1);
  EXPECT_TRUE(engine.idle());
}

TEST(EngineSchedTest, SloShedsRequestThatExpiresMidDecode) {
  sim::Simulator sim;
  EngineConfig config = TinyEngineConfig();
  config.sched.policy = "slo";
  // Only shed on observed expiry, so the request is allowed to start decoding
  // and is caught in flight rather than rejected up front as unmeetable.
  config.sched.shed_unmeetable = false;
  Engine engine(&sim, config);

  int completions = 0;
  int errors = 0;
  int64_t generated_at_shed = -1;
  // 5000 decode tokens cannot finish within 500 ms on Tiny1B; the sequence
  // must be shed while decoding.
  workload::RequestSpec spec = MakeSpec(1, 128, 5000, MsToNs(500));
  engine.Submit(
      spec, nullptr, [&](const Sequence&) { ++completions; },
      [&](const Sequence& seq, const Status& status) {
        ++errors;
        generated_at_shed = seq.generated;
        EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
      });
  sim.Run();

  EXPECT_EQ(errors, 1);
  EXPECT_EQ(completions, 0);
  EXPECT_GT(generated_at_shed, 0) << "expected the shed to interrupt an in-flight decode";
  EXPECT_LT(generated_at_shed, 5000);
  EXPECT_EQ(engine.stats().shed, 1);
  EXPECT_TRUE(engine.idle());
}

// Shared workload for the TBT-bounding comparison: one short interactive
// request decoding while a train of long prompts prefills behind it.
EngineStats RunTbtWorkload(const std::string& policy, double tbt_budget_ms) {
  sim::Simulator sim;
  EngineConfig config = TinyEngineConfig();
  config.prefill_chunk_tokens = 8192;  // no mechanical chunk cap to hide behind
  config.max_tokens_per_step = 16384;
  config.sched.policy = policy;
  config.sched.tbt_budget_ms = tbt_budget_ms;
  Engine engine(&sim, config);

  int completions = 0;
  workload::RequestSpec inter = MakeSpec(1, 64, 400);
  const int kLongPrompts = 4;
  sim.ScheduleAt(0, [&engine, &completions, inter] {
    engine.Submit(inter, nullptr, [&](const Sequence&) { ++completions; });
  });
  for (int i = 0; i < kLongPrompts; ++i) {
    workload::RequestSpec spec = MakeSpec(static_cast<workload::RequestId>(i + 2), 6000, 4);
    spec.arrival = MsToNs(200 + 150 * i);
    sim.ScheduleAt(spec.arrival, [&engine, &completions, spec] {
      engine.Submit(spec, nullptr, [&](const Sequence&) { ++completions; });
    });
  }
  sim.Run();
  EXPECT_EQ(completions, 1 + kLongPrompts);
  return engine.stats();
}

TEST(EngineSchedTest, SloBoundsMaxDecodeStepUnderTbtBudget) {
  const double kBudgetMs = 15.0;
  EngineStats fcfs = RunTbtWorkload("fcfs", 0.0);
  EngineStats slo = RunTbtWorkload("slo", kBudgetMs);

  // fcfs happily schedules a 6000-token chunk next to the running decode, so
  // some decode-bearing step far exceeds the budget; slo caps every mixed
  // step's predicted duration at the budget.
  EXPECT_GT(fcfs.max_decode_step, MsToNs(kBudgetMs));
  EXPECT_LE(slo.max_decode_step, MsToNs(kBudgetMs));
  EXPECT_LT(slo.max_decode_step, fcfs.max_decode_step);
  EXPECT_EQ(slo.tbt_violations, 0);
  // Nothing had a deadline, so the slo run must not shed anything.
  EXPECT_EQ(slo.shed, 0);
}

TEST(EngineSchedTest, SloRunsAreBitIdenticalPerSeed) {
  auto run = [] {
    sim::Simulator sim;
    EngineConfig config = TinyEngineConfig();
    config.sched.policy = "slo";
    config.sched.tbt_budget_ms = 25.0;
    Engine engine(&sim, config);
    Rng rng(271828);
    uint64_t hash = 1469598103934665603ull;
    auto mix = [&hash](uint64_t v) {
      hash ^= v;
      hash *= 1099511628211ull;
    };
    for (int i = 0; i < 24; ++i) {
      workload::RequestSpec spec =
          MakeSpec(static_cast<workload::RequestId>(i + 1), rng.UniformInt(64, 900),
                   rng.UniformInt(4, 80), /*deadline=*/SToNs(rng.Uniform(0.2, 4.0)));
      spec.arrival = SToNs(rng.Uniform(0, 2));
      sim.ScheduleAt(spec.arrival, [&engine, &mix, spec] {
        engine.Submit(
            spec, nullptr,
            [&mix](const Sequence& seq) {
              mix(seq.request_id * 2);
              mix(static_cast<uint64_t>(seq.finish_time));
            },
            [&mix](const Sequence& seq, const Status&) {
              mix(seq.request_id * 2 + 1);
              mix(static_cast<uint64_t>(seq.finish_time));
            });
      });
    }
    sim.Run();
    mix(static_cast<uint64_t>(engine.stats().shed));
    mix(static_cast<uint64_t>(sim.Now()));
    return hash;
  };
  EXPECT_EQ(run(), run());
}

TEST(EngineSchedTest, PriorityPreemptEvictsLowerClassOnAdmission) {
  auto run = [](const std::string& policy, TimeNs* inter_first_token) {
    sim::Simulator sim;
    EngineConfig config = TinyEngineConfig();
    config.sched.policy = policy;
    config.kv_block_capacity_override = 40;  // 640 KV tokens: forced contention
    Engine engine(&sim, config);
    int completions = 0;
    workload::RequestSpec batch = MakeSpec(1, 400, 100, 0, /*priority=*/2);
    workload::RequestSpec inter = MakeSpec(2, 300, 20, 0, /*priority=*/0);
    inter.arrival = MsToNs(100);
    engine.Submit(batch, nullptr, [&](const Sequence&) { ++completions; });
    sim.ScheduleAt(inter.arrival, [&engine, &completions, inter, inter_first_token] {
      engine.Submit(
          inter,
          [inter_first_token](const Sequence& seq) { *inter_first_token = seq.first_token_time; },
          [&completions](const Sequence&) { ++completions; });
    });
    sim.Run();
    EXPECT_EQ(completions, 2);
    return engine.stats();
  };

  TimeNs fcfs_first_token = 0;
  TimeNs preempt_first_token = 0;
  EngineStats fcfs = run("fcfs", &fcfs_first_token);
  EngineStats preempt = run("priority-preempt", &preempt_first_token);

  // fcfs admission never steals KV from running work, so the interactive
  // request waits for the batch job; priority-preempt evicts it instead.
  EXPECT_EQ(fcfs.preemptions, 0);
  EXPECT_GE(preempt.preemptions, 1);
  EXPECT_GT(fcfs_first_token, 0);
  EXPECT_GT(preempt_first_token, 0);
  EXPECT_LT(preempt_first_token, fcfs_first_token);
}

}  // namespace
}  // namespace deepserve::flowserve
