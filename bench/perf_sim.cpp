// DES core throughput harness: replays synthetic event workloads and a
// full-stack trace against the binary-heap simulator and records
// wall-clock throughput into a tracked JSON artifact (BENCH_perf.json).
//
// Scenarios:
//   event_churn    N self-rescheduling event chains (the shape of engine step
//                  loops): pure schedule->fire cycling, no cancellations.
//   cancel_storm   timer-storm pattern (deadline guards, retry timers): large
//                  batches scheduled and ~90% cancelled before firing. Runs
//                  interleaved with event_churn, so their throughput ratio is
//                  measured by one harness under the same host load.
//   replay_scale   the full serving stack: 64 tiny colocated TEs behind one JE
//                  on a Poisson trace at 200 rps over three trace lengths (x1,
//                  x2, x4), each replayed three times, interleaved: host
//                  microseconds per request at each (its fastest round),
//                  `growth`, the x4 figure over the x1 one, and whether every
//                  round produced the same timelines.
//
// Per synthetic scenario the JSON records `events_per_sec` (events through
// the queue per wall second) and `sim_seconds_per_wall_second` (virtual-time
// compression); cancel_storm adds `ratio_vs_churn`. Each replay_scale point
// records its request counts, events fired, cost per request and
// `timeline_hash`; the scenario adds `growth` and `replay_identical`.
//
// Flags (plus the ObsSession observability flags):
//   --out=PATH   JSON artifact path (default BENCH_perf.json)
//   --seed=N     workload seed (default 42)
//   --smoke      smaller sizes for CI; exits non-zero unless (a) all
//                replay_scale rounds agree at every length on timeline hash,
//                final sim clock and events fired, and every point completes
//                a request, (b) cancel_storm reaches >= 0.48x event_churn's
//                events/sec, and (c) replay_scale's growth stays <= 1.8x. A
//                failed growth gate prints every round's cost per request.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "model/model_spec.h"
#include "workload/tracegen.h"

using namespace deepserve;

namespace {

// The one wall-clock read in the tree: this harness measures how fast the
// simulator burns through virtual time, which is inherently a wall-time
// question. Nothing simulated ever reads it.
double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now()  // ds-lint: allow(banned-type, perf harness measures wall throughput; no simulated behavior reads the wall clock)
                 .time_since_epoch())
      .count();
}

struct Options {
  std::string out = "BENCH_perf.json";
  uint64_t seed = 42;
  bool smoke = false;
};

uint64_t NextRand(uint64_t* state) {
  *state = *state * 6364136223846793005ull + 1442695040888963407ull;
  return *state >> 33;
}

struct ScenarioResult {
  uint64_t events = 0;  // events through the queue (see each scenario)
  TimeNs sim_end = 0;
  double wall_s = 0;

  double events_per_sec() const { return static_cast<double>(events) / std::max(wall_s, 1e-9); }
  double sim_per_wall() const { return NsToS(sim_end) / std::max(wall_s, 1e-9); }
};

// ---------------------------------------------------------------------------
// event_churn: `actors` independent chains, each firing re-arms itself at a
// pseudo-random gap until the shared fire budget is spent. The closure
// carries two payload words on top of (this, actor) — the size of a typical
// engine-step capture — which keeps SmallFn inline, exactly as in the real
// tree.
class ChurnScenario {
 public:
  ChurnScenario(sim::Simulator* sim, int actors, uint64_t target, uint64_t seed)
      : sim_(sim), target_(target) {
    states_.reserve(static_cast<size_t>(actors));
    for (int a = 0; a < actors; ++a) {
      states_.push_back(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(a) + 1);
      Arm(a);
    }
  }

  uint64_t fired() const { return fired_; }
  uint64_t sink() const { return sink_; }

 private:
  void Arm(int actor) {
    DurationNs gap = 1 + static_cast<DurationNs>(NextRand(&states_[static_cast<size_t>(actor)]) % 5000);
    uint64_t p0 = states_[static_cast<size_t>(actor)];
    uint64_t p1 = p0 ^ 0xabcdefull;
    sim_->ScheduleAfter(gap, [this, actor, p0, p1] {
      sink_ += p0 ^ p1;
      ++fired_;
      if (fired_ < target_) {
        Arm(actor);
      }
    });
  }

  sim::Simulator* sim_;
  uint64_t target_;
  uint64_t fired_ = 0;
  uint64_t sink_ = 0;
  std::vector<uint64_t> states_;
};

ScenarioResult RunChurn(int actors, uint64_t target, uint64_t seed) {
  sim::Simulator sim;
  ScenarioResult r;
  double w0 = WallSeconds();
  ChurnScenario churn(&sim, actors, target, seed);
  sim.Run();
  r.wall_s = WallSeconds() - w0;
  r.events = churn.fired();
  r.sim_end = sim.Now();
  if (churn.sink() == 0xdeadbeef) {  // defeat dead-code elimination
    std::fprintf(stderr, "sink collision\n");
  }
  return r;
}

// ---------------------------------------------------------------------------
// cancel_storm: the deadline-guard pattern every request carries (TTFT/TBT
// timeout timers, retry guards). Each round schedules a batch of timers —
// most of them guards ~1s out, a fifth near-term work — then "completes" 90%
// of the guards, cancelling them long before they are due, and advances
// 100us. The event queue tombstones in O(1) and compacts the tombstones out
// of its heap whenever they outnumber live entries; a lazy-deletion heap
// would instead keep every cancelled guard until its timestamp, every
// push/pop paying O(log n) over mostly-dead entries. `events` counts scheduled events — each one's full
// lifecycle (schedule + cancel, or schedule + fire) passes through the queue,
// so its events/sec is comparable with event_churn's schedule + fire.
ScenarioResult RunStorm(int rounds, int batch, uint64_t seed) {
  sim::Simulator sim;
  ScenarioResult r;
  std::vector<uint64_t> guards;
  guards.reserve(static_cast<size_t>(batch));
  uint64_t state = seed + 0x5deece66dull;
  uint64_t sink = 0;
  double w0 = WallSeconds();
  for (int round = 0; round < rounds; ++round) {
    guards.clear();
    for (int i = 0; i < batch; ++i) {
      uint64_t p0 = NextRand(&state);
      uint64_t p1 = p0 ^ 0x1234567ull;
      if (i % 5 == 4) {
        // Near-term work timer: fires inside this round's window.
        DurationNs gap = 1 + static_cast<DurationNs>(p0 % 100000);
        sim.ScheduleAfter(gap, [&sink, p0, p1, i] { sink += p0 ^ p1 ^ static_cast<uint64_t>(i); });
      } else {
        // Deadline guard ~1s out — due only if the request were to stall.
        DurationNs gap = SToNs(1) + static_cast<DurationNs>(p0 % 100000);
        guards.push_back(sim.ScheduleAfter(
            gap, [&sink, p0, p1, i] { sink += p0 ^ p1 ^ static_cast<uint64_t>(i); }));
      }
    }
    for (size_t g = 0; g < guards.size(); ++g) {
      if (g % 10 != 9) {  // 90% of requests complete well before the deadline
        sim.Cancel(guards[g]);
      }
    }
    sim.RunUntil(sim.Now() + UsToNs(100));
  }
  sim.Run();  // survivors fire at their deadlines
  r.wall_s = WallSeconds() - w0;
  r.events = static_cast<uint64_t>(rounds) * static_cast<uint64_t>(batch);
  r.sim_end = sim.Now();
  if (sink == 0xdeadbeef) {
    std::fprintf(stderr, "sink collision\n");
  }
  return r;
}

// ---------------------------------------------------------------------------
// replay_scale: the full serving stack on tiny engines — 64 colocated TEs,
// one JE, Poisson trace at a fixed 200 rps over three trace lengths (x1, x2,
// x4). Events here are real engine-step/JE/DistFlow chains. Host cost per
// request must stay flat as the trace grows; `growth` is the longest trace's
// cost per request over the shortest's.
flowserve::EngineConfig TinyEngine() {
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.role = flowserve::EngineRole::kColocated;
  config.kv_block_capacity_override = 4096;
  return config;
}

struct ReplayResult {
  ScenarioResult perf;
  uint64_t timeline_hash = 0;
  size_t requests = 0;
  size_t completed = 0;

  // The same replay: same timelines, same final clock, same event count.
  bool SameAs(const ReplayResult& other) const {
    return timeline_hash == other.timeline_hash && perf.sim_end == other.perf.sim_end &&
           perf.events == other.perf.events;
  }
  double us_per_request() const {
    return perf.wall_s * 1e6 / static_cast<double>(std::max<size_t>(requests, 1));
  }
};

ReplayResult RunReplay(int tes, double rps, double duration_s, uint64_t seed) {
  workload::TraceConfig trace_config = workload::TraceGenerator::InternalTrace(rps, duration_s, seed);
  std::vector<workload::RequestSpec> trace = workload::TraceGenerator(trace_config).Generate();

  bench::Testbed bed(/*num_machines=*/(tes + 7) / 8);
  bed.BuildFleet(TinyEngine(), /*colocated=*/tes, /*prefill=*/0, /*decode=*/0);

  ReplayResult r;
  r.requests = trace.size();
  uint64_t fired_before = bed.sim().TotalFired();
  double w0 = WallSeconds();
  workload::MetricsCollector metrics = bed.Replay(trace);
  r.perf.wall_s = WallSeconds() - w0;
  r.perf.events = bed.sim().TotalFired() - fired_before;
  r.perf.sim_end = bed.sim().Now();
  r.completed = metrics.completed();

  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (const workload::RequestRecord& record : metrics.records()) {
    mix(static_cast<uint64_t>(record.id));
    mix(static_cast<uint64_t>(record.first_token));
    mix(static_cast<uint64_t>(record.completion));
  }
  mix(static_cast<uint64_t>(r.perf.sim_end));
  r.timeline_hash = hash;
  return r;
}

// `reps` rounds over all three lengths, interleaved (x1, x2, x4, x1, ...).
// Each point keeps its fastest round, so a few seconds of host slowdown
// cannot land on one length alone, and every round must be the same replay
// at every length.
struct ScaleRun {
  std::vector<ReplayResult> points;
  std::vector<std::vector<double>> round_us;  // per point, each round's us/request
  bool identical = true;
};

ScaleRun RunReplayScale(int tes, double base_duration_s, uint64_t seed, int reps) {
  constexpr std::array<double, 3> kFactors = {1.0, 2.0, 4.0};
  ScaleRun run;
  run.points.resize(kFactors.size());
  run.round_us.resize(kFactors.size());
  for (int round = 0; round < reps; ++round) {
    for (size_t i = 0; i < kFactors.size(); ++i) {
      ReplayResult r = RunReplay(tes, /*rps=*/200.0, base_duration_s * kFactors[i], seed);
      run.round_us[i].push_back(r.us_per_request());
      if (round == 0) {
        run.points[i] = r;
        continue;
      }
      run.identical = run.identical && r.SameAs(run.points[i]);
      run.points[i].perf.wall_s = std::min(run.points[i].perf.wall_s, r.perf.wall_s);
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
void PrintRow(const char* name, const ScenarioResult& r) {
  std::printf("%-14s %12" PRIu64 " %10.3f %14.0f %16.1f\n", name, r.events, r.wall_s,
              r.events_per_sec(), r.sim_per_wall());
}

int RunAll(const Options& opt) {
  const int churn_actors = 256;
  const uint64_t churn_target = opt.smoke ? 400000 : 4000000;
  const int storm_rounds = opt.smoke ? 100 : 300;
  const int storm_batch = opt.smoke ? 5000 : 10000;
  const int tes = 64;
  // 2.4k / 5k / 9.9k requests in smoke mode, 25k / 50k / 100k in full.
  const double scale_base_s = opt.smoke ? 12.5 : 125.0;
  // Floor on cancel_storm's events/sec over event_churn's. Over 42 smoke
  // runs on a 4-vCPU host an earlier calendar queue read 0.69-1.46; a
  // lazy-deletion binary heap (std::priority_queue + unordered_set of
  // cancelled ids + std::function callbacks) read 0.19-0.33 against its own
  // churn. The floor is the geometric mean of 0.69 and 0.33. The binary heap
  // that compacts its tombstones clears it: 0.63-0.85 over 16 smoke runs on
  // the same host.
  const double min_storm_ratio = 0.48;
  // A JE that walks its whole prompt tree per dispatch grows ~2.7x here; one
  // that tallies every tag on the match path, with a swap scan that re-walks
  // leaves already demoted to DRAM, ~1.5x. The deepest-first pick and the
  // active-only swap scan measure ~1.3x.
  const double max_scale_growth = 1.8;

  bench::PrintHeader("perf_sim: DES core throughput (events/sec, sim-s per wall-s)");
  std::printf("%-14s %12s %10s %14s %16s\n", "scenario", "events", "wall(s)", "events/sec",
              "sim-s/wall-s");
  bench::PrintRule();

  // Wall-clock noise on a shared CI machine can dwarf one ~0.05s measurement.
  // The two scenarios run interleaved (churn, storm, churn, storm, …) so a
  // load spike lands on both sides of their ratio, and each keeps its
  // least-contended rep. Both are deterministic, so only the wall time
  // differs between reps.
  const int reps = 3;
  ScenarioResult churn = RunChurn(churn_actors, churn_target, opt.seed);
  ScenarioResult storm = RunStorm(storm_rounds, storm_batch, opt.seed);
  for (int rep = 1; rep < reps; ++rep) {
    churn.wall_s = std::min(churn.wall_s, RunChurn(churn_actors, churn_target, opt.seed).wall_s);
    storm.wall_s = std::min(storm.wall_s, RunStorm(storm_rounds, storm_batch, opt.seed).wall_s);
  }
  PrintRow("event_churn", churn);
  PrintRow("cancel_storm", storm);
  double storm_ratio = storm.events_per_sec() / std::max(churn.events_per_sec(), 1e-9);
  std::printf("cancel_storm / event_churn events/sec: %.2fx\n", storm_ratio);

  ScaleRun scale = RunReplayScale(tes, scale_base_s, opt.seed, reps);
  const ReplayResult& first = scale.points.front();
  const ReplayResult& last = scale.points.back();
  double scale_growth = last.us_per_request() / std::max(first.us_per_request(), 1e-9);
  bool all_completed = true;
  for (const ReplayResult& point : scale.points) {
    std::printf("replay_scale: %6zu requests %6zu completed %8.1f us/request  timeline %016" PRIx64
                "\n",
                point.requests, point.completed, point.us_per_request(), point.timeline_hash);
    all_completed = all_completed && point.completed > 0;
  }
  std::printf("replay_scale: growth %.2fx (x4 trace over x1, cost per request), %s\n",
              scale_growth, scale.identical ? "every round bit-identical" : "ROUNDS DIVERGED");

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_sim: cannot open %s\n", opt.out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"perf_sim\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", opt.smoke ? "smoke" : "full");
  std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", opt.seed);
  std::fprintf(f, "  \"scenarios\": {\n");
  std::fprintf(f,
               "    \"event_churn\": {\"events_fired\": %" PRIu64
               ", \"wall_seconds\": %.6f, \"events_per_sec\": %.1f, "
               "\"sim_seconds_per_wall_second\": %.3f},\n",
               churn.events, churn.wall_s, churn.events_per_sec(), churn.sim_per_wall());
  std::fprintf(f,
               "    \"cancel_storm\": {\"events_scheduled\": %" PRIu64
               ", \"wall_seconds\": %.6f, \"events_per_sec\": %.1f, "
               "\"sim_seconds_per_wall_second\": %.3f, \"ratio_vs_churn\": %.3f},\n",
               storm.events, storm.wall_s, storm.events_per_sec(), storm.sim_per_wall(),
               storm_ratio);
  std::fprintf(f, "    \"replay_scale\": {\"tes\": %d, \"rps\": 200, \"points\": [", tes);
  for (size_t i = 0; i < scale.points.size(); ++i) {
    const ReplayResult& point = scale.points[i];
    std::fprintf(f,
                 "%s{\"requests\": %zu, \"completed\": %zu, \"events_fired\": %" PRIu64
                 ", \"us_per_request\": %.1f, \"timeline_hash\": \"%016" PRIx64 "\"}",
                 i > 0 ? ", " : "", point.requests, point.completed, point.perf.events,
                 point.us_per_request(), point.timeline_hash);
  }
  std::fprintf(f, "], \"growth\": %.3f, \"replay_identical\": %s}\n", scale_growth,
               scale.identical ? "true" : "false");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "perf_sim: wrote %s\n", opt.out.c_str());

  if (opt.smoke) {
    if (!scale.identical) {
      std::fprintf(stderr, "SMOKE FAIL: a replay_scale round diverged from the first\n");
      return 1;
    }
    if (!all_completed) {
      std::fprintf(stderr, "SMOKE FAIL: a replay_scale point completed no requests\n");
      return 1;
    }
    if (storm_ratio < min_storm_ratio) {
      std::fprintf(stderr,
                   "SMOKE FAIL: cancel_storm reached %.2fx event_churn's events/sec, floor "
                   "%.2fx (%.0f vs %.0f events/sec)\n",
                   storm_ratio, min_storm_ratio, storm.events_per_sec(), churn.events_per_sec());
      return 1;
    }
    if (scale_growth > max_scale_growth) {
      std::fprintf(stderr,
                   "SMOKE FAIL: replay_scale cost per request grew %.2fx from %zu to %zu "
                   "requests (limit %.1fx)\n",
                   scale_growth, first.requests, last.requests, max_scale_growth);
      for (size_t i = 0; i < scale.points.size(); ++i) {
        std::fprintf(stderr, "  %zu requests:", scale.points[i].requests);
        for (double us : scale.round_us[i]) {
          std::fprintf(stderr, " %.1f", us);
        }
        std::fprintf(stderr, " us/request per round\n");
      }
      return 1;
    }
    std::fprintf(stderr,
                 "smoke OK: replay_scale bit-identical, cancel_storm %.2fx event_churn, "
                 "replay_scale growth %.2fx\n",
                 storm_ratio, scale_growth);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::OptionRegistry registry;
  registry.Flag("out", &opt.out, "machine-readable result JSON path");
  registry.Flag("seed", &opt.seed, "workload seed");
  registry.Flag("smoke", &opt.smoke,
                "fast run; exits non-zero unless replay_scale's rounds are all "
                "bit-identical, cancel_storm keeps pace with event_churn, and "
                "replay_scale stays near-flat");
  bench::ObsSession obs;
  obs.Register(registry);
  registry.Parse(argc, argv);
  return RunAll(opt);
}
