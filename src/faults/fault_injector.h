// Deterministic, seed-driven fault injection (§2, §6: NPUs, links, and TE
// shells fail routinely at cluster scale; the platform must detect,
// re-dispatch, and re-scale without losing requests).
//
// The injector schedules typed fault events into the simulator timeline:
//   - NPU crash        — a TE dies silently; heartbeat-latency detection
//   - TE-shell crash   — a TE process exits; fast pod-runtime detection
//   - link degrade     — a machine's HCCS + RoCE bandwidth drops by `factor`
//                        for `duration` (a flap restores it afterwards)
//   - slow node        — a TE's engine steps stretch by `factor` for
//                        `duration` (straggler)
//   - CM leader crash  — the ClusterManager's control-plane leader dies; a
//                        standby replays the shared log and takes over
//   - JE leader crash  — one JobExecutor's leader dies (ordinal selects
//                        which); same log-replay takeover
// Targets are picked deterministically at fire time (explicit ordinal, or a
// forked-Rng draw over the eligible set), so one master seed replays an
// entire chaos run bit-for-bit. Recovery is the ClusterManager's job:
// detection -> JE re-dispatch -> replacement scale-up. Control-plane crashes
// recover via ctrl::ControlLog failover (or never, on a single replica).
#ifndef DEEPSERVE_FAULTS_FAULT_INJECTOR_H_
#define DEEPSERVE_FAULTS_FAULT_INJECTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/time_units.h"
#include "common/types.h"
#include "serving/cluster_manager.h"
#include "sim/simulator.h"

namespace deepserve::serving {
class JobExecutor;
}

namespace deepserve::faults {

enum class FaultKind {
  kNpuCrash,
  kTeShellCrash,
  kLinkDegrade,
  kSlowNode,
  kCmCrash,
  kJeCrash,
};

std::string_view FaultKindToString(FaultKind kind);

struct FaultEvent {
  TimeNs time = 0;
  FaultKind kind = FaultKind::kNpuCrash;
  // Ordinal into the eligible target set at fire time (ready TEs sorted by id
  // for crashes/slow nodes, machines for link degrades); -1 = seeded pick.
  int target = -1;
  // Link degrade: bandwidth scale in (0, 1]. Slow node: step-time multiplier
  // >= 1. Ignored for crashes.
  double factor = 0.5;
  // Transient faults only; 0 = permanent (never restored).
  DurationNs duration = 0;
};

struct FaultInjectorStats {
  int64_t injected = 0;
  int64_t npu_crashes = 0;
  int64_t shell_crashes = 0;
  int64_t link_degrades = 0;
  int64_t slow_nodes = 0;
  int64_t cm_crashes = 0;
  int64_t je_crashes = 0;
  int64_t restores = 0;
  int64_t skipped = 0;  // fired with no eligible target (whole fleet down,
                        // or the targeted leader is already down)
};

// Knobs for GeneratePlan: `count` faults at uniform-random times over
// [window_start, window_end], kinds drawn from the given weights.
struct FaultPlanConfig {
  int count = 4;
  TimeNs window_start = 0;
  TimeNs window_end = SToNs(60);
  double npu_crash_weight = 1.0;
  double shell_crash_weight = 1.0;
  double link_degrade_weight = 1.0;
  double slow_node_weight = 1.0;
  // Control-plane crashes default OFF so pre-existing seeded plans draw the
  // exact same event sequences they always did.
  double cm_crash_weight = 0.0;
  double je_crash_weight = 0.0;
  double degrade_factor_min = 0.1;  // link bandwidth scale range
  double degrade_factor_max = 0.6;
  double straggle_factor_min = 1.5;  // step-time multiplier range
  double straggle_factor_max = 4.0;
  DurationNs transient_duration_min = SToNs(5);
  DurationNs transient_duration_max = SToNs(15);
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulator* sim, serving::ClusterManager* manager, uint64_t seed = 42);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Registers a JobExecutor as a je-crash target. Ordinal = registration
  // order. Without any registration, je crashes are counted as skipped.
  void RegisterJobExecutor(serving::JobExecutor* je);

  // Schedules one fault event into the timeline (must be >= Now()).
  void Schedule(const FaultEvent& event);
  void ScheduleAll(const std::vector<FaultEvent>& events);

  // Deterministic seed-driven plan generation, sorted by time.
  static std::vector<FaultEvent> GeneratePlan(uint64_t seed, const FaultPlanConfig& config);

  // Parses a fault schedule spec: events joined by ';', each
  //   <kind>@<seconds>[:<factor>][x<duration_s>][#<target>]
  // with kind one of npu|shell|link|slow|cm|je. For `je`, the colon field is
  // the JE ordinal instead of a factor; `cm`/`je` crashes are permanent
  // events (recovery is the control log's job) so `x<duration>` is rejected.
  // Examples:
  //   "npu@5"                 NPU crash at t=5s, seeded target
  //   "link@10:0.25x20"       links at 25% bandwidth for 20s at t=10s
  //   "slow@30:3x10#2"        TE ordinal 2 runs 3x slower for 10s at t=30s
  //   "cm@12"                 CM leader crash at t=12s
  //   "je@12:1"               JE ordinal 1 leader crash at t=12s
  [[nodiscard]] static Result<std::vector<FaultEvent>> ParseSchedule(const std::string& spec);

  const FaultInjectorStats& stats() const { return stats_; }

 private:
  void Fire(const FaultEvent& event);
  // The eligible crash/slow-node targets: live TEs sorted by id.
  std::vector<serving::TaskExecutor*> LiveTes() const;
  serving::TaskExecutor* PickTe(const FaultEvent& event);
  int PickMachine(const FaultEvent& event);
  void TraceFault(const FaultEvent& event, std::string_view detail, int64_t target);

  sim::Simulator* sim_;
  serving::ClusterManager* manager_;
  std::vector<serving::JobExecutor*> jes_;
  Rng rng_;
  FaultInjectorStats stats_;
  obs::LazyTrack track_{"faults", {"injection"}};
};

}  // namespace deepserve::faults

#endif  // DEEPSERVE_FAULTS_FAULT_INJECTOR_H_
