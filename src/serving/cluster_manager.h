// Cluster manager: TE registry, placement, pre-warm pools, DRAM pre-loading,
// the five-step fast-scaling pipeline (§6, Fig. 7, Table 2), and the
// AUTOSCALER.
//
// Scaling a TE walks five stages, each with the Table-2 optimization as an
// independent toggle so Fig. 8's before/after (and any ablation) is pure
// configuration:
//   1. Scaler-Pre    — pod creation        (pre-warmed pods)
//   2. TE-Pre-Load   — process/NPU init    (pre-warmed, model- and
//                      parallelism-agnostic TEs; late-import/parallel init)
//   3. TE-Load       — weights -> NPU      (DRAM pre-loading; NPU-fork over
//                      HCCS/RoCE; PCIe contention modelled via shared links)
//   4. TE-Post-Load  — readiness           (offline profiling, async block
//                      allocation, dummy-request warmup)
//   5. Scaler-Post   — announce to JEs     (proactive push vs. polling)
//
// Control-plane state vs. runtime bindings: the authoritative registry —
// which TE ids exist, their lifecycle, NPU placement, the device-in-use
// bitmap, pre-warm pool counters, crash bookkeeping, in-flight pipelines —
// lives in a ctrl::TeDirectory held by a ctrl::Leader (ctrl/leader.h). The
// live TaskExecutor objects, scheduled events, and in-flight link flows are
// data plane: they keep running through a control-plane outage, and a new
// leader re-binds to them at takeover (CrashControlLeader /
// RecoverControlLeader).
#ifndef DEEPSERVE_SERVING_CLUSTER_MANAGER_H_
#define DEEPSERVE_SERVING_CLUSTER_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/time_units.h"
#include "ctrl/control_log.h"
#include "ctrl/leader.h"
#include "ctrl/te_directory.h"
#include "distflow/distflow.h"
#include "hw/cluster.h"
#include "hw/hccl.h"
#include "serving/autoscaler.h"
#include "serving/job_executor.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"

namespace deepserve::serving {

// Table-2 optimization toggles. All true = the paper's optimized system;
// all false = the unoptimized baseline of Fig. 8.
struct ScalingOptimizations {
  bool prewarmed_pods = true;
  bool prewarmed_tes = true;
  bool optimized_preload = true;  // late importing + parallel init (~35%)
  bool dram_preload = true;
  bool npu_fork = true;
  bool offline_profiling = true;
  bool async_block_alloc = true;
  bool dummy_warmup = true;
  bool proactive_push = true;

  static ScalingOptimizations AllOff() {
    return ScalingOptimizations{false, false, false, false, false,
                                false, false, false, false};
  }
};

// Stage latency constants (calibrated to the magnitudes in Fig. 8: tens of
// seconds unoptimized, dominated by TE-Pre-Load after optimization).
struct ScalingLatencyModel {
  DurationNs pod_create_cold = SToNs(12.0);
  DurationNs pod_adapt_prewarmed = SToNs(0.5);
  DurationNs te_preload_cold = SToNs(24.0);
  double te_preload_optimized_factor = 0.65;  // -35% via late import etc.
  DurationNs te_adapt_prewarmed = SToNs(0.4);
  DurationNs tensor_init = SToNs(0.3);  // PyTorch tensor creation
  DurationNs warmup_profile = SToNs(7.0);
  DurationNs block_alloc_sync = SToNs(1.5);
  DurationNs block_alloc_async = SToNs(0.05);
  DurationNs dummy_request = SToNs(0.4);
  DurationNs te_list_poll = SToNs(4.0);  // mean poll-based discovery lag
  DurationNs push_latency = MsToNs(100);
  // NPU-fork bandwidth penalty while the source TE is serving (the NPU's
  // dedicated AICPU keeps this small, §6.2 / Fig. 10).
  double fork_busy_penalty = 0.08;
};

struct ScalingBreakdown {
  DurationNs scaler_pre = 0;
  DurationNs te_pre_load = 0;
  DurationNs te_load = 0;
  DurationNs te_post_load = 0;
  DurationNs scaler_post = 0;
  bool used_prewarmed_pod = false;
  bool used_prewarmed_te = false;
  bool dram_hit = false;
  bool used_npu_fork = false;

  DurationNs total() const {
    return scaler_pre + te_pre_load + te_load + te_post_load + scaler_post;
  }
};

// ScaleRequest and AutoscalerConfig live in serving/autoscaler.h (included
// above) next to the ScalePolicy layer they parameterize.

// Generation selection on heterogeneous clusters. Homogeneous clusters — and
// hetero_aware=false, the hetero-blind ablation — reduce to the historical
// machine-order first-fit bit-identically.
struct PlacementConfig {
  bool hetero_aware = true;
};

// A generation is feasible only when its HBM fits the model's per-NPU weight
// shard plus at least this much KV context per NPU (the predicted
// context-load floor).
inline constexpr int64_t kMinKvTokensPerNpu = 1024;

// What a cost-aware placement would pick right now (autoscaler signal /
// bench reporting): the best-scoring feasible generation and its score.
struct GenerationChoice {
  std::string generation;
  double tokens_per_dollar = 0.0;
  bool feasible = false;  // false = no generation fits the model's HBM needs
};

// Heartbeat-based failure detection (§2: failures are routine at cluster
// scale). A crashed TE's in-flight work is lost immediately, but recovery
// (NPU release, JE notification, replacement scale-up) only starts once the
// platform *notices* — after `missed_heartbeats` heartbeat lapses for an NPU
// crash, or after the (faster) pod-runtime signal for a TE-shell exit.
struct FaultDetectionConfig {
  DurationNs heartbeat_interval = MsToNs(500);
  int missed_heartbeats = 3;
  DurationNs shell_crash_detect_latency = MsToNs(100);

  DurationNs npu_crash_detect_latency() const {
    return heartbeat_interval * missed_heartbeats;
  }
};

enum class CrashKind {
  kNpu,      // device dies under the shell; noticed via heartbeat lapse
  kTeShell,  // shell process exits; noticed by the pod runtime
};

struct ClusterManagerStats {
  int64_t scale_ups = 0;
  int64_t te_failures = 0;
  int64_t scale_downs = 0;
  int64_t prewarmed_pod_hits = 0;
  int64_t prewarmed_te_hits = 0;
  int64_t dram_hits = 0;
  int64_t dram_misses = 0;
  int64_t npu_forks = 0;
  // Fault pipeline.
  int64_t crashes = 0;          // CrashTe/KillTe calls that took a TE down
  int64_t detections = 0;       // crashes the detector has noticed
  int64_t replacements = 0;     // replacement TEs brought to ready
  int64_t lost_requests = 0;    // in-flight requests dropped by crashes
  int64_t lost_kv_tokens = 0;   // KV context tokens destroyed by crashes
  DurationNs mttr_total = 0;    // crash -> recovered, summed
  int64_t mttr_count = 0;
  // Control-plane fault pipeline.
  int64_t scale_aborts = 0;   // provisioning pipelines killed by a crash
  int64_t cm_crashes = 0;     // control-leader crashes injected
  int64_t cm_failovers = 0;   // standby takeovers completed
  int64_t deferred_ops = 0;   // control ops parked during leader outages
  DurationNs cm_outage_total = 0;  // leader crash -> takeover, summed

  double mean_mttr_ms() const {
    return mttr_count == 0 ? 0.0
                           : NsToMs(mttr_total) / static_cast<double>(mttr_count);
  }
};

class ClusterManager {
 public:
  // `ctrl_log`: the sequenced shared log holding this manager's TeDirectory
  // domain. nullptr = an internally-owned degenerate log (single replica,
  // zero latency) — bit-identical to the historical in-member state.
  ClusterManager(sim::Simulator* sim, hw::Cluster* cluster, distflow::TransferEngine* transfer,
                 ScalingOptimizations opts = {}, ScalingLatencyModel latency = {},
                 ctrl::ControlLog* ctrl_log = nullptr);

  ClusterManager(const ClusterManager&) = delete;
  ClusterManager& operator=(const ClusterManager&) = delete;

  // ---- registry & placement --------------------------------------------------
  // Creates an immediately-ready TE on freshly placed NPUs (the fast path for
  // serving experiments that start from a provisioned cluster).
  Result<TaskExecutor*> CreateReadyTe(const flowserve::EngineConfig& engine_config);
  TaskExecutor* te(TeId id);
  const std::vector<std::unique_ptr<TaskExecutor>>& tes() const { return tes_; }
  // Stops a TE and returns its NPUs to the free pool.
  [[nodiscard]] Status StopTe(TeId id);
  // Failure injection with *immediate* detection: crash a TE (in-flight work
  // lost), release its NPUs, and synchronously notify every registered
  // failure handler (typically JEs, which retry the lost jobs elsewhere).
  // Returns how many requests the TE dropped. On a TE id still provisioning
  // (its ScaleUp pipeline in flight), the pipeline is aborted instead: NPUs
  // release, the ready callback fires with nullptr, and 0 is returned.
  [[nodiscard]] Result<size_t> KillTe(TeId id);
  // Failure injection with *realistic* detection: the TE dies silently now
  // (work lost, state -> kFailed), but NPU release, handler notification, and
  // the replacement scale-up only happen once the detector notices —
  // according to the FaultDetectionConfig and the crash kind. NPU-crash
  // detection lands on the heartbeat grid. Provisioning ids abort as KillTe.
  [[nodiscard]] Result<size_t> CrashTe(TeId id, CrashKind kind = CrashKind::kNpu);
  // Registers a callback invoked with the TeId of every killed TE. The
  // returned registration id deregisters it again via RemoveFailureHandler —
  // a failed-over JE must drop its predecessor's handler or crashes fire on
  // a stale instance.
  int64_t AddFailureHandler(std::function<void(TeId)> handler);
  // Returns whether the registration existed. Handlers fire in registration
  // order regardless of removals.
  bool RemoveFailureHandler(int64_t handler_id);
  void SetFaultDetection(FaultDetectionConfig config) { detection_ = config; }
  const FaultDetectionConfig& fault_detection() const { return detection_; }
  // Auto-replacement: every detected crash triggers a ScaleUp from `request`;
  // `on_ready` receives the replacement TE (add it to the JE's groups there).
  // MTTR is measured crash -> replacement ready (detection time when no
  // replacement policy is set).
  void SetReplacementPolicy(ScaleRequest request,
                            std::function<void(TaskExecutor*)> on_ready) {
    replace_enabled_ = true;
    replace_template_ = std::move(request);
    replace_on_ready_ = std::move(on_ready);
  }

  // ---- control-plane failover -------------------------------------------------
  // The protocol is ctrl::Leader's. While the CM leader is down every
  // mutating entry point returns UNAVAILABLE, pipeline transitions park and
  // TE crash reports buffer; data-plane TEs keep serving. The CM's own steps
  // at takeover: record the buffered crash reports before the parked ops
  // run, then re-detect every undetected failure (the health scan).
  [[nodiscard]] Status CrashControlLeader() { return leader_.Crash(); }
  // FAILED_PRECONDITION on a live leader.
  [[nodiscard]] Status RecoverControlLeader() { return leader_.Takeover(); }
  bool leader_up() const { return leader_.up(); }
  int64_t control_epoch() const { return directory().epoch(); }
  // Runs `op` now, or parks it on the leader until the next takeover when it
  // is down (used by pipeline stages and the autoscaler's drain path).
  void DeferUntilRecovery(common::SmallFn op) { leader_.RunOrPark(std::move(op)); }
  ctrl::ControlLog* ctrl_log() { return leader_.log(); }
  const ctrl::TeDirectory& directory() const { return leader_.state(); }

  // ---- pre-warming & pre-loading ----------------------------------------------
  void ReservePrewarmedPods(int count);
  void ReservePrewarmedTes(int count);
  int prewarmed_pods() const { return directory().prewarmed_pods(); }
  int prewarmed_tes() const { return directory().prewarmed_tes(); }

  // Streams a model's safetensors file from SSD into a machine's DRAM page
  // cache (timed); `on_done` fires when resident.
  void PreloadModelToDram(hw::MachineId machine, const model::ModelSpec& model,
                          std::function<void()> on_done = nullptr);
  // Predictive pre-loading: pre-load the given models (most likely first)
  // onto every machine, stopping when a machine's DRAM fills.
  void PredictivePreload(const std::vector<model::ModelSpec>& ranked_models);

  // ---- fast scaling -----------------------------------------------------------
  using ScaleCallback = std::function<void(TaskExecutor*, const ScalingBreakdown&)>;
  // Runs the five-step pipeline; the TE is usable when the callback fires.
  // Returns the TE id reserved for the pipeline (usable with KillTe/CrashTe
  // to abort it mid-flight, in which case the callback fires with nullptr).
  [[nodiscard]] Result<TeId> ScaleUp(const ScaleRequest& request, ScaleCallback on_ready);
  // NPU-fork to `count` new TEs in parallel via HCCL broadcast (Fig. 10a).
  // Ids are assigned at creation time (pipeline end), so these TEs are not
  // individually abortable mid-flight.
  [[nodiscard]] Status ScaleUpMany(const ScaleRequest& request, int count,
                     std::function<void(std::vector<TaskExecutor*>, DurationNs)> on_ready);

  // ---- autoscaler --------------------------------------------------------------
  // Watches `je`'s colocated group and scales it between min/max TEs using
  // `template_request`, under the ScalePolicy named by config.policy
  // (reactive|predictive|slo; invalid names are a programming error). Runs
  // until StopAutoscaler() (keeps the event queue non-empty: drive the
  // simulator with RunUntil). Restarting replaces the previous autoscaler.
  void StartAutoscaler(JobExecutor* je, AutoscalerConfig config, ScaleRequest template_request);
  void StopAutoscaler();
  // The running autoscaler (nullptr before StartAutoscaler): policy state,
  // drain stats, admission-counter override.
  Autoscaler* autoscaler() { return autoscaler_.get(); }
  // Live ready colocated TEs as the autoscaler sees them — recomputed from
  // cluster state, so crashes between ticks can't skew it.
  int autoscaler_target() const { return autoscaler_ ? autoscaler_->live_tes() : 0; }

  // How long a ScaleUp(request) launched now would take to deliver a ready
  // TE, mirroring the five-stage pipeline's cost model without consuming
  // pre-warm pools. This is the lead time predictive scaling plans around.
  DurationNs EstimateScaleUpLead(const ScaleRequest& request) const;

  const ClusterManagerStats& stats() const { return stats_; }
  const ScalingOptimizations& optimizations() const { return opts_; }
  hw::Cluster* cluster() { return cluster_; }

  // Places tp*pp*dp NPUs (packed onto as few machines as possible).
  [[nodiscard]] Result<std::vector<hw::NpuId>> AllocateNpus(int count);
  void ReleaseNpus(const std::vector<hw::NpuId>& npus);

  // ---- heterogeneity & cost-aware placement -----------------------------------
  void SetPlacement(PlacementConfig config) { placement_ = config; }
  const PlacementConfig& placement() const { return placement_; }
  // Cost-aware AllocateNpus: on a heterogeneous cluster, feasible generations
  // (HBM fits weights + the predicted context floor) are tried in descending
  // tokens-per-second-per-dollar order; if none has room, any free NPUs beat
  // stranding the job. Homogeneous clusters take the historical path.
  [[nodiscard]] Result<std::vector<hw::NpuId>> AllocateNpusForEngine(
      const flowserve::EngineConfig& engine);
  // The generation a scale-up for `engine` would land on right now, without
  // allocating — the autoscaler's generation-aware signal.
  GenerationChoice PreviewPlacement(const flowserve::EngineConfig& engine) const;
  // Per-TE generation (the spec of the silicon under the TE's primary NPU;
  // the cluster default for unknown ids) and its cost-normalized throughput.
  const hw::NpuSpec& TeSpec(TeId id) const;
  double TeTokensPerDollar(TeId id) const;

 private:
  struct PipelineState;
  struct PendingCrash {
    TeId id = kInvalidTe;
    CrashKind kind = CrashKind::kNpu;
    TimeNs time = 0;
  };

  // The first-fit core behind AllocateNpus: `machine_ok` (when non-null)
  // restricts candidate machines — the lever generation preference pulls.
  [[nodiscard]] Result<std::vector<hw::NpuId>> AllocateNpusOn(
      int count, const std::vector<uint8_t>* machine_ok);
  // Applies npu_spec_from_placement: the engine a TE placed on `npus` runs.
  flowserve::EngineConfig PlacedEngine(const flowserve::EngineConfig& engine,
                                       const std::vector<hw::NpuId>& npus) const;
  // Builds TE `id` on `npus`, wires it to the fabric, marks it ready and
  // binds it — the one construction path behind CreateReadyTe and the
  // pipeline's end. The caller has already recorded the TE's creation.
  Result<TaskExecutor*> BindTe(TeId id, flowserve::EngineConfig engine,
                               std::vector<hw::NpuId> npus);
  // Pipeline stages 1-5. Each starts its stage's work and hands the end of
  // it to EndStageAfter; FinishPipeline binds the TE after stage 5.
  void RunScalerPre(std::shared_ptr<PipelineState> state);
  void RunTePreLoad(std::shared_ptr<PipelineState> state);
  void RunTeLoad(std::shared_ptr<PipelineState> state);
  void RunTePostLoad(std::shared_ptr<PipelineState> state);
  void RunScalerPost(std::shared_ptr<PipelineState> state);
  void FinishPipeline(std::shared_ptr<PipelineState> state);
  // Ends stage `stage` after `delay` unless the pipeline was aborted; parks
  // it while the control leader is down (a standby resumes it at takeover).
  void EndStageAfter(DurationNs delay, std::shared_ptr<PipelineState> state, int stage);
  // The one stage tail: times the stage into its ScalingBreakdown field,
  // traces it, records kStageDone (kPipelineDone after stage 5) and runs
  // the next stage.
  void EndStage(const std::shared_ptr<PipelineState>& state, int stage);
  // Stage costs, shared by the pipeline, ScaleUpMany and EstimateScaleUpLead
  // (TE-Load depends on placement and links, so each computes its own).
  DurationNs ScalerPreCost(bool prewarmed_pod) const;
  DurationNs TePreLoadCost(bool prewarmed_te) const;
  DurationNs PostLoadDuration() const;
  DurationNs ScalerPostCost() const;
  // The CM's leader steps (see CrashControlLeader).
  void TraceLeaderCrash();
  void RecordBufferedCrashes();
  void HealthScan();
  // Autoscaler scale-downs count in ClusterManagerStats like the historical
  // in-class tick's did.
  void RecordAutoscalerScaleDown() { ++stats_.scale_downs; }
  friend class Autoscaler;
  // The crash core shared by KillTe (synchronous detection) and CrashTe
  // (detection deferred per the crash kind).
  [[nodiscard]] Result<size_t> Crash(TeId id, CrashKind kind, bool defer_detection);
  // Satellite of the crash path: kill a TE whose five-stage pipeline is still
  // in flight — abort the pipeline instead of delivering a dead-TE callback.
  [[nodiscard]] Result<size_t> AbortPipeline(TeId id, CrashKind kind);
  // The detector noticed `id` is dead: release NPUs, notify handlers, start
  // the replacement scale-up. Idempotent (failover re-scans crashed TEs).
  void DetectTeFailure(TeId id);
  // Lazily registers the scaling-pipeline trace track; -1 when disabled.
  int TracePid();
  // Emits one scale.phase instant at the completion of a pipeline stage.
  void TraceScalePhase(std::string_view phase, DurationNs duration);

  sim::Simulator* sim_;
  hw::Cluster* cluster_;
  distflow::TransferEngine* transfer_;
  hw::Hccl hccl_;
  ScalingOptimizations opts_;
  ScalingLatencyModel latency_;

  ClusterManagerStats stats_;
  // Replicated control-plane state (see file comment), its log and the
  // failover protocol.
  ctrl::Leader<ctrl::TeDirectory> leader_;

  // Runtime bindings (data plane): the live TaskExecutor objects in creation
  // order, and the id -> object map a re-elected leader re-binds through.
  std::vector<std::unique_ptr<TaskExecutor>> tes_;
  std::map<TeId, TaskExecutor*> bindings_;
  // Pipelines with stages still in flight, by pipeline id (abort path).
  std::map<int64_t, std::shared_ptr<PipelineState>> live_pipelines_;

  std::unique_ptr<Autoscaler> autoscaler_;

  std::vector<std::pair<int64_t, std::function<void(TeId)>>> failure_handlers_;
  int64_t next_handler_id_ = 1;

  PlacementConfig placement_;

  // Fault pipeline state.
  FaultDetectionConfig detection_;
  bool replace_enabled_ = false;
  ScaleRequest replace_template_;
  std::function<void(TaskExecutor*)> replace_on_ready_;

  std::vector<PendingCrash> pending_crashes_;  // pod-runtime backlog during outage

  int trace_pid_ = -1;
};

}  // namespace deepserve::serving

#endif  // DEEPSERVE_SERVING_CLUSTER_MANAGER_H_
