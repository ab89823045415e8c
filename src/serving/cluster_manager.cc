#include "serving/cluster_manager.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/time_units.h"
#include "model/cost_model.h"
#include "model/model_spec.h"

namespace deepserve::serving {

namespace {

std::vector<int64_t> NpuInts(const std::vector<hw::NpuId>& npus) {
  std::vector<int64_t> ints;
  ints.reserve(npus.size());
  for (hw::NpuId id : npus) {
    ints.push_back(id);
  }
  return ints;
}

std::vector<hw::NpuId> NpusFromInts(const std::vector<int64_t>& ints) {
  std::vector<hw::NpuId> npus;
  npus.reserve(ints.size());
  for (int64_t id : ints) {
    npus.push_back(static_cast<hw::NpuId>(id));
  }
  return npus;
}

}  // namespace

struct ClusterManager::PipelineState {
  ScaleRequest request;
  ScaleCallback on_ready;
  ScalingBreakdown breakdown;
  std::vector<hw::NpuId> npus;
  TimeNs stage_start = 0;
  int64_t pipe = -1;        // directory pipeline id (reserved at launch)
  TeId te_id = kInvalidTe;  // directory TE id (reserved at launch)
  bool aborted = false;     // KillTe/CrashTe hit the TE mid-provisioning
};

ClusterManager::ClusterManager(sim::Simulator* sim, hw::Cluster* cluster,
                               distflow::TransferEngine* transfer, ScalingOptimizations opts,
                               ScalingLatencyModel latency, ctrl::ControlLog* ctrl_log)
    : sim_(sim), cluster_(cluster), transfer_(transfer), hccl_(cluster), opts_(opts),
      latency_(latency),
      leader_(sim_, ctrl_log,
              {&stats_.cm_crashes, &stats_.cm_failovers, &stats_.deferred_ops,
               &stats_.cm_outage_total},
              {[this] { TraceLeaderCrash(); }, [this] { RecordBufferedCrashes(); },
               [this] { HealthScan(); }}) {
  DS_CHECK(cluster_ != nullptr);
  DS_CHECK(transfer_ != nullptr);
  leader_.Append(ctrl::TeDirectory::kInit, {cluster_->total_npus()});
}

void ClusterManager::TraceScalePhase(std::string_view phase, DurationNs duration) {
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "scale.phase",
               {obs::Arg("phase", phase), obs::Arg("ms", NsToMs(duration))});
  }
}

Result<std::vector<hw::NpuId>> ClusterManager::AllocateNpus(int count) {
  return AllocateNpusOn(count, nullptr);
}

Result<std::vector<hw::NpuId>> ClusterManager::AllocateNpusOn(
    int count, const std::vector<uint8_t>* machine_ok) {
  DS_CHECK_GT(count, 0);
  if (!leader_.up()) {
    return UnavailableError("control leader down: cannot place NPUs");
  }
  // Pack onto as few machines as possible: first machine with enough free
  // NPUs wins; otherwise span machines greedily. The in-use bitmap is
  // replicated state; the packing decision is made here and recorded.
  const std::vector<uint8_t>& in_use = directory().npu_in_use();
  const int per_machine = cluster_->config().npus_per_machine;
  std::vector<hw::NpuId> picked;
  for (int m = 0; m < cluster_->num_machines() && static_cast<int>(picked.size()) < count; ++m) {
    if (machine_ok != nullptr && (*machine_ok)[static_cast<size_t>(m)] == 0) {
      continue;
    }
    std::vector<hw::NpuId> here;
    for (int i = 0; i < per_machine; ++i) {
      hw::NpuId id = m * per_machine + i;
      if (in_use[static_cast<size_t>(id)] == 0) {
        here.push_back(id);
      }
    }
    if (static_cast<int>(here.size()) >= count && picked.empty()) {
      here.resize(static_cast<size_t>(count));
      picked = std::move(here);
      break;
    }
    for (hw::NpuId id : here) {
      if (static_cast<int>(picked.size()) < count) {
        picked.push_back(id);
      }
    }
  }
  if (static_cast<int>(picked.size()) < count) {
    return ResourceExhaustedError("cluster out of NPUs: need " + std::to_string(count));
  }
  leader_.Append(ctrl::TeDirectory::kNpusAllocated, NpuInts(picked));
  return picked;
}

namespace {

// One machine-generation group of a heterogeneous cluster, scored for
// placement. Groups keep machine order, so equal scores tie-break toward the
// lower machine ids the first-fit would have picked anyway.
struct GenGroup {
  std::string name;
  double score = 0.0;
  bool fits = false;
  std::vector<uint8_t> machines;  // num_machines-wide membership mask
};

std::vector<GenGroup> ScoreGenerations(const hw::Cluster& cluster,
                                       const flowserve::EngineConfig& engine) {
  std::vector<GenGroup> groups;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    const hw::NpuSpec& spec = cluster.spec_of_machine(m);
    GenGroup* group = nullptr;
    for (GenGroup& g : groups) {
      if (g.name == spec.name) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(GenGroup{spec.name,
                                model::TokensPerSecondPerDollar(engine.model, spec,
                                                                engine.parallelism),
                                model::FitsHbm(engine.model, spec, engine.parallelism,
                                               kMinKvTokensPerNpu),
                                std::vector<uint8_t>(static_cast<size_t>(cluster.num_machines()),
                                                     0)});
      group = &groups.back();
    }
    group->machines[static_cast<size_t>(m)] = 1;
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const GenGroup& a, const GenGroup& b) { return a.score > b.score; });
  return groups;
}

}  // namespace

Result<std::vector<hw::NpuId>> ClusterManager::AllocateNpusForEngine(
    const flowserve::EngineConfig& engine) {
  const int count = engine.parallelism.TotalNpus();
  if (!placement_.hetero_aware || !cluster_->heterogeneous()) {
    return AllocateNpus(count);
  }
  std::vector<GenGroup> groups = ScoreGenerations(*cluster_, engine);
  for (const GenGroup& group : groups) {
    if (!group.fits) {
      continue;
    }
    auto placed = AllocateNpusOn(count, &group.machines);
    if (placed.ok()) {
      return placed;
    }
    if (placed.status().code() != StatusCode::kResourceExhausted) {
      return placed.status();  // leader down etc. — not a capacity miss
    }
  }
  // Graceful fallback: no feasible generation has room (or none is feasible).
  // Any free NPUs — even an HBM-tight or cost-poor generation, even spanning
  // generations — beat stranding a placeable job.
  return AllocateNpus(count);
}

const hw::NpuSpec& ClusterManager::TeSpec(TeId id) const {
  const ctrl::TeDirectory::TeMeta* meta = directory().Find(id);
  if (meta == nullptr || meta->npus.empty()) {
    return cluster_->config().npu_spec;
  }
  return cluster_->spec_of(meta->npus[0]);
}

flowserve::EngineConfig ClusterManager::PlacedEngine(
    const flowserve::EngineConfig& engine, const std::vector<hw::NpuId>& npus) const {
  flowserve::EngineConfig placed = engine;
  if (cluster_->heterogeneous() && !npus.empty()) {
    placed.npu_spec = cluster_->spec_of(npus[0]);
  }
  return placed;
}

void ClusterManager::ReleaseNpus(const std::vector<hw::NpuId>& npus) {
  // Apply() checks each NPU was actually in use.
  leader_.Append(ctrl::TeDirectory::kNpusReleased, NpuInts(npus));
}

void ClusterManager::ReservePrewarmedPods(int count) {
  DS_CHECK(leader_.up());
  leader_.Append(ctrl::TeDirectory::kReservePods, {count});
}

void ClusterManager::ReservePrewarmedTes(int count) {
  DS_CHECK(leader_.up());
  leader_.Append(ctrl::TeDirectory::kReserveTes, {count});
}

Result<TaskExecutor*> ClusterManager::CreateReadyTe(
    const flowserve::EngineConfig& engine_config) {
  if (!leader_.up()) {
    return UnavailableError("control leader down: cannot create TE");
  }
  DS_ASSIGN_OR_RETURN(std::vector<hw::NpuId> npus, AllocateNpusForEngine(engine_config));
  const TeId id = directory().next_te_id();
  std::vector<int64_t> ints = {id};
  ints.insert(ints.end(), npus.begin(), npus.end());
  leader_.Append(ctrl::TeDirectory::kTeCreated, ints);
  flowserve::EngineConfig placed = PlacedEngine(engine_config, npus);
  return BindTe(id, std::move(placed), std::move(npus));
}

Result<TaskExecutor*> ClusterManager::BindTe(TeId id, flowserve::EngineConfig engine,
                                             std::vector<hw::NpuId> npus) {
  TeConfig config;
  config.id = id;
  config.engine = std::move(engine);
  config.npus = std::move(npus);
  auto te = std::make_unique<TaskExecutor>(sim_, std::move(config));
  DS_RETURN_IF_ERROR(te->AttachFabric(transfer_));
  te->set_state(TeState::kReady);
  TaskExecutor* raw = te.get();
  bindings_[id] = raw;
  tes_.push_back(std::move(te));
  return raw;
}

TaskExecutor* ClusterManager::te(TeId id) {
  auto it = bindings_.find(id);
  return it == bindings_.end() ? nullptr : it->second;
}

Status ClusterManager::StopTe(TeId id) {
  if (!leader_.up()) {
    return UnavailableError("control leader down: cannot stop TE " + std::to_string(id));
  }
  const ctrl::TeDirectory::TeMeta* meta = directory().Find(id);
  if (meta == nullptr) {
    return NotFoundError("no TE " + std::to_string(id));
  }
  if (meta->lifecycle == ctrl::TeDirectory::Lifecycle::kProvisioning) {
    return FailedPreconditionError("TE " + std::to_string(id) +
                                   " still provisioning (KillTe aborts the pipeline)");
  }
  if (meta->lifecycle != ctrl::TeDirectory::Lifecycle::kReady) {
    // Already down — its NPUs were released on the stop/failure path, and a
    // second release would corrupt the free pool.
    return FailedPreconditionError("TE " + std::to_string(id) + " already down");
  }
  TaskExecutor* target = bindings_.at(id);
  leader_.Append(ctrl::TeDirectory::kTeStopped, {id});
  target->set_state(TeState::kStopped);
  ReleaseNpus(target->config().npus);
  return Status::Ok();
}

Status FaultDetectionConfig::Validate() const {
  if (heartbeat_interval <= 0 || missed_heartbeats < 1) {
    return InvalidArgumentError("fault detection needs a heartbeat interval > 0 and "
                                "missed_heartbeats >= 1, got interval " +
                                std::to_string(heartbeat_interval) + " ns, missed " +
                                std::to_string(missed_heartbeats));
  }
  if (shell_crash_detect_latency < 0) {
    return InvalidArgumentError("fault detection's shell-crash latency must be >= 0");
  }
  return Status::Ok();
}

void ClusterManager::SetFaultDetection(FaultDetectionConfig config) {
  DS_CHECK_OK(config.Validate());
  detection_ = config;
}

int64_t ClusterManager::AddFailureHandler(std::function<void(TeId)> handler) {
  const int64_t id = next_handler_id_++;
  failure_handlers_.emplace_back(id, std::move(handler));
  return id;
}

bool ClusterManager::RemoveFailureHandler(int64_t handler_id) {
  auto it = std::find_if(failure_handlers_.begin(), failure_handlers_.end(),
                         [handler_id](const auto& entry) { return entry.first == handler_id; });
  if (it == failure_handlers_.end()) {
    return false;
  }
  failure_handlers_.erase(it);
  return true;
}

Result<size_t> ClusterManager::KillTe(TeId id) {
  return Crash(id, CrashKind::kTeShell, /*defer_detection=*/false);
}

Result<size_t> ClusterManager::CrashTe(TeId id, CrashKind kind) {
  return Crash(id, kind, /*defer_detection=*/true);
}

Result<size_t> ClusterManager::Crash(TeId id, CrashKind kind, bool defer_detection) {
  const ctrl::TeDirectory::TeMeta* meta = directory().Find(id);
  if (meta == nullptr) {
    return NotFoundError("no TE " + std::to_string(id));
  }
  if (meta->lifecycle == ctrl::TeDirectory::Lifecycle::kProvisioning) {
    if (!leader_.up()) {
      return UnavailableError("control leader down: cannot abort pipeline of TE " +
                              std::to_string(id));
    }
    return AbortPipeline(id, kind);
  }
  if (meta->lifecycle != ctrl::TeDirectory::Lifecycle::kReady) {
    return FailedPreconditionError("TE " + std::to_string(id) + " already down");
  }
  TaskExecutor* target = bindings_.at(id);
  if (target->state() == TeState::kStopped || target->state() == TeState::kFailed) {
    // Killed earlier during this leader outage; its crash record is still in
    // the pod-runtime backlog.
    return FailedPreconditionError("TE " + std::to_string(id) + " already down");
  }
  ++stats_.te_failures;
  ++stats_.crashes;
  int64_t kv_before = target->engine().stats().aborted_kv_tokens;
  size_t dropped = target->Fail();
  stats_.lost_requests += static_cast<int64_t>(dropped);
  stats_.lost_kv_tokens += target->engine().stats().aborted_kv_tokens - kv_before;
  if (leader_.up()) {
    leader_.Append(ctrl::TeDirectory::kTeCrashed,
              {id, static_cast<int64_t>(kind), sim_->Now()});
  } else {
    // The TE is dead either way (data plane), but no leader is listening: the
    // pod runtime buffers the report until a standby takes over.
    pending_crashes_.push_back(PendingCrash{id, kind, sim_->Now()});
  }
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "fault.crash",
               {obs::Arg("te", static_cast<int64_t>(id)),
                obs::Arg("kind", kind == CrashKind::kNpu ? "npu" : "te-shell"),
                obs::Arg("lost_requests", static_cast<int64_t>(dropped))});
    t->AsyncBegin(sim_->Now(), track_.Pid(t), static_cast<uint64_t>(id), "outage",
                  {obs::Arg("te", static_cast<int64_t>(id))});
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("cm.faults.crashes")->Inc();
    m->counter("cm.faults.lost_requests")->Inc(static_cast<int64_t>(dropped));
  }
  if (!defer_detection || !leader_.up()) {
    // Nothing watches heartbeats during an outage: DetectTeFailure is then a
    // no-op and the takeover's health scan detects via the buffered report.
    DetectTeFailure(id);
    return dropped;
  }
  // The platform notices via heartbeat lapse (NPU crash, quantized to the
  // heartbeat grid) or the pod runtime's exit signal (TE-shell crash).
  DurationNs latency;
  if (kind == CrashKind::kNpu) {
    const TimeNs grid = detection_.heartbeat_interval;
    const TimeNs noticed = (sim_->Now() + detection_.npu_crash_detect_latency() + grid - 1) /
                           grid * grid;
    latency = noticed - sim_->Now();
  } else {
    latency = detection_.shell_crash_detect_latency;
  }
  sim_->ScheduleAfter(latency, [this, id] { DetectTeFailure(id); });
  return dropped;
}

Result<size_t> ClusterManager::AbortPipeline(TeId id, CrashKind kind) {
  const ctrl::TeDirectory::TeMeta* meta = directory().Find(id);
  DS_CHECK(meta != nullptr);
  DS_CHECK(meta->lifecycle == ctrl::TeDirectory::Lifecycle::kProvisioning);
  auto it = live_pipelines_.find(meta->pipeline);
  DS_CHECK(it != live_pipelines_.end());
  std::shared_ptr<PipelineState> state = it->second;
  live_pipelines_.erase(it);
  state->aborted = true;
  ++stats_.crashes;
  ++stats_.scale_aborts;
  leader_.Append(ctrl::TeDirectory::kPipelineAborted, {state->pipe});
  ReleaseNpus(state->npus);
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "fault.crash",
               {obs::Arg("te", static_cast<int64_t>(id)),
                obs::Arg("kind", kind == CrashKind::kNpu ? "npu" : "te-shell"),
                obs::Arg("provisioning", true)});
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("cm.faults.scale_aborts")->Inc();
  }
  // The TE never served: no failure handlers (no JE ever saw it), no lost
  // requests, no MTTR sample. The caller that launched the pipeline learns
  // via its own callback.
  if (state->on_ready) {
    state->on_ready(nullptr, state->breakdown);
  }
  return size_t{0};
}

void ClusterManager::DetectTeFailure(TeId id) {
  if (!leader_.up()) {
    return;  // the takeover health scan re-runs detection
  }
  const ctrl::TeDirectory::TeMeta* meta = directory().Find(id);
  DS_CHECK(meta != nullptr);
  if (meta->detected) {
    return;  // a detection timer firing after the takeover scan already did this
  }
  leader_.Append(ctrl::TeDirectory::kTeDetected, {id});
  ++stats_.detections;
  TimeNs crashed = meta->crash_time >= 0 ? meta->crash_time : sim_->Now();
  DurationNs detect_latency = sim_->Now() - crashed;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "fault.detect",
               {obs::Arg("te", static_cast<int64_t>(id)),
                obs::Arg("detect_ms", NsToMs(detect_latency))});
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->stats("cm.faults.detect_ms")->Add(NsToMs(detect_latency));
  }
  ReleaseNpus(NpusFromInts(meta->npus));
  for (const auto& [handler_id, handler] : failure_handlers_) {
    handler(id);
  }
  // Recovery is over: `mttr` is the crash -> recovered time.
  auto close_outage = [this, id](DurationNs mttr) {
    stats_.mttr_total += mttr;
    ++stats_.mttr_count;
    if (obs::Tracer* t = sim_->tracer()) {
      t->AsyncEnd(sim_->Now(), track_.Pid(t), static_cast<uint64_t>(id), "outage");
    }
  };
  if (!replace_enabled_) {
    // No replacement policy: recovery ends with re-dispatch, which the
    // handlers above run synchronously.
    close_outage(detect_latency);
    return;
  }
  Result<TeId> launched =
      ScaleUp(replace_template_, [this, id, crashed, close_outage](TaskExecutor* replacement,
                                                                   const ScalingBreakdown&) {
        const DurationNs mttr = sim_->Now() - crashed;
        close_outage(mttr);
        if (replacement == nullptr) {
          // The replacement pipeline was itself killed mid-flight: recovery
          // for the original outage stalls at re-dispatch.
          return;
        }
        ++stats_.replacements;
        if (obs::Tracer* t = sim_->tracer()) {
          t->Instant(sim_->Now(), track_.Pid(t), 0, "fault.recover",
                     {obs::Arg("te", static_cast<int64_t>(id)),
                      obs::Arg("replacement", static_cast<int64_t>(replacement->id())),
                      obs::Arg("mttr_ms", NsToMs(mttr))});
        }
        if (obs::MetricsRegistry* m = sim_->metrics()) {
          m->stats("cm.faults.mttr_ms")->Add(NsToMs(mttr));
          m->counter("cm.faults.replacements")->Inc();
        }
        if (replace_on_ready_) {
          replace_on_ready_(replacement);
        }
      });
  if (!launched.ok()) {
    // Replacement could not even start (e.g. no free NPUs): recovery stalls
    // at re-dispatch, same as the no-policy path.
    close_outage(detect_latency);
  }
}

// ---------------------------------------------------------------------------
// Control-plane leader failover.
// ---------------------------------------------------------------------------

void ClusterManager::TraceLeaderCrash() {
  if (obs::Tracer* t = sim_->tracer()) {
    const ctrl::ControlLog& log = *leader_.log();
    t->Instant(sim_->Now(), track_.Pid(t), 0, "fault.cm_crash",
               {obs::Arg("replicated", log.replicated()),
                obs::Arg("log_records", static_cast<int64_t>(log.records().size()))});
  }
}

void ClusterManager::RecordBufferedCrashes() {
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "fault.cm_failover",
               {obs::Arg("epoch", directory().epoch()),
                obs::Arg("outage_ms", NsToMs(sim_->Now() - leader_.crash_time()))});
  }
  // Pod-runtime backlog: TE crashes observed while no leader was listening
  // become records now (stamped with their original times).
  for (const PendingCrash& pc : pending_crashes_) {
    leader_.Append(ctrl::TeDirectory::kTeCrashed,
                   {pc.id, static_cast<int64_t>(pc.kind), pc.time});
  }
  pending_crashes_.clear();
}

void ClusterManager::HealthScan() {
  // Anything crashed and never detected (buffered reports, or detection
  // timers that fired into the outage) recovers now.
  std::vector<TeId> undetected;
  for (const auto& [id, meta] : directory().entries()) {
    if (meta.lifecycle == ctrl::TeDirectory::Lifecycle::kFailed && !meta.detected) {
      undetected.push_back(id);
    }
  }
  for (TeId id : undetected) {
    DetectTeFailure(id);
  }
}

void ClusterManager::PreloadModelToDram(hw::MachineId machine, const model::ModelSpec& model,
                                        std::function<void()> on_done) {
  hw::Machine* m = cluster_->machine(machine);
  Bytes bytes = model.WeightBytes();
  // safetensors stream from SSD into the page cache.
  m->ssd_link()->StartFlow(bytes, [this, machine, name = model.name, bytes,
                                   cb = std::move(on_done)] {
    cluster_->machine(machine)->page_cache().Insert(name, bytes, sim_->Now());
    if (cb) {
      cb();
    }
  });
}

void ClusterManager::PredictivePreload(const std::vector<model::ModelSpec>& ranked_models) {
  for (int m = 0; m < cluster_->num_machines(); ++m) {
    Bytes budget = cluster_->machine(m)->page_cache().capacity() -
                   cluster_->machine(m)->page_cache().used();
    for (const auto& model : ranked_models) {
      if (model.WeightBytes() > budget) {
        break;
      }
      budget -= model.WeightBytes();
      PreloadModelToDram(m, model);
    }
  }
}

// ---------------------------------------------------------------------------
// The five-step scaling pipeline.
// ---------------------------------------------------------------------------

Result<TeId> ClusterManager::ScaleUp(const ScaleRequest& request, ScaleCallback on_ready) {
  if (!leader_.up()) {
    return UnavailableError("control leader down: cannot scale up");
  }
  auto npus = AllocateNpusForEngine(request.engine);
  if (!npus.ok()) {
    return npus.status();
  }
  auto state = std::make_shared<PipelineState>();
  state->request = request;
  state->on_ready = std::move(on_ready);
  state->npus = std::move(npus).value();
  state->request.engine = PlacedEngine(request.engine, state->npus);
  // Both the pipeline id and the TE id are reserved up front, so the TE is
  // addressable (e.g. by KillTe) while still provisioning.
  state->pipe = directory().next_pipeline();
  state->te_id = directory().next_te_id();
  std::vector<int64_t> ints = {state->pipe, state->te_id};
  ints.insert(ints.end(), state->npus.begin(), state->npus.end());
  leader_.Append(ctrl::TeDirectory::kPipelineStarted, ints);
  live_pipelines_[state->pipe] = state;
  ++stats_.scale_ups;
  const TeId reserved = state->te_id;
  state->stage_start = sim_->Now();
  RunScalerPre(std::move(state));
  return reserved;
}

DurationNs ClusterManager::ScalerPreCost(bool prewarmed_pod) const {
  return prewarmed_pod ? latency_.pod_adapt_prewarmed : latency_.pod_create_cold;
}

DurationNs ClusterManager::TePreLoadCost(bool prewarmed_te) const {
  if (prewarmed_te) {
    // Model- and parallelism-agnostic pre-warmed SPMD master/executor pools:
    // adapting one to this model is quick config repacking.
    return latency_.te_adapt_prewarmed;
  }
  DurationNs cost = latency_.te_preload_cold;
  if (opts_.optimized_preload) {
    cost = static_cast<DurationNs>(static_cast<double>(cost) *
                                   latency_.te_preload_optimized_factor);
  }
  return cost;
}

DurationNs ClusterManager::PostLoadDuration() const {
  DurationNs cost = 0;
  if (opts_.offline_profiling) {
    // HBM budget comes from offline-profiled configuration; a dummy request
    // absorbs the first-request slowdown.
    if (opts_.dummy_warmup) {
      cost += latency_.dummy_request;
    }
  } else {
    cost += latency_.warmup_profile;
  }
  cost += opts_.async_block_alloc ? latency_.block_alloc_async : latency_.block_alloc_sync;
  return cost;
}

DurationNs ClusterManager::ScalerPostCost() const {
  return opts_.proactive_push ? latency_.push_latency : latency_.te_list_poll;
}

void ClusterManager::EndStageAfter(DurationNs delay, std::shared_ptr<PipelineState> state,
                                   int stage) {
  sim_->ScheduleAfter(delay, [this, state = std::move(state), stage] {
    // A pipeline killed mid-provisioning (AbortPipeline released its NPUs and
    // fired the callback) just drains its timers.
    if (!state->aborted) {
      leader_.RunOrPark([this, state, stage] { EndStage(state, stage); });
    }
  });
}

void ClusterManager::EndStage(const std::shared_ptr<PipelineState>& state, int stage) {
  struct Stage {
    std::string_view phase;
    DurationNs ScalingBreakdown::*took;
    void (ClusterManager::*next)(std::shared_ptr<PipelineState>);
  };
  static constexpr Stage kStages[] = {
      {"scaler-pre", &ScalingBreakdown::scaler_pre, &ClusterManager::RunTePreLoad},
      {"te-pre-load", &ScalingBreakdown::te_pre_load, &ClusterManager::RunTeLoad},
      {"te-load", &ScalingBreakdown::te_load, &ClusterManager::RunTePostLoad},
      {"te-post-load", &ScalingBreakdown::te_post_load, &ClusterManager::RunScalerPost},
      {"scaler-post", &ScalingBreakdown::scaler_post, &ClusterManager::FinishPipeline},
  };
  const Stage& done = kStages[stage - 1];
  DurationNs& took = state->breakdown.*done.took;
  took = sim_->Now() - state->stage_start;
  TraceScalePhase(done.phase, took);
  if (stage < 5) {
    leader_.Append(ctrl::TeDirectory::kStageDone, {state->pipe, stage});
  } else {
    leader_.Append(ctrl::TeDirectory::kPipelineDone, {state->pipe});
  }
  state->stage_start = sim_->Now();
  (this->*done.next)(state);
}

void ClusterManager::RunScalerPre(std::shared_ptr<PipelineState> state) {
  const bool hit = opts_.prewarmed_pods && directory().prewarmed_pods() > 0;
  if (hit) {
    leader_.Append(ctrl::TeDirectory::kPodsConsumed, {1});
    ++stats_.prewarmed_pod_hits;
    state->breakdown.used_prewarmed_pod = true;
  }
  EndStageAfter(ScalerPreCost(hit), std::move(state), 1);
}

void ClusterManager::RunTePreLoad(std::shared_ptr<PipelineState> state) {
  const bool hit = opts_.prewarmed_tes && directory().prewarmed_tes() > 0;
  if (hit) {
    leader_.Append(ctrl::TeDirectory::kWarmTesConsumed, {1});
    ++stats_.prewarmed_te_hits;
    state->breakdown.used_prewarmed_te = true;
  }
  EndStageAfter(TePreLoadCost(hit), std::move(state), 2);
}

void ClusterManager::RunTeLoad(std::shared_ptr<PipelineState> state) {
  const model::ModelSpec& model = state->request.engine.model;
  Bytes per_npu = model::WeightBytesPerNpu(model, state->request.engine.parallelism);

  // PyTorch tensor initialization happens once the bytes are local.
  auto finish_stage = [this, state]() { EndStageAfter(latency_.tensor_init, state, 3); };

  TaskExecutor* source =
      state->request.fork_source != kInvalidTe ? te(state->request.fork_source) : nullptr;
  if (opts_.npu_fork && source != nullptr && source->ready()) {
    // NPU-fork: every destination rank pulls its shard from the matching
    // source rank. Rank pairs ride distinct fabric ports (each NPU has its
    // own HCCS/RoCE attachment), so fork time depends on per-NPU bytes, not
    // on the TP degree — the paper's "similar across models" observation.
    // We charge the rank-parallel transfers their contention-free duration;
    // a busy source adds the small AICPU contention penalty.
    ++stats_.npu_forks;
    state->breakdown.used_npu_fork = true;
    hw::MachineId src_machine = cluster_->machine_of(source->primary_npu());
    hw::SharedLink* link = cluster_->LinkOfType(src_machine, state->request.fork_link);
    DS_CHECK(link != nullptr);
    double penalty = source->engine().busy() ? 1.0 + latency_.fork_busy_penalty : 1.0;
    DurationNs per_rank = link->IsolatedDuration(
        static_cast<Bytes>(static_cast<double>(per_npu) * penalty));
    sim_->ScheduleAfter(per_rank, finish_stage);
    return;
  }

  // Local load: page-cache hit streams over PCIe; miss stages via SSD first.
  hw::MachineId machine = cluster_->machine_of(state->npus[0]);
  hw::Machine* host = cluster_->machine(machine);
  bool hit = opts_.dram_preload && host->page_cache().Contains(model.name);
  state->breakdown.dram_hit = hit;
  auto pcie_phase = [this, state, per_npu, finish_stage] {
    auto remaining = std::make_shared<int>(static_cast<int>(state->npus.size()));
    const int per_machine = cluster_->config().npus_per_machine;
    for (hw::NpuId id : state->npus) {
      // Each TP/PP rank streams its own shard; ranks sharing a PCIe link
      // contend (the Fig. 9 effect).
      hw::Machine* m = cluster_->machine(cluster_->machine_of(id));
      m->pcie_link_for(id % per_machine)->StartFlow(per_npu, [remaining, finish_stage] {
        if (--*remaining == 0) {
          finish_stage();
        }
      });
    }
  };
  if (hit) {
    ++stats_.dram_hits;
    host->page_cache().Touch(model.name, sim_->Now());
    pcie_phase();
  } else {
    ++stats_.dram_misses;
    host->ssd_link()->StartFlow(model.WeightBytes(), [this, host, model, pcie_phase] {
      host->page_cache().Insert(model.name, model.WeightBytes(), sim_->Now());
      pcie_phase();
    });
  }
}

void ClusterManager::RunTePostLoad(std::shared_ptr<PipelineState> state) {
  EndStageAfter(PostLoadDuration(), std::move(state), 4);
}

void ClusterManager::RunScalerPost(std::shared_ptr<PipelineState> state) {
  EndStageAfter(ScalerPostCost(), std::move(state), 5);
}

void ClusterManager::FinishPipeline(std::shared_ptr<PipelineState> state) {
  Result<TaskExecutor*> bound = BindTe(state->te_id, state->request.engine, state->npus);
  DS_CHECK(bound.ok()) << bound.status().ToString();
  live_pipelines_.erase(state->pipe);
  if (state->on_ready) {
    state->on_ready(*bound, state->breakdown);
  }
}

Status ClusterManager::ScaleUpMany(
    const ScaleRequest& request, int count,
    std::function<void(std::vector<TaskExecutor*>, DurationNs)> on_ready) {
  DS_CHECK_GT(count, 0);
  if (!leader_.up()) {
    return UnavailableError("control leader down: cannot scale up");
  }
  TaskExecutor* source = request.fork_source != kInvalidTe ? te(request.fork_source) : nullptr;
  if (source == nullptr || !source->ready()) {
    return FailedPreconditionError("ScaleUpMany needs a ready NPU-fork source");
  }
  TimeNs start = sim_->Now();
  // Steps 1/2/4/5 proceed per-TE in parallel; TE-Load is one broadcast.
  const bool pod_hit = opts_.prewarmed_pods && directory().prewarmed_pods() >= count;
  const DurationNs pre = ScalerPreCost(pod_hit);
  if (pod_hit) {
    leader_.Append(ctrl::TeDirectory::kPodsConsumed, {count});
    stats_.prewarmed_pod_hits += count;
  }
  const bool te_hit = opts_.prewarmed_tes && directory().prewarmed_tes() >= count;
  const DurationNs preload = TePreLoadCost(te_hit);
  if (te_hit) {
    leader_.Append(ctrl::TeDirectory::kWarmTesConsumed, {count});
    stats_.prewarmed_te_hits += count;
  }
  Bytes per_npu =
      model::WeightBytesPerNpu(request.engine.model, request.engine.parallelism);
  double penalty =
      source->engine().busy() ? 1.0 + latency_.fork_busy_penalty : 1.0;
  Bytes payload = static_cast<Bytes>(static_cast<double>(per_npu) * penalty) *
                  static_cast<Bytes>(request.engine.parallelism.TotalNpus());
  stats_.npu_forks += count;
  ++stats_.scale_ups;

  sim_->ScheduleAfter(pre + preload, [this, request, count, payload, source, start,
                                      cb = std::move(on_ready)]() mutable {
    hccl_.Broadcast(
        source->primary_npu(), count, payload, request.fork_link,
        [this, request, count, start, cb = std::move(cb)]() mutable {
          DurationNs tail = latency_.tensor_init + PostLoadDuration() + ScalerPostCost();
          sim_->ScheduleAfter(tail, [this, request, count, start, cb = std::move(cb)] {
            DeferUntilRecovery([this, request, count, start, cb] {
              std::vector<TaskExecutor*> created;
              for (int i = 0; i < count; ++i) {
                Result<TaskExecutor*> te = CreateReadyTe(request.engine);
                if (!te.ok()) {
                  // Cluster exhausted: report what we got.
                  DS_CHECK(te.status().code() == StatusCode::kResourceExhausted)
                      << te.status().ToString();
                  break;
                }
                created.push_back(*te);
              }
              if (cb) {
                cb(std::move(created), sim_->Now() - start);
              }
            });
          });
        });
  });
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Autoscaler (mechanism + policies live in serving/autoscaler.{h,cc}).
// ---------------------------------------------------------------------------

void ClusterManager::StartAutoscaler(JobExecutor* je, AutoscalerConfig config,
                                     ScaleRequest template_request) {
  DS_CHECK(je != nullptr);
  autoscaler_ =
      std::make_unique<Autoscaler>(sim_, this, je, std::move(config), std::move(template_request));
  autoscaler_->Start();
}

void ClusterManager::StopAutoscaler() {
  if (autoscaler_ != nullptr) {
    autoscaler_->Stop();
  }
}

DurationNs ClusterManager::EstimateScaleUpLead(const ScaleRequest& request) const {
  DurationNs lead = ScalerPreCost(opts_.prewarmed_pods && directory().prewarmed_pods() > 0) +
                    TePreLoadCost(opts_.prewarmed_tes && directory().prewarmed_tes() > 0);
  // TE-Load: contention-free transfer estimates (actual runs share links).
  const model::ModelSpec& model = request.engine.model;
  Bytes per_npu = model::WeightBytesPerNpu(model, request.engine.parallelism);
  auto source_it =
      request.fork_source != kInvalidTe ? bindings_.find(request.fork_source) : bindings_.end();
  const TaskExecutor* source = source_it != bindings_.end() ? source_it->second : nullptr;
  if (opts_.npu_fork && source != nullptr && source->ready()) {
    hw::MachineId src_machine = cluster_->machine_of(source->primary_npu());
    hw::SharedLink* link = cluster_->LinkOfType(src_machine, request.fork_link);
    DS_CHECK(link != nullptr);
    lead += link->IsolatedDuration(per_npu);
  } else {
    // Placement is unknown until ScaleUp allocates; machine 0 stands in —
    // links are homogeneous and DRAM preloads normally cover every machine.
    hw::Machine* host = cluster_->machine(0);
    if (!(opts_.dram_preload && host->page_cache().Contains(model.name))) {
      lead += host->ssd_link()->IsolatedDuration(model.WeightBytes());
    }
    lead += host->pcie_link_for(0)->IsolatedDuration(per_npu);
  }
  lead += latency_.tensor_init;
  // TE-Post-Load + Scaler-Post.
  lead += PostLoadDuration() + ScalerPostCost();
  return lead;
}

}  // namespace deepserve::serving
