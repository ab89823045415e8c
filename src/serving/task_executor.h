// Model-serving Task Executor (TE).
//
// A TE is the unit of serving capacity: a TE-shell (infrastructure side —
// lifecycle state, health, scaling hooks) wrapping one FlowServe engine. TEs
// running the same model in the same serving mode form a TE group; the Job
// Executor schedules across groups. For PD-disaggregation, a prefill TE
// accepts prefill tasks and hands the KV cache to a decode TE through
// DistFlow before the decode task starts there.
#ifndef DEEPSERVE_SERVING_TASK_EXECUTOR_H_
#define DEEPSERVE_SERVING_TASK_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "distflow/distflow.h"
#include "flowserve/engine.h"
#include "hw/cluster.h"
#include "serving/job.h"
#include "sim/simulator.h"
#include "workload/request.h"

namespace deepserve::serving {

// Lifecycle of a built TE. The scaling pipeline's earlier stages (§6, Fig. 7)
// run before any TaskExecutor exists; ctrl::TeDirectory tracks them.
enum class TeState {
  kReady,
  kDraining,  // graceful scale-down: no new admissions, in-flight work finishing
  kStopped,   // stopped (scale-down complete)
  kFailed,    // crashed; in-flight work lost
};

std::string_view TeStateToString(TeState state);

// The request callback type every layer shares (see flowserve/sequence.h).
using flowserve::ResponseHandler;

struct TeConfig {
  TeId id = 0;
  flowserve::EngineConfig engine;
  // One NPU per TP*PP*DP rank; empty = purely logical (no device accounting).
  std::vector<hw::NpuId> npus;
};

class TaskExecutor {
 public:
  TaskExecutor(sim::Simulator* sim, TeConfig config);

  TaskExecutor(const TaskExecutor&) = delete;
  TaskExecutor& operator=(const TaskExecutor&) = delete;

  // Registers this TE's DistFlow endpoint, mirrors KV traffic onto its NPUs,
  // and routes RTC populate/swap plus PD KV hand-offs through DistFlow.
  [[nodiscard]] Status AttachFabric(hw::Cluster* cluster, distflow::TransferEngine* transfer);

  TeId id() const { return config_.id; }
  flowserve::EngineRole role() const { return config_.engine.role; }
  const TeConfig& config() const { return config_; }
  flowserve::Engine& engine() { return *engine_; }
  const flowserve::Engine& engine() const { return *engine_; }
  hw::NpuId primary_npu() const { return config_.npus.empty() ? hw::kInvalidNpu : config_.npus[0]; }

  TeState state() const { return state_; }
  void set_state(TeState state) { state_ = state; }
  bool ready() const { return state_ == TeState::kReady; }
  bool draining() const { return state_ == TeState::kDraining; }

  // Graceful scale-down: kReady -> kDraining. ready() goes false, so the
  // JE/Frontend stop routing here; the engine refuses new Submits but lets
  // in-flight work (including committed PD hand-offs) run to completion.
  // `on_drained` fires exactly once (as a 0-delay event) when the last
  // sequence leaves — unless a crash supersedes the drain, in which case it
  // never fires and the failure path owns cleanup. The caller stops the TE
  // from the callback.
  void StartDrain(std::function<void()> on_drained);
  TimeNs drain_started() const { return drain_started_; }
  // Queue depth captured at StartDrain: the in-flight work the drain waited
  // out rather than killed.
  int64_t drain_inflight() const { return drain_inflight_; }

  // Failure injection: the TE crashes (state -> kFailed) — every in-flight
  // sequence is dropped without callbacks and the TE leaves the serving pool.
  // Returns how many requests were lost (the JE's retry path re-dispatches
  // them, or fires on_error once the retry budget runs out).
  size_t Fail();

  // ---- task entry points -----------------------------------------------------
  // `keys` is the dispatcher's block-key chain of spec.prompt; it rides to
  // every engine the request runs on (see Engine::Submit). The handler rides
  // to the engine's Sequence as it is.
  // PD-colocated: one unified task runs the whole request here.
  void SubmitUnified(const workload::RequestSpec& spec, ResponseHandler handler,
                     rtc::KeyChain keys = {});
  // PD-disaggregated: prefill here, then KV hand-off to `decode_te`, where the
  // decode task finishes the request. `on_first_token` fires from this TE,
  // `on_complete` from the decode TE.
  void SubmitPrefill(const workload::RequestSpec& spec, TaskExecutor* decode_te,
                     ResponseHandler handler, rtc::KeyChain keys = {});

  // Drops this request's work on this TE without firing any callback: a
  // pending PD hand-off (if any) is discarded and the engine-side sequence is
  // cancelled, releasing its KV pins. Returns true when anything was dropped.
  // Used by the JE's cancel path (hedge losers); the caller owns termination.
  bool CancelRequest(workload::RequestId request_id);

  // TE-shell health surface for the cluster manager.
  flowserve::LoadInfo load() const { return engine_->load(); }
  // Waiting + running sequences; O(1), read per TE on every JE dispatch.
  int64_t queue_depth() const { return engine_->live_sequences(); }

 private:
  void AcceptPrefilled(const workload::RequestSpec& spec, rtc::KeyChain keys,
                       ResponseHandler handler);
  void InstallKvSend();
  void ArmDrainWait();

  sim::Simulator* sim_;
  TeConfig config_;
  std::unique_ptr<flowserve::Engine> engine_;
  TeState state_ = TeState::kReady;

  hw::Cluster* cluster_ = nullptr;
  distflow::TransferEngine* transfer_ = nullptr;

  struct PendingHandoff {
    TaskExecutor* decode_te = nullptr;
    workload::RequestSpec spec;
    rtc::KeyChain keys;
    ResponseHandler handler;  // for the decode task; its first token is spent
  };
  std::map<workload::RequestId, PendingHandoff> handoffs_;

  std::function<void()> on_drained_;
  TimeNs drain_started_ = 0;
  int64_t drain_inflight_ = 0;
};

}  // namespace deepserve::serving

#endif  // DEEPSERVE_SERVING_TASK_EXECUTOR_H_
