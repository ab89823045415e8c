#include "serving/finetune.h"

#include <utility>

#include "common/logging.h"
#include "common/time_units.h"

namespace deepserve::serving {

namespace {

// CPU-side preprocessing throughput (tokenization, packing, sharding).
constexpr double kPreprocessTokensPerS = 2e6;
// Training MFU relative to the NPU's effective serving FLOPs.
constexpr double kTrainMfu = 0.80;
// Checkpoint write bandwidth (weights streamed to storage each epoch).
constexpr double kCheckpointWriteGbps = 2.0;
// Retry cadence while waiting for NPUs.
constexpr DurationNs kPlacementRetry = SToNs(5);

}  // namespace

FineTuneJobExecutor::FineTuneJobExecutor(sim::Simulator* sim, ClusterManager* manager)
    : sim_(sim), manager_(manager) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK(manager_ != nullptr);
}

DurationNs FineTuneJobExecutor::EstimateTrainDuration(const FineTuneRequest& request) const {
  // Training FLOPs ~ 6 * params * tokens (forward + backward) per epoch.
  double flops = 6.0 * static_cast<double>(request.base_model.ParamCount()) *
                 static_cast<double>(request.dataset_tokens) *
                 static_cast<double>(request.epochs);
  hw::NpuSpec npu = manager_->cluster()->config().npu_spec;
  double cluster_flops = npu.effective_flops() * kTrainMfu *
                         static_cast<double>(request.parallelism.TotalNpus());
  DurationNs compute = SToNs(flops / cluster_flops);
  DurationNs checkpoint = SToNs(
      static_cast<double>(request.base_model.WeightBytes()) /
      (kCheckpointWriteGbps * 1e9));
  return compute + static_cast<DurationNs>(request.epochs) * checkpoint;
}

Status FineTuneJobExecutor::Submit(const FineTuneRequest& request, Callback on_complete) {
  if (request.dataset_tokens <= 0 || request.epochs <= 0) {
    return InvalidArgumentError("fine-tune request needs a dataset and >=1 epoch");
  }
  if (request.parallelism.TotalNpus() > manager_->cluster()->total_npus()) {
    return InvalidArgumentError("requested parallelism exceeds the whole cluster");
  }
  ++stats_.requests;
  JobRecord job;
  job.id = next_job_++;
  job.request = request.id;
  job.type = JobType::kFineTune;
  job.state = JobState::kPending;
  job.created = sim_->Now();
  jobs_.push_back(job);

  Pending pending;
  pending.request = request;
  pending.on_complete = std::move(on_complete);
  pending.job = job.id;
  queue_.push_back(std::move(pending));
  TryPlace();
  return Status::Ok();
}

void FineTuneJobExecutor::TryPlace() {
  while (!queue_.empty()) {
    auto npus = manager_->AllocateNpus(queue_.front().request.parallelism.TotalNpus());
    if (!npus.ok()) {
      // Head-of-line blocks until serving scale-downs / completions free
      // NPUs; re-check on a timer (the cluster is shared, per Challenge 1).
      ++stats_.waiting_for_npus;
      if (!retry_armed_) {
        retry_armed_ = true;
        ++stats_.placement_retries;
        sim_->ScheduleAfter(kPlacementRetry, [this] {
          retry_armed_ = false;
          TryPlace();
        });
      }
      return;
    }
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    RunPipeline(std::move(pending), std::move(npus).value());
  }
}

TaskRecord& FineTuneJobExecutor::NewTask(JobId job, TaskType type) {
  TaskRecord task;
  task.id = next_task_++;
  task.job = job;
  task.type = type;
  task.state = TaskState::kRunning;
  task.created = sim_->Now();
  task.dispatched = sim_->Now();
  jobs_[job - 1].tasks.push_back(task.id);
  tasks_.push_back(task);
  return tasks_.back();
}

void FineTuneJobExecutor::RunPipeline(Pending pending, std::vector<hw::NpuId> npus) {
  JobId job = pending.job;
  jobs_[job - 1].state = JobState::kRunning;
  auto result = std::make_shared<FineTuneResult>();
  result->job = job;

  // --- task 1: preprocessing (CPU-side, no NPUs yet needed but held) -------
  TaskId preprocess = NewTask(job, TaskType::kPreprocess).id;
  DurationNs prep =
      SToNs(static_cast<double>(pending.request.dataset_tokens) / kPreprocessTokensPerS);
  sim_->ScheduleAfter(prep, [this, job, preprocess, result,
                             pending = std::move(pending), npus = std::move(npus)]() mutable {
    tasks_[preprocess - 1].state = TaskState::kCompleted;
    tasks_[preprocess - 1].completed = sim_->Now();
    result->preprocess_done = sim_->Now();

    // --- task 2: training --------------------------------------------------
    TaskId train = NewTask(job, TaskType::kTrain).id;
    DurationNs train_time = EstimateTrainDuration(pending.request);
    sim_->ScheduleAfter(train_time, [this, job, train, result,
                                     pending = std::move(pending),
                                     npus = std::move(npus)]() mutable {
      tasks_[train - 1].state = TaskState::kCompleted;
      tasks_[train - 1].completed = sim_->Now();
      result->train_done = sim_->Now();

      // --- task 3: evaluation (forward-only over the eval split) -----------
      TaskId evaluate = NewTask(job, TaskType::kEvaluate).id;
      double eval_tokens = static_cast<double>(pending.request.dataset_tokens) *
                           pending.request.eval_fraction;
      hw::NpuSpec npu = manager_->cluster()->config().npu_spec;
      double eval_flops = 2.0 * static_cast<double>(pending.request.base_model.ParamCount()) *
                          eval_tokens;
      DurationNs eval_time = SToNs(
          eval_flops / (npu.effective_flops() *
                        static_cast<double>(pending.request.parallelism.TotalNpus())));
      sim_->ScheduleAfter(eval_time, [this, job, evaluate, result,
                                      pending = std::move(pending),
                                      npus = std::move(npus)]() mutable {
        tasks_[evaluate - 1].state = TaskState::kCompleted;
        tasks_[evaluate - 1].completed = sim_->Now();
        result->evaluate_done = sim_->Now();
        result->succeeded = true;
        jobs_[job - 1].state = JobState::kCompleted;
        jobs_[job - 1].completed = sim_->Now();
        ++stats_.completed;
        manager_->ReleaseNpus(npus);
        if (pending.on_complete) {
          pending.on_complete(*result);
        }
        TryPlace();  // freed NPUs may unblock the queue
      });
    });
  });
}

}  // namespace deepserve::serving
