// Post-training on DeepServe: the fine-tuning side of the request-job-task
// abstraction (§3).
//
// "A fine-tuning request triggers multiple internal jobs, including
// preprocessing, training, and evaluation." This module implements that
// pipeline: a FineTuneJobExecutor decomposes each request into three tasks,
// allocates training NPUs from the *shared* cluster (the paper's Challenge 1
// — hours-long training coexisting with seconds-long serving on one
// resource pool), runs them on the simulated hardware via the same roofline
// cost model the serving engines use, and releases the NPUs on completion.
// Requests that cannot get NPUs queue until capacity frees up.
#ifndef DEEPSERVE_SERVING_FINETUNE_H_
#define DEEPSERVE_SERVING_FINETUNE_H_

#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/time_units.h"
#include "model/cost_model.h"
#include "model/model_spec.h"
#include "serving/cluster_manager.h"
#include "serving/job.h"
#include "sim/simulator.h"

namespace deepserve::serving {

struct FineTuneRequest {
  uint64_t id = 0;
  model::ModelSpec base_model = model::ModelSpec::Llama3_8B();
  model::ParallelismConfig parallelism{8, 1, 1};
  int64_t dataset_tokens = 10'000'000;
  int epochs = 1;
  // Evaluation runs over this fraction of the dataset after training.
  double eval_fraction = 0.05;
};

struct FineTuneResult {
  JobId job = 0;
  bool succeeded = false;
  TimeNs preprocess_done = 0;
  TimeNs train_done = 0;
  TimeNs evaluate_done = 0;
};

struct FineTuneStats {
  int64_t requests = 0;
  int64_t completed = 0;
  int64_t waiting_for_npus = 0;
  int64_t placement_retries = 0;
};

class FineTuneJobExecutor {
 public:
  FineTuneJobExecutor(sim::Simulator* sim, ClusterManager* manager);

  FineTuneJobExecutor(const FineTuneJobExecutor&) = delete;
  FineTuneJobExecutor& operator=(const FineTuneJobExecutor&) = delete;

  using Callback = std::function<void(const FineTuneResult&)>;
  // Queues the request; tasks run as soon as NPUs can be placed.
  [[nodiscard]] Status Submit(const FineTuneRequest& request, Callback on_complete);

  // Estimated wall time of the train task alone (for capacity planning).
  DurationNs EstimateTrainDuration(const FineTuneRequest& request) const;

  const std::vector<JobRecord>& jobs() const { return jobs_; }
  const std::vector<TaskRecord>& tasks() const { return tasks_; }
  const FineTuneStats& stats() const { return stats_; }

 private:
  struct Pending {
    FineTuneRequest request;
    Callback on_complete;
    JobId job = 0;
  };

  void TryPlace();
  void RunPipeline(Pending pending, std::vector<hw::NpuId> npus);
  TaskRecord& NewTask(JobId job, TaskType type);

  sim::Simulator* sim_;
  ClusterManager* manager_;

  std::deque<Pending> queue_;
  bool retry_armed_ = false;
  JobId next_job_ = 1;
  TaskId next_task_ = 1;
  std::vector<JobRecord> jobs_;
  std::vector<TaskRecord> tasks_;
  FineTuneStats stats_;
};

}  // namespace deepserve::serving

#endif  // DEEPSERVE_SERVING_FINETUNE_H_
