// The request-job-task serverless abstraction (§3).
//
// A user HTTP *request* triggers one or more internal *jobs*; each job fans
// out into *tasks* executed on task executors. For model serving: a chat
// completion is one job; on a PD-colocated engine it is one (unified) task,
// on a PD-disaggregated pair it is a prefill task plus a decode task, and an
// attention-expert-disaggregated deployment would create at least two. These
// records give the platform observability over every stage.
//
// These are leaf data types shared by the control plane (ctrl/job_table) and
// the serving layer (executors, autoscaler), so they live in workload/ —
// below both — rather than in serving/ where they started; serving/job.h
// re-exports them for its callers.
#ifndef DEEPSERVE_WORKLOAD_JOB_H_
#define DEEPSERVE_WORKLOAD_JOB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "workload/request.h"

namespace deepserve::workload {

using JobId = uint64_t;
using TaskId = uint64_t;
using TeId = int32_t;

inline constexpr TeId kInvalidTe = -1;

enum class JobType { kChatCompletion, kFineTune };
enum class JobState { kPending, kRunning, kCompleted, kFailed };

enum class TaskType { kUnified, kPrefill, kDecode, kPreprocess, kTrain, kEvaluate };
enum class TaskState { kPending, kDispatched, kRunning, kCompleted, kFailed };

std::string_view JobTypeToString(JobType type);
std::string_view TaskTypeToString(TaskType type);

struct TaskRecord {
  TaskId id = 0;
  JobId job = 0;
  TaskType type = TaskType::kUnified;
  TaskState state = TaskState::kPending;
  TeId te = kInvalidTe;
  TimeNs created = 0;
  TimeNs dispatched = 0;
  TimeNs completed = 0;
};

struct JobRecord {
  JobId id = 0;
  RequestId request = 0;
  JobType type = JobType::kChatCompletion;
  JobState state = JobState::kPending;
  std::vector<TaskId> tasks;
  TimeNs created = 0;
  TimeNs completed = 0;
};

}  // namespace deepserve::workload

#endif  // DEEPSERVE_WORKLOAD_JOB_H_
