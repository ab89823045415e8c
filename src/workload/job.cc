#include "workload/job.h"

namespace deepserve::workload {

std::string_view JobTypeToString(JobType type) {
  switch (type) {
    case JobType::kChatCompletion:
      return "chat-completion";
    case JobType::kFineTune:
      return "fine-tune";
  }
  return "?";
}

std::string_view TaskTypeToString(TaskType type) {
  switch (type) {
    case TaskType::kUnified:
      return "unified";
    case TaskType::kPrefill:
      return "prefill";
    case TaskType::kDecode:
      return "decode";
    case TaskType::kPreprocess:
      return "preprocess";
    case TaskType::kTrain:
      return "train";
    case TaskType::kEvaluate:
      return "evaluate";
  }
  return "?";
}

}  // namespace deepserve::workload
