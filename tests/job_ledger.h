// Test helper: a JobExecutor's request-job-task ledger, decoded from its
// JobTable records in the control log. The log is the only copy of the
// ledger; this rebuilds the records the tests check against it.
#ifndef DEEPSERVE_TESTS_JOB_LEDGER_H_
#define DEEPSERVE_TESTS_JOB_LEDGER_H_

#include <vector>

#include "ctrl/control_log.h"
#include "ctrl/job_table.h"
#include "serving/job_executor.h"
#include "workload/job.h"

namespace deepserve {

struct JobLedger {
  // Ids are dense from 1, so id n is at index n - 1.
  std::vector<workload::JobRecord> jobs;
  std::vector<workload::TaskRecord> tasks;
};

// A job's close record completes (or fails) the job and every task of it
// that has not completed yet, at the record's time.
inline JobLedger ReadJobLedger(const serving::JobExecutor& je) {
  JobLedger ledger;
  const int32_t domain = je.table().domain();
  for (const ctrl::LogRecord& record : je.control_log().records()) {
    if (record.domain != domain) {
      continue;
    }
    switch (record.type) {
      case ctrl::JobTable::kJobCreated: {
        workload::JobRecord job;
        job.id = static_cast<workload::JobId>(record.ints[0]);
        job.request = static_cast<workload::RequestId>(record.ints[1]);
        job.state = workload::JobState::kRunning;
        job.created = record.time;
        ledger.jobs.push_back(job);
        break;
      }
      case ctrl::JobTable::kTaskCreated: {
        workload::TaskRecord task;
        task.id = static_cast<workload::TaskId>(record.ints[0]);
        task.job = static_cast<workload::JobId>(record.ints[1]);
        task.type = static_cast<workload::TaskType>(record.ints[2]);
        task.te = static_cast<workload::TeId>(record.ints[3]);
        task.state = workload::TaskState::kDispatched;
        task.created = record.time;
        task.dispatched = record.time;
        ledger.jobs[task.job - 1].tasks.push_back(task.id);
        ledger.tasks.push_back(task);
        break;
      }
      case ctrl::JobTable::kTaskCompleted: {
        workload::TaskRecord& task = ledger.tasks[static_cast<size_t>(record.ints[0]) - 1];
        task.state = workload::TaskState::kCompleted;
        task.completed = record.time;
        break;
      }
      case ctrl::JobTable::kJobCompleted:
      case ctrl::JobTable::kJobFailed: {
        const bool ok = record.type == ctrl::JobTable::kJobCompleted;
        workload::JobRecord& job = ledger.jobs[static_cast<size_t>(record.ints[0]) - 1];
        job.state = ok ? workload::JobState::kCompleted : workload::JobState::kFailed;
        job.completed = record.time;
        for (workload::TaskId id : job.tasks) {
          workload::TaskRecord& task = ledger.tasks[id - 1];
          if (task.state != workload::TaskState::kCompleted) {
            task.state = ok ? workload::TaskState::kCompleted : workload::TaskState::kFailed;
            task.completed = record.time;
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return ledger;
}

}  // namespace deepserve

#endif  // DEEPSERVE_TESTS_JOB_LEDGER_H_
