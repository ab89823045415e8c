// JobTable: the JobExecutor's replicated control-plane state as a
// deterministic state machine (ctrl_state_machine.h).
//
// Holds only what a standby JE needs to resume: the outstanding map (spec +
// TEs touched + retry count — enough to re-dispatch or fail a request exactly
// once), the id counters, the round-robin cursor, the epoch, and the TE group
// membership (as ids). The job/task ledger is the log itself: kJobCreated,
// kTaskCreated, kTaskCompleted and the close records carry it as ints, and
// readers decode it from ControlLog::records(). kJobCreated's prompt and
// context id are a payload the log keeps only while the job is open.
// Runtime-only artifacts stay in the JobExecutor: ResponseHandlers
// (re-established connections on takeover), TaskExecutor pointers (re-bound
// from ids via the ClusterManager), and the prompt-tree caches (rebuildable,
// affect only routing quality).
#ifndef DEEPSERVE_CTRL_JOB_TABLE_H_
#define DEEPSERVE_CTRL_JOB_TABLE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "ctrl/ctrl_state_machine.h"
#include "workload/job.h"
#include "workload/request.h"

namespace deepserve::ctrl {

class JobTable final : public CtrlStateMachine {
 public:
  enum RecordType : int32_t {
    kTeAdded = 1,    // ints: [group, te_id]
    kTeRemoved,      // ints: [te_id] — removed from every group
    kJobCreated,     // ints: [job_id, request_id, retries, arrival, decode_len,
                     //        priority, deadline]; payload until the job's
                     //        close record: prompt, str = context_id
    kJobTeBound,     // ints: [job_id, te_id] — outstanding request touches this TE
    kTaskCreated,    // ints: [task_id, job_id, task_type, te_id]
    kTaskCompleted,  // ints: [task_id]
    kJobCompleted,   // ints: [job_id] — job + open tasks completed, outstanding erased
    kJobFailed,      // ints: [job_id] — job + open tasks failed, outstanding erased
    kRrAdvanced,     // ints: [] — round-robin cursor tick
    kEpoch,          // ints: [] — a new leader took over this domain
  };

  enum Group : int64_t { kColocated = 0, kPrefill = 1, kDecode = 2 };

  struct Outstanding {
    workload::RequestSpec spec;  // the prompt shared with the kJobCreated payload
    std::vector<workload::TeId> tes;  // TEs this request has touched
    int retries = 0;
    // Log position of this job's kJobCreated record. Not fingerprinted: it
    // is the record's own seq, which every replay reproduces by construction.
    uint64_t created_seq = 0;
  };

  explicit JobTable(int32_t domain = 0) : CtrlStateMachine(domain) {}

  std::string_view name() const override { return "job-table"; }
  void Apply(const LogRecord& record) override;
  uint64_t Fingerprint() const override;

  // ---- const views the leader decides from ----------------------------------
  const std::map<workload::JobId, Outstanding>& outstanding() const { return outstanding_; }
  bool IsOutstanding(workload::JobId id) const { return outstanding_.count(id) != 0; }
  const std::vector<workload::TeId>& group(Group g) const { return groups_[g]; }
  workload::JobId next_job() const { return next_job_; }
  workload::TaskId next_task() const { return next_task_; }
  uint64_t rr_cursor() const { return rr_cursor_; }
  int64_t epoch() const { return epoch_; }
  uint64_t applied() const { return applied_; }

 private:
  std::map<workload::JobId, Outstanding> outstanding_;
  std::vector<workload::TeId> groups_[3];
  workload::JobId next_job_ = 1;
  workload::TaskId next_task_ = 1;
  uint64_t rr_cursor_ = 0;
  int64_t epoch_ = 0;
  uint64_t applied_ = 0;  // records applied (replay sanity counter)
};

}  // namespace deepserve::ctrl

#endif  // DEEPSERVE_CTRL_JOB_TABLE_H_
