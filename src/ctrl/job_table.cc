#include "ctrl/job_table.h"

#include <algorithm>

#include "common/logging.h"

namespace deepserve::ctrl {

namespace {

// Ids are dense from 1 and `next` is the one the next create record takes,
// so a record may only name an id in [1, next).
void CheckKnownId(uint64_t id, uint64_t next) {
  DS_CHECK(id >= 1 && id < next) << "unknown id " << id;
}

}  // namespace

void JobTable::Apply(const LogRecord& record) {
  DS_CHECK(record.domain == domain());
  ++applied_;
  switch (record.type) {
    case kTeAdded: {
      DS_CHECK(record.ints.size() == 2);
      const int64_t group = record.ints[0];
      DS_CHECK(group >= 0 && group < 3);
      groups_[group].push_back(static_cast<workload::TeId>(record.ints[1]));
      break;
    }
    case kTeRemoved: {
      DS_CHECK(record.ints.size() == 1);
      const auto id = static_cast<workload::TeId>(record.ints[0]);
      for (auto& group : groups_) {
        group.erase(std::remove(group.begin(), group.end(), id), group.end());
      }
      break;
    }
    case kJobCreated: {
      DS_CHECK(record.ints.size() == 7);
      const auto job_id = static_cast<workload::JobId>(record.ints[0]);
      DS_CHECK(job_id == next_job_);
      ++next_job_;
      Outstanding& outstanding = outstanding_[job_id];
      outstanding.retries = static_cast<int>(record.ints[2]);
      outstanding.spec.id = static_cast<workload::RequestId>(record.ints[1]);
      outstanding.spec.arrival = record.ints[3];
      outstanding.spec.decode_len = record.ints[4];
      outstanding.spec.priority = static_cast<int>(record.ints[5]);
      outstanding.spec.deadline = record.ints[6];
      outstanding.spec.prompt = record.prompt;
      outstanding.spec.context_id = record.str;
      outstanding.created_seq = record.seq;
      break;
    }
    case kJobTeBound: {
      DS_CHECK(record.ints.size() == 2);
      auto it = outstanding_.find(static_cast<workload::JobId>(record.ints[0]));
      DS_CHECK(it != outstanding_.end());
      it->second.tes.push_back(static_cast<workload::TeId>(record.ints[1]));
      break;
    }
    case kTaskCreated: {
      DS_CHECK(record.ints.size() == 4);
      const auto task_id = static_cast<workload::TaskId>(record.ints[0]);
      DS_CHECK(task_id == next_task_);
      ++next_task_;
      CheckKnownId(static_cast<uint64_t>(record.ints[1]), next_job_);
      break;
    }
    case kTaskCompleted: {
      DS_CHECK(record.ints.size() == 1);
      CheckKnownId(static_cast<uint64_t>(record.ints[0]), next_task_);
      break;
    }
    case kJobCompleted:
    case kJobFailed: {
      DS_CHECK(record.ints.size() == 1);
      const auto job_id = static_cast<workload::JobId>(record.ints[0]);
      CheckKnownId(job_id, next_job_);
      outstanding_.erase(job_id);
      break;
    }
    case kRrAdvanced: {
      ++rr_cursor_;
      break;
    }
    case kEpoch: {
      ++epoch_;
      break;
    }
    default:
      DS_CHECK(false);
  }
}

uint64_t JobTable::Fingerprint() const {
  uint64_t hash = kFnvOffset;
  Mix(&hash, static_cast<uint64_t>(next_job_));
  Mix(&hash, static_cast<uint64_t>(next_task_));
  Mix(&hash, rr_cursor_);
  Mix(&hash, static_cast<uint64_t>(epoch_));
  for (const auto& group : groups_) {
    Mix(&hash, group.size());
    for (workload::TeId id : group) {
      Mix(&hash, static_cast<uint64_t>(id));
    }
  }
  Mix(&hash, outstanding_.size());
  for (const auto& [job_id, outstanding] : outstanding_) {
    Mix(&hash, static_cast<uint64_t>(job_id));
    Mix(&hash, static_cast<uint64_t>(outstanding.spec.id));
    Mix(&hash, static_cast<uint64_t>(outstanding.spec.arrival));
    Mix(&hash, static_cast<uint64_t>(outstanding.spec.decode_len));
    Mix(&hash, static_cast<uint64_t>(outstanding.spec.priority));
    Mix(&hash, static_cast<uint64_t>(outstanding.spec.deadline));
    Mix(&hash, outstanding.spec.prompt.size());
    for (TokenId token : outstanding.spec.prompt) {
      Mix(&hash, static_cast<uint64_t>(token));
    }
    MixString(&hash, outstanding.spec.context_id);
    Mix(&hash, static_cast<uint64_t>(outstanding.retries));
    Mix(&hash, outstanding.tes.size());
    for (workload::TeId te : outstanding.tes) {
      Mix(&hash, static_cast<uint64_t>(te));
    }
  }
  return hash;
}

}  // namespace deepserve::ctrl
