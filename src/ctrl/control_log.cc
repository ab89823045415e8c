#include "ctrl/control_log.h"

#include <utility>

#include "common/logging.h"

namespace deepserve::ctrl {

ControlLog::ControlLog(sim::Simulator* sim, CtrlConfig config)
    : sim_(sim), config_(config) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK(config_.replicas >= 1);
  DS_CHECK(config_.quorum >= 1 && config_.quorum <= config_.replicas);
  DS_CHECK(config_.replication_latency >= 0);
  DS_CHECK(config_.lease_duration >= 0);
  DS_CHECK(config_.replay_cost_per_record >= 0);
}

int32_t ControlLog::RegisterDomain(std::string name) {
  const int32_t id = next_domain_++;
  domain_names_[id] = std::move(name);
  return id;
}

void ControlLog::Attach(CtrlStateMachine* sm) {
  DS_CHECK(sm != nullptr);
  DS_CHECK(domain_names_.count(sm->domain()) != 0);
  attached_[sm->domain()] = sm;
}

void ControlLog::Detach(int32_t domain) { attached_.erase(domain); }

const LogRecord& ControlLog::Append(LogRecord record) {
  DS_CHECK(domain_names_.count(record.domain) != 0);
  record.seq = next_seq_++;
  record.time = sim_->Now();
  records_.push_back(std::move(record));
  const LogRecord& stored = records_.back();
  auto it = attached_.find(stored.domain);
  if (it != attached_.end()) {
    it->second->Apply(stored);
  }
  return stored;
}

void ControlLog::DropPayload(uint64_t seq) {
  DS_CHECK(seq < records_.size());
  LogRecord& record = records_[seq];
  DS_CHECK(record.seq == seq);
  record.prompt = {};
  std::string().swap(record.str);
}

void ControlLog::ReplayInto(CtrlStateMachine* sm) const {
  DS_CHECK(sm != nullptr);
  for (const LogRecord& record : records_) {
    if (record.domain == sm->domain()) {
      sm->Apply(record);
    }
  }
}

void ControlLog::ReplayRange(CtrlStateMachine* sm, uint64_t after_seq) const {
  DS_CHECK(sm != nullptr);
  for (const LogRecord& record : records_) {
    if (record.seq > after_seq && record.domain == sm->domain()) {
      sm->Apply(record);
    }
  }
}

int64_t ControlLog::CountDomain(int32_t domain) const {
  int64_t count = 0;
  for (const LogRecord& record : records_) {
    if (record.domain == domain) {
      ++count;
    }
  }
  return count;
}

int64_t ControlLog::UnreplicatedAt(TimeNs crash_time) const {
  if (config_.replication_latency <= 0) {
    return 0;
  }
  const TimeNs horizon = crash_time - config_.replication_latency;
  int64_t tail = 0;
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->time <= horizon) {
      break;
    }
    ++tail;
  }
  return tail;
}

DurationNs ControlLog::FailoverDelay(TimeNs crash_time) const {
  const int64_t tail = UnreplicatedAt(crash_time);
  return config_.lease_duration + config_.replication_latency +
         tail * config_.replay_cost_per_record;
}

}  // namespace deepserve::ctrl
