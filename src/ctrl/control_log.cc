#include "ctrl/control_log.h"

#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace deepserve::ctrl {

Status CtrlConfig::Validate() const {
  if (replicas < 1) {
    return InvalidArgumentError("control-log replicas must be >= 1, got " +
                                std::to_string(replicas));
  }
  if (quorum < 1 || quorum > replicas) {
    return InvalidArgumentError("control-log quorum must be in [1, " + std::to_string(replicas) +
                                "], got " + std::to_string(quorum));
  }
  if (replication_latency < 0 || lease_duration < 0 || replay_cost_per_record < 0) {
    return InvalidArgumentError(
        "control-log replication latency, lease and replay cost must be >= 0");
  }
  return Status::Ok();
}

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

LogRecord ControlLog::Append(int32_t domain, int32_t type, std::span<const int64_t> ints,
                             std::string_view str, workload::Prompt prompt) {
  DS_CHECK(domain_names_.count(domain) != 0);
  const uint64_t seq = headers_.size();
  const bool has_payload = !str.empty() || !prompt.empty();
  headers_.push_back({.time = sim_->Now(), .ints_begin = ints_.size(), .has_payload = has_payload,
                      .domain = domain, .type = type});
  ints_.insert(ints_.end(), ints.begin(), ints.end());
  if (has_payload) {
    payloads_.emplace_hint(payloads_.end(), seq, Payload{std::string(str), std::move(prompt)});
  }
  const LogRecord record = View(seq);
  auto it = attached_.find(domain);
  if (it != attached_.end()) {
    it->second->Apply(record);
  }
  return record;
}

void ControlLog::DropPayload(uint64_t seq) {
  DS_CHECK(seq < headers_.size());
  Header& header = headers_[seq];
  if (header.has_payload) {
    payloads_.erase(seq);
    header.has_payload = false;
  }
}

LogRecord ControlLog::View(uint64_t seq) const {
  static const Payload kNoPayload;
  const Header& header = headers_[seq];
  const uint64_t end = seq + 1 < headers_.size() ? headers_[seq + 1].ints_begin : ints_.size();
  const Payload& payload = header.has_payload ? payloads_.find(seq)->second : kNoPayload;
  return {seq,
          header.time,
          header.domain,
          header.type,
          std::span<const int64_t>(ints_).subspan(header.ints_begin, end - header.ints_begin),
          payload.str,
          payload.prompt};
}

void ControlLog::ReplayInto(CtrlStateMachine* sm) const {
  DS_CHECK(sm != nullptr);
  for (uint64_t seq = 0; seq < headers_.size(); ++seq) {
    if (headers_[seq].domain == sm->domain()) {
      sm->Apply(View(seq));
    }
  }
}

void ControlLog::ReplayRange(CtrlStateMachine* sm, uint64_t after_seq) const {
  DS_CHECK(sm != nullptr);
  if (after_seq >= headers_.size()) {
    return;
  }
  for (uint64_t seq = after_seq + 1; seq < headers_.size(); ++seq) {
    if (headers_[seq].domain == sm->domain()) {
      sm->Apply(View(seq));
    }
  }
}

int64_t ControlLog::CountDomain(int32_t domain) const {
  int64_t count = 0;
  for (const Header& header : headers_) {
    if (header.domain == domain) {
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
  for (auto it = headers_.rbegin(); it != headers_.rend(); ++it) {
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

size_t ControlLog::bytes() const {
  // A payload entry is a map node: three links and a color beside the key
  // and the Payload, plus the str's characters when they spill to the heap.
  constexpr size_t kEntryBytes = 4 * sizeof(void*) + sizeof(uint64_t) + sizeof(Payload);
  const size_t inline_chars = std::string().capacity();
  size_t bytes = headers_.capacity() * sizeof(Header) + ints_.capacity() * sizeof(int64_t);
  for (const auto& [seq, payload] : payloads_) {
    bytes += kEntryBytes;
    if (payload.str.capacity() > inline_chars) {
      bytes += payload.str.capacity() + 1;
    }
  }
  return bytes;
}

}  // namespace deepserve::ctrl
