// Replicated control plane, part 2: the sequenced shared log (boki-style
// append -> sequence -> deliver).
//
// The log substrate (sequencer + storage shards) is modeled as durable: what
// crashes in our fault model is a *leader* (the ClusterManager or a
// JobExecutor acting on the state), never the log itself. That matches the
// shared-log designs this borrows from, where the log tier is replicated
// independently of its clients and a record is durable once sequenced.
//
// Timing model, chosen so the degenerate config is bit-identical to the
// pre-log tree:
//
//   * Append() assigns the next global sequence number, stamps the current
//     sim time, stores the record, and applies it inline to the attached
//     state machine of that domain. The leader is collocated with its state
//     machine, so the leader-visible apply is synchronous — NO simulator
//     events are scheduled per record, even with replication on. Replication
//     to standbys happens in the background and only becomes observable at
//     failover.
//   * A standby's lag is computed analytically when a leader crashes:
//     records appended within `replication_latency` of the crash have not
//     reached the standby yet, so takeover costs
//        lease_duration                (wait out the dead leader's lease)
//      + replication_latency           (fetch the sealed tail from the log)
//      + tail_records * replay_cost    (apply them)
//     With replicas == 1 there is no standby: the leader's loss is permanent
//     until something recovers it by hand.
//
// This keeps the event stream of every non-failover run untouched (the
// 3-seed golden parity test pins that), while still charging honest time for
// failover itself.
#ifndef DEEPSERVE_CTRL_CONTROL_LOG_H_
#define DEEPSERVE_CTRL_CONTROL_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time_units.h"
#include "common/types.h"
#include "ctrl/ctrl_state_machine.h"
#include "sim/simulator.h"

namespace deepserve::ctrl {

struct CtrlConfig {
  // Control-plane replicas per domain (leader + standbys). 1 = no standby:
  // a leader crash is a permanent outage (the single-replica ablation).
  int replicas = 1;
  // Acks required before a record counts as delivered to the standby tier.
  // Must be <= replicas. Only meaningful when replicas > 1.
  int quorum = 1;
  // Append -> applied-on-a-standby delay. Also the cost of fetching the
  // sealed tail at takeover. 0 with replicas == 1 is the degenerate config
  // pinned bit-identical to the pre-log tree.
  DurationNs replication_latency = 0;
  // Leased leader: a standby must wait out the dead leader's lease before
  // taking over (prevents split-brain; matches the heartbeat default in
  // FaultDetectionConfig).
  DurationNs lease_duration = MsToNs(500);
  // Per-record cost of replaying the unreplicated tail at takeover.
  DurationNs replay_cost_per_record = UsToNs(2);
};

class ControlLog {
 public:
  explicit ControlLog(sim::Simulator* sim, CtrlConfig config = CtrlConfig{});

  ControlLog(const ControlLog&) = delete;
  ControlLog& operator=(const ControlLog&) = delete;

  // Registers a named domain (one state machine's record stream) and returns
  // its id. Registration order is deterministic, so ids are too.
  int32_t RegisterDomain(std::string name);

  // Attaches the live (leader) instance for sm->domain(): every subsequent
  // Append of that domain is applied to it inline. One attachment per domain;
  // re-attaching replaces the previous instance (failover swap).
  void Attach(CtrlStateMachine* sm);
  void Detach(int32_t domain);

  // Sequences, stamps, stores, and leader-applies one record. The returned
  // reference is valid until the next Append.
  const LogRecord& Append(LogRecord record);

  // Frees stored record `seq`'s ints past the first `keep_ints`, and its str.
  // Only for a payload a later record of the same domain has made
  // unobservable to replay (DESIGN #10). The record itself, its seq and its
  // time stay, so counts, UnreplicatedAt and FailoverDelay do not change.
  void DropPayload(uint64_t seq, size_t keep_ints);

  // Replays every stored record of sm->domain() into `sm`, oldest first.
  // Pair with Fingerprint() to prove log completeness (a late joiner built
  // from nothing must equal the live instance).
  void ReplayInto(CtrlStateMachine* sm) const;
  // Snapshot + replay for late joiners: applies only records with
  // seq > after_seq. The "snapshot" is any copy of the machine taken at
  // after_seq (the state machines are plain-value copyable).
  void ReplayRange(CtrlStateMachine* sm, uint64_t after_seq) const;

  // Records of `domain` appended so far.
  int64_t CountDomain(int32_t domain) const;
  // Records appended within replication_latency of `crash_time` — the tail a
  // standby has not applied when the leader dies at crash_time.
  int64_t UnreplicatedAt(TimeNs crash_time) const;
  // Total takeover delay for a leader crash at `crash_time` (see file
  // comment). Meaningless when !replicated().
  DurationNs FailoverDelay(TimeNs crash_time) const;

  bool replicated() const { return config_.replicas > 1; }
  const CtrlConfig& config() const { return config_; }
  const std::vector<LogRecord>& records() const { return records_; }
  uint64_t next_seq() const { return next_seq_; }
  const std::map<int32_t, std::string>& domains() const { return domain_names_; }

 private:
  sim::Simulator* sim_;
  CtrlConfig config_;
  std::vector<LogRecord> records_;
  uint64_t next_seq_ = 0;
  int32_t next_domain_ = 1;
  std::map<int32_t, std::string> domain_names_;
  std::map<int32_t, CtrlStateMachine*> attached_;
};

}  // namespace deepserve::ctrl

#endif  // DEEPSERVE_CTRL_CONTROL_LOG_H_
