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
//
// Storage is flat (DESIGN #10): a 24-byte header per record (time, domain,
// type, arena offset; the seq is its index), every record's ints in one
// arena, and the (str, prompt) payloads in a table keyed by seq that holds
// only records whose payload has not been dropped. records() and Apply see a
// LogRecord view assembled from the three.
#ifndef DEEPSERVE_CTRL_CONTROL_LOG_H_
#define DEEPSERVE_CTRL_CONTROL_LOG_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/time_units.h"
#include "common/types.h"
#include "ctrl/ctrl_state_machine.h"
#include "sim/simulator.h"
#include "workload/request.h"

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

  // INVALID_ARGUMENT unless replicas >= 1, 1 <= quorum <= replicas and no
  // duration is negative. ControlLog requires a valid config.
  [[nodiscard]] Status Validate() const;
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

  // Sequences, stamps, stores, and leader-applies one record. A record with a
  // non-empty `str` or `prompt` gets a payload entry. `ints` must not point
  // into this log (the arena may reallocate). The returned view is valid
  // until the next Append or DropPayload.
  LogRecord Append(int32_t domain, int32_t type, std::span<const int64_t> ints = {},
                   std::string_view str = {}, workload::Prompt prompt = {});

  // Erases stored record `seq`'s payload: its prompt reference and its str.
  // Only for a payload a later record of the same domain has made
  // unobservable to replay (DESIGN #10). The record itself, its ints, seq and
  // time stay, so counts, UnreplicatedAt and FailoverDelay do not change.
  void DropPayload(uint64_t seq);

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

  // The stored records in seq order, as LogRecord views.
  class Records {
   public:
    class Iterator {
     public:
      LogRecord operator*() const { return log_->View(seq_); }
      Iterator& operator++() {
        ++seq_;
        return *this;
      }
      bool operator==(const Iterator& other) const { return seq_ == other.seq_; }

     private:
      friend class Records;
      Iterator(const ControlLog* log, uint64_t seq) : log_(log), seq_(seq) {}
      const ControlLog* log_;
      uint64_t seq_;
    };

    Iterator begin() const { return {log_, 0}; }
    Iterator end() const { return {log_, size()}; }
    size_t size() const { return log_->headers_.size(); }
    LogRecord operator[](uint64_t seq) const { return log_->View(seq); }
    LogRecord front() const { return log_->View(0); }
    LogRecord back() const { return log_->View(size() - 1); }

   private:
    friend class ControlLog;
    explicit Records(const ControlLog* log) : log_(log) {}
    const ControlLog* log_;
  };

  bool replicated() const { return config_.replicas > 1; }
  const CtrlConfig& config() const { return config_; }
  Records records() const { return Records(this); }
  uint64_t next_seq() const { return headers_.size(); }
  // Bytes the stored records hold: header and arena capacity plus the live
  // payload entries (the prompts' tokens belong to their requests and are
  // not counted).
  size_t bytes() const;

 private:
  // One record's fixed part. Its ints are ints_[ints_begin, the next
  // header's ints_begin), or up to the arena's end for the last record.
  struct Header {
    TimeNs time;
    uint64_t ints_begin : 63;
    uint64_t has_payload : 1;  // payloads_ holds an entry for this seq
    int32_t domain;
    int32_t type;
  };
  static_assert(sizeof(Header) == 24);
  struct Payload {
    std::string str;
    workload::Prompt prompt;
  };

  LogRecord View(uint64_t seq) const;

  sim::Simulator* sim_;
  CtrlConfig config_;
  std::vector<Header> headers_;  // indexed by seq
  std::vector<int64_t> ints_;    // every record's ints, in seq order
  std::map<uint64_t, Payload> payloads_;  // by seq, only while not dropped
  int32_t next_domain_ = 1;
  std::map<int32_t, std::string> domain_names_;
  std::map<int32_t, CtrlStateMachine*> attached_;
};

}  // namespace deepserve::ctrl

#endif  // DEEPSERVE_CTRL_CONTROL_LOG_H_
