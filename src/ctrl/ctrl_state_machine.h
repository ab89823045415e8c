// Replicated control plane, part 1: the deterministic state-machine contract.
//
// Control-plane state (the TE directory in ClusterManager, the job table in
// JobExecutor) is modeled as deterministic state machines that mutate ONLY by
// applying records from a sequenced shared log (control_log.h). The contract:
//
//   state == fold(Apply, initial_state, log_prefix)
//
// for every replica, bit-for-bit. A standby that replays the same prefix owns
// the same state as the leader did, so leader failover is: replay the tail,
// bump the epoch, resume. Fingerprint() folds every field that participates
// in that contract into one hash; the failover path DS_CHECKs that a fresh
// replay fingerprints identically to the live instance before swapping it in,
// which forces every mutation to flow through the log (ds_lint's
// ctrl-apply-only rule enforces the same thing statically).
//
// Decisions stay outside: a leader computes what to do from const views of
// the state machine, then appends a record describing the outcome. Apply()
// must be pure replay — no Simulator access, no RNG, no reads of anything but
// the record and the machine's own state.
#ifndef DEEPSERVE_CTRL_CTRL_STATE_MACHINE_H_
#define DEEPSERVE_CTRL_CTRL_STATE_MACHINE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "workload/request.h"

namespace deepserve::ctrl {

// One sequenced mutation. `seq` is global across domains (the log is shared);
// `domain` routes the record to one state machine; `type` is domain-specific.
// Payload is deliberately lowest-common-denominator — a flat int vector plus
// one string — so records are trivially comparable, hashable, and replayable.
// A record that carries a request's prompt holds it by shared reference
// rather than as ints: the tokens are immutable, so sharing them is replay-
// equivalent to a copy.
struct LogRecord {
  uint64_t seq = 0;   // assigned by ControlLog::Append
  TimeNs time = 0;    // sim time at append (replay uses this, never Now())
  int32_t domain = 0; // ControlLog::RegisterDomain id
  int32_t type = 0;   // domain-specific record type
  std::vector<int64_t> ints;
  std::string str;
  workload::Prompt prompt = {};
};

class CtrlStateMachine {
 public:
  explicit CtrlStateMachine(int32_t domain) : domain_(domain) {}
  virtual ~CtrlStateMachine() = default;
  // State machines are plain values: copies are snapshots (ReplayRange picks
  // up from one), and failover swaps a replayed standby in by assignment.
  CtrlStateMachine(const CtrlStateMachine&) = default;
  CtrlStateMachine& operator=(const CtrlStateMachine&) = default;
  CtrlStateMachine(CtrlStateMachine&&) = default;
  CtrlStateMachine& operator=(CtrlStateMachine&&) = default;

  int32_t domain() const { return domain_; }
  void set_domain(int32_t domain) { domain_ = domain; }

  virtual std::string_view name() const = 0;
  // Applies one record of this machine's domain. Must be deterministic and
  // must be the ONLY path that mutates state (ds_lint: ctrl-apply-only).
  virtual void Apply(const LogRecord& record) = 0;
  // Order-stable hash over every replicated field. Two instances with equal
  // fingerprints after the same prefix are interchangeable.
  virtual uint64_t Fingerprint() const = 0;

 protected:
  // FNV-1a fold helpers shared by subclasses' Fingerprint().
  static constexpr uint64_t kFnvOffset = 1469598103934665603ull;
  static constexpr uint64_t kFnvPrime = 1099511628211ull;
  static void Mix(uint64_t* hash, uint64_t value) {
    *hash ^= value;
    *hash *= kFnvPrime;
  }
  static void MixString(uint64_t* hash, std::string_view s) {
    Mix(hash, s.size());
    for (char c : s) {
      Mix(hash, static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
  }

 private:
  int32_t domain_ = 0;
};

}  // namespace deepserve::ctrl

#endif  // DEEPSERVE_CTRL_CTRL_STATE_MACHINE_H_
