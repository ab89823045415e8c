#include "faults/fault_injector.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.h"
#include "common/time_units.h"
#include "hw/link.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/job_executor.h"

namespace deepserve::faults {

namespace {

// Strict field parsers for the schedule grammar. std::atof/atoi silently
// accept trailing garbage ("5abc"), have undefined behavior on overflow, and
// can't signal failure — a fuzzed or truncated plan string must come back as
// InvalidArgument, never as UB or a bogus event.
bool ParseDoubleField(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseIntField(const std::string& text, int64_t min, int64_t max, int64_t* out) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

// Cap every time-like field so SToNs can't overflow TimeNs
// (1e7 s = 1e16 ns, comfortably under the int64 ceiling).
constexpr double kMaxScheduleSeconds = 1e7;

}  // namespace

std::string_view FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNpuCrash:
      return "npu-crash";
    case FaultKind::kTeShellCrash:
      return "te-shell-crash";
    case FaultKind::kLinkDegrade:
      return "link-degrade";
    case FaultKind::kSlowNode:
      return "slow-node";
    case FaultKind::kCmCrash:
      return "cm-crash";
    case FaultKind::kJeCrash:
      return "je-crash";
  }
  return "?";
}

FaultInjector::FaultInjector(sim::Simulator* sim, serving::ClusterManager* manager,
                             uint64_t seed)
    : sim_(sim), manager_(manager), rng_(seed) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK(manager_ != nullptr);
}

void FaultInjector::TraceFault(const FaultEvent& event, std::string_view detail,
                               int64_t target) {
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "fault.inject",
               {obs::Arg("kind", FaultKindToString(event.kind)), obs::Arg("target", target),
                obs::Arg("detail", detail), obs::Arg("factor", event.factor)});
  }
}

void FaultInjector::RegisterJobExecutor(serving::JobExecutor* je) {
  DS_CHECK(je != nullptr);
  jes_.push_back(je);
}

void FaultInjector::Schedule(const FaultEvent& event) {
  DS_CHECK(event.time >= sim_->Now());
  sim_->ScheduleAt(event.time, [this, event] { Fire(event); });
}

void FaultInjector::ScheduleAll(const std::vector<FaultEvent>& events) {
  for (const FaultEvent& event : events) {
    Schedule(event);
  }
}

std::vector<serving::TaskExecutor*> FaultInjector::LiveTes() const {
  std::vector<serving::TaskExecutor*> live;
  for (const auto& te : manager_->tes()) {
    if (te->ready()) {
      live.push_back(te.get());
    }
  }
  // tes() is in creation order (increasing id), so `live` is already sorted
  // by id — the ordinal targets are stable across runs.
  return live;
}

serving::TaskExecutor* FaultInjector::PickTe(const FaultEvent& event) {
  std::vector<serving::TaskExecutor*> live = LiveTes();
  if (live.empty()) {
    return nullptr;
  }
  size_t index = event.target >= 0
                     ? static_cast<size_t>(event.target) % live.size()
                     : static_cast<size_t>(rng_.UniformInt(
                           0, static_cast<int64_t>(live.size()) - 1));
  return live[index];
}

int FaultInjector::PickMachine(const FaultEvent& event) {
  int machines = manager_->cluster()->num_machines();
  if (machines <= 0) {
    return -1;
  }
  if (event.target >= 0) {
    return event.target % machines;
  }
  return static_cast<int>(rng_.UniformInt(0, machines - 1));
}

void FaultInjector::Fire(const FaultEvent& event) {
  ++stats_.injected;
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    m->counter("faults.injected")->Inc();
  }
  switch (event.kind) {
    case FaultKind::kNpuCrash:
    case FaultKind::kTeShellCrash: {
      serving::TaskExecutor* te = PickTe(event);
      if (te == nullptr) {
        ++stats_.skipped;
        return;
      }
      bool shell = event.kind == FaultKind::kTeShellCrash;
      TraceFault(event, shell ? "shell" : "npu", te->id());
      auto dropped = manager_->CrashTe(
          te->id(), shell ? serving::CrashKind::kTeShell : serving::CrashKind::kNpu);
      DS_CHECK(dropped.ok()) << dropped.status().ToString();
      if (shell) {
        ++stats_.shell_crashes;
      } else {
        ++stats_.npu_crashes;
      }
      return;
    }
    case FaultKind::kLinkDegrade: {
      int machine = PickMachine(event);
      if (machine < 0) {
        ++stats_.skipped;
        return;
      }
      DS_CHECK(event.factor > 0.0 && event.factor <= 1.0)
          << "link degrade factor must be in (0, 1]";
      ++stats_.link_degrades;
      TraceFault(event, "machine", machine);
      hw::SharedLink* hccs = manager_->cluster()->hccs_link(machine);
      hw::SharedLink* roce = manager_->cluster()->roce_link(machine);
      // Compose multiplicatively so overlapping degrades on one machine
      // stack and unwind cleanly.
      hccs->SetBandwidthScale(hccs->bandwidth_scale() * event.factor);
      roce->SetBandwidthScale(roce->bandwidth_scale() * event.factor);
      if (event.duration > 0) {
        sim_->ScheduleAfter(event.duration, [this, machine, factor = event.factor] {
          hw::SharedLink* h = manager_->cluster()->hccs_link(machine);
          hw::SharedLink* r = manager_->cluster()->roce_link(machine);
          h->SetBandwidthScale(h->bandwidth_scale() / factor);
          r->SetBandwidthScale(r->bandwidth_scale() / factor);
          ++stats_.restores;
          if (obs::Tracer* t = sim_->tracer()) {
            t->Instant(sim_->Now(), track_.Pid(t), 0, "fault.restore",
                       {obs::Arg("kind", "link-degrade"), obs::Arg("machine", machine)});
          }
        });
      }
      return;
    }
    case FaultKind::kSlowNode: {
      serving::TaskExecutor* te = PickTe(event);
      if (te == nullptr) {
        ++stats_.skipped;
        return;
      }
      DS_CHECK(event.factor >= 1.0) << "slow-node factor must be >= 1";
      ++stats_.slow_nodes;
      TraceFault(event, "te", te->id());
      flowserve::Engine& engine = te->engine();
      engine.SetStepTimeMultiplier(engine.step_time_multiplier() * event.factor);
      if (event.duration > 0) {
        serving::TeId id = te->id();
        sim_->ScheduleAfter(event.duration, [this, id, factor = event.factor] {
          serving::TaskExecutor* target = manager_->te(id);
          if (target == nullptr) {
            return;
          }
          // Harmless if the TE crashed meanwhile; the multiplier just resets.
          flowserve::Engine& e = target->engine();
          e.SetStepTimeMultiplier(e.step_time_multiplier() / factor);
          ++stats_.restores;
          if (obs::Tracer* t = sim_->tracer()) {
            t->Instant(sim_->Now(), track_.Pid(t), 0, "fault.restore",
                       {obs::Arg("kind", "slow-node"), obs::Arg("te", static_cast<int64_t>(id))});
          }
        });
      }
      return;
    }
    case FaultKind::kCmCrash: {
      TraceFault(event, "cm", 0);
      // Already-down leaders (double crash in one chaos plan) are a skip, not
      // an error — the plan generator doesn't know the recovery timeline.
      Status crashed = manager_->CrashControlLeader();
      if (!crashed.ok()) {
        ++stats_.skipped;
        return;
      }
      ++stats_.cm_crashes;
      return;
    }
    case FaultKind::kJeCrash: {
      if (jes_.empty()) {
        ++stats_.skipped;
        return;
      }
      size_t index = event.target >= 0
                         ? static_cast<size_t>(event.target) % jes_.size()
                         : static_cast<size_t>(rng_.UniformInt(
                               0, static_cast<int64_t>(jes_.size()) - 1));
      TraceFault(event, "je", static_cast<int64_t>(index));
      Status crashed = jes_[index]->CrashLeader();
      if (!crashed.ok()) {
        ++stats_.skipped;
        return;
      }
      ++stats_.je_crashes;
      return;
    }
  }
}

std::vector<FaultEvent> FaultInjector::GeneratePlan(uint64_t seed,
                                                    const FaultPlanConfig& config) {
  DS_CHECK(config.window_end >= config.window_start);
  Rng rng(seed);
  double total_weight = config.npu_crash_weight + config.shell_crash_weight +
                        config.link_degrade_weight + config.slow_node_weight +
                        config.cm_crash_weight + config.je_crash_weight;
  DS_CHECK(total_weight > 0.0);
  std::vector<FaultEvent> plan;
  plan.reserve(static_cast<size_t>(config.count));
  for (int i = 0; i < config.count; ++i) {
    FaultEvent event;
    event.time = config.window_start +
                 static_cast<TimeNs>(rng.NextDouble() *
                                     static_cast<double>(config.window_end - config.window_start));
    double pick = rng.NextDouble() * total_weight;
    if ((pick -= config.npu_crash_weight) < 0) {
      event.kind = FaultKind::kNpuCrash;
    } else if ((pick -= config.shell_crash_weight) < 0) {
      event.kind = FaultKind::kTeShellCrash;
    } else if ((pick -= config.link_degrade_weight) < 0) {
      event.kind = FaultKind::kLinkDegrade;
      event.factor = rng.Uniform(config.degrade_factor_min, config.degrade_factor_max);
      event.duration = config.transient_duration_min +
                       static_cast<DurationNs>(rng.NextDouble() *
                                               static_cast<double>(config.transient_duration_max -
                                                                   config.transient_duration_min));
    } else if ((pick -= config.cm_crash_weight) < 0) {
      // The new kinds carry zero default weight and slow-node stays the
      // catch-all branch, so legacy configs reproduce their historical draw
      // sequences exactly (no new floating-point comparison can flip them).
      event.kind = FaultKind::kCmCrash;
    } else if ((pick -= config.je_crash_weight) < 0) {
      event.kind = FaultKind::kJeCrash;
    } else {
      event.kind = FaultKind::kSlowNode;
      event.factor = rng.Uniform(config.straggle_factor_min, config.straggle_factor_max);
      event.duration = config.transient_duration_min +
                       static_cast<DurationNs>(rng.NextDouble() *
                                               static_cast<double>(config.transient_duration_max -
                                                                   config.transient_duration_min));
    }
    plan.push_back(event);
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  return plan;
}

Result<std::vector<FaultEvent>> FaultInjector::ParseSchedule(const std::string& spec) {
  std::vector<FaultEvent> events;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) {
      end = spec.size();
    }
    std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) {
      continue;
    }
    size_t at = item.find('@');
    if (at == std::string::npos) {
      return InvalidArgumentError("fault event '" + item + "' missing '@<seconds>'");
    }
    std::string kind = item.substr(0, at);
    FaultEvent event;
    if (kind == "npu") {
      event.kind = FaultKind::kNpuCrash;
    } else if (kind == "shell") {
      event.kind = FaultKind::kTeShellCrash;
    } else if (kind == "link") {
      event.kind = FaultKind::kLinkDegrade;
    } else if (kind == "slow") {
      event.kind = FaultKind::kSlowNode;
      event.factor = 2.0;
    } else if (kind == "cm") {
      event.kind = FaultKind::kCmCrash;
    } else if (kind == "je") {
      event.kind = FaultKind::kJeCrash;
    } else {
      return InvalidArgumentError("unknown fault kind '" + kind +
                                  "' (want npu|shell|link|slow|cm|je)");
    }
    // Tail grammar: <seconds>[:<factor>][x<duration_s>][#<target>]
    std::string tail = item.substr(at + 1);
    size_t hash = tail.find('#');
    if (hash != std::string::npos) {
      int64_t target = 0;
      if (!ParseIntField(tail.substr(hash + 1), 0, 1'000'000, &target)) {
        return InvalidArgumentError("fault event '" + item +
                                    "' has a bad target ordinal (want 0..1000000)");
      }
      event.target = static_cast<int>(target);
      tail = tail.substr(0, hash);
    }
    size_t x = tail.find('x');
    if (x != std::string::npos) {
      double duration_s = 0.0;
      if (!ParseDoubleField(tail.substr(x + 1), &duration_s) || duration_s < 0 ||
          duration_s > kMaxScheduleSeconds) {
        return InvalidArgumentError("fault event '" + item + "' has a bad duration");
      }
      event.duration = SToNs(duration_s);
      tail = tail.substr(0, x);
    }
    size_t colon = tail.find(':');
    if (colon != std::string::npos) {
      if (event.kind == FaultKind::kJeCrash) {
        // For je crashes the colon field is the JE ordinal ("je@12:1"), not a
        // factor — there is nothing to scale on a leader crash.
        int64_t ordinal = 0;
        if (!ParseIntField(tail.substr(colon + 1), 0, 1'000'000, &ordinal)) {
          return InvalidArgumentError("fault event '" + item +
                                      "' has a bad JE ordinal (want 0..1000000)");
        }
        event.target = static_cast<int>(ordinal);
      } else if (event.kind == FaultKind::kCmCrash) {
        return InvalidArgumentError("cm crash takes no ':' field: '" + item + "'");
      } else if (!ParseDoubleField(tail.substr(colon + 1), &event.factor)) {
        return InvalidArgumentError("fault event '" + item + "' has a bad factor");
      }
      tail = tail.substr(0, colon);
    }
    if ((event.kind == FaultKind::kCmCrash || event.kind == FaultKind::kJeCrash) &&
        event.duration > 0) {
      return InvalidArgumentError(
          "control-plane crashes are permanent (recovery is the control "
          "log's failover): '" + item + "'");
    }
    if (tail.empty()) {
      return InvalidArgumentError("fault event '" + item + "' missing a time");
    }
    double seconds = 0.0;
    if (!ParseDoubleField(tail, &seconds)) {
      return InvalidArgumentError("fault event '" + item + "' has a malformed time");
    }
    if (seconds < 0) {
      return InvalidArgumentError("fault event '" + item + "' has a negative time");
    }
    if (seconds > kMaxScheduleSeconds) {
      return InvalidArgumentError("fault event '" + item + "' has an out-of-range time");
    }
    event.time = SToNs(seconds);
    if (event.kind == FaultKind::kLinkDegrade &&
        (event.factor <= 0.0 || event.factor > 1.0)) {
      return InvalidArgumentError("link degrade factor must be in (0, 1]: '" + item + "'");
    }
    if (event.kind == FaultKind::kSlowNode && event.factor < 1.0) {
      return InvalidArgumentError("slow-node factor must be >= 1: '" + item + "'");
    }
    events.push_back(event);
  }
  return events;
}

}  // namespace deepserve::faults
