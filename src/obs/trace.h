// Simulation-time event tracer (observability layer, not part of the model).
//
// Every result in the paper is a telemetry artifact — per-step TPOT,
// KV-usage heatmaps, scaling-phase breakdowns — and scheduling bugs hide in
// event *ordering*, not in end-of-run averages. The Tracer records typed
// events (seq.submit, step begin/end with the StepShape, preempt,
// populate/kv_send spans, scale.phase, cache.hit/miss) with sim timestamps
// and exports two views of the same stream:
//   * Chrome trace_event JSON (chrome://tracing, Perfetto) — one process
//     ("track") per engine / TaskExecutor / subsystem, one thread per DP
//     group, so disaggregated handoffs and PP micro-batches are visible as
//     nested slices;
//   * JSONL (one event per line) for scripted analysis and golden tests.
//
// The tracer is strictly passive: it never schedules simulator events and
// never mutates model state, so enabling it cannot perturb a deterministic
// run. Instrumentation sites must be zero-cost when tracing is disabled —
// the convention is a null-sink check BEFORE any argument formatting:
//
//   if (obs::Tracer* t = sim_->tracer()) {
//     t->Instant(sim_->Now(), pid, tid, "seq.submit",
//                {obs::Arg("req", seq->request_id)});
//   }
#ifndef DEEPSERVE_OBS_TRACE_H_
#define DEEPSERVE_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace deepserve::obs {

// One key/value event annotation. Values are stored pre-formatted; numeric
// values are emitted unquoted so trace consumers can aggregate them.
struct TraceArg {
  std::string key;
  std::string value;
  bool numeric = false;
};

inline TraceArg Arg(std::string key, std::string value) {
  return TraceArg{std::move(key), std::move(value), false};
}
inline TraceArg Arg(std::string key, std::string_view value) {
  return TraceArg{std::move(key), std::string(value), false};
}
inline TraceArg Arg(std::string key, const char* value) {
  return TraceArg{std::move(key), std::string(value), false};
}
inline TraceArg Arg(std::string key, int64_t value) {
  return TraceArg{std::move(key), std::to_string(value), true};
}
inline TraceArg Arg(std::string key, uint64_t value) {
  return TraceArg{std::move(key), std::to_string(value), true};
}
inline TraceArg Arg(std::string key, int value) {
  return TraceArg{std::move(key), std::to_string(value), true};
}
inline TraceArg Arg(std::string key, double value) {
  return TraceArg{std::move(key), std::to_string(value), true};
}

// Chrome trace_event phases we emit. Begin/End slices must nest per (pid,
// tid); spans that can overlap on one track (populate, kv_send) use the
// async phases with an explicit id instead.
enum class Phase : char {
  kInstant = 'i',
  kBegin = 'B',
  kEnd = 'E',
  kAsyncBegin = 'b',
  kAsyncEnd = 'e',
  kCounter = 'C',
};

std::string_view PhaseToString(Phase phase);

struct TraceEvent {
  TimeNs ts = 0;
  Phase phase = Phase::kInstant;
  int pid = 0;          // track (engine / TE / subsystem)
  int tid = 0;          // sub-track (DP group); 0 for single-lane tracks
  uint64_t async_id = 0;  // correlates kAsyncBegin/kAsyncEnd pairs
  std::string name;
  std::vector<TraceArg> args;
};

class Tracer {
 public:
  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // ---- track registration --------------------------------------------------
  // Allocates a new track (Chrome "process") and names it. Subsystems call
  // this lazily on first use so a tracer may be attached after construction.
  int NewTrack(std::string name);
  // Names a sub-track (Chrome "thread"), e.g. "dp0" for a DP group.
  void SetLaneName(int pid, int tid, std::string name);

  // ---- event recording -----------------------------------------------------
  void Instant(TimeNs ts, int pid, int tid, std::string_view name,
               std::vector<TraceArg> args = {});
  // Begin/End slices: must strictly nest within one (pid, tid) lane.
  void Begin(TimeNs ts, int pid, int tid, std::string_view name,
             std::vector<TraceArg> args = {});
  void End(TimeNs ts, int pid, int tid, std::string_view name,
           std::vector<TraceArg> args = {});
  // Async spans: may overlap freely; `id` pairs the begin with the end.
  void AsyncBegin(TimeNs ts, int pid, uint64_t id, std::string_view name,
                  std::vector<TraceArg> args = {});
  void AsyncEnd(TimeNs ts, int pid, uint64_t id, std::string_view name,
                std::vector<TraceArg> args = {});
  // Counter track (renders as a filled graph in Perfetto).
  void Counter(TimeNs ts, int pid, std::string_view name, double value);

  // ---- introspection / export ---------------------------------------------
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  // In recording order, not sim-time order: an engine records a decode
  // run's later steps when the run settles.
  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<std::string>& tracks() const { return track_names_; }

  // Events with the given name, in recording order.
  std::vector<const TraceEvent*> EventsNamed(std::string_view name) const;
  // Every event, stably sorted by timestamp (ties keep recording order, so
  // B/E slices still nest): the order both exports write.
  std::vector<const TraceEvent*> EventsByTs() const;

  // Chrome trace_event JSON ({"traceEvents": [...]}; ts in microseconds as
  // chrome expects, original ns kept in args).
  std::string ToChromeJson() const;
  // One JSON object per line: {"ts":..,"ph":..,"pid":..,"name":..,args...}.
  std::string ToJsonl() const;

  [[nodiscard]] Status WriteChromeJson(const std::string& path) const;
  [[nodiscard]] Status WriteJsonl(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::string> track_names_;                    // index = pid
  std::vector<std::pair<std::pair<int, int>, std::string>> lane_names_;
};

// A subsystem's track, registered with the tracer on first use so a tracer
// may be attached after the subsystem is built. Subsystems register in the
// order they first emit, so pids follow that order.
class LazyTrack {
 public:
  // `lanes[i]` names lane (Chrome thread) i of the track.
  LazyTrack(std::string name, std::vector<std::string> lanes)
      : name_(std::move(name)), lanes_(std::move(lanes)) {}

  // The track's pid; the first call with a tracer registers the track and
  // its lane names. -1 while `tracer` is null.
  int Pid(Tracer* tracer);

 private:
  std::string name_;
  std::vector<std::string> lanes_;
  int pid_ = -1;
};

}  // namespace deepserve::obs

#endif  // DEEPSERVE_OBS_TRACE_H_
