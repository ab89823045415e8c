#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace deepserve::obs {

namespace {

// Minimal JSON string escaping; event names are fixed tokens but arg values
// may carry model names or status messages.
void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendArgs(std::string* out, const std::vector<TraceArg>& args) {
  bool first = true;
  for (const TraceArg& arg : args) {
    if (!first) {
      *out += ',';
    }
    first = false;
    *out += '"';
    AppendEscaped(out, arg.key);
    *out += "\":";
    if (arg.numeric) {
      *out += arg.value;
    } else {
      *out += '"';
      AppendEscaped(out, arg.value);
      *out += '"';
    }
  }
}

}  // namespace

std::string_view PhaseToString(Phase phase) {
  switch (phase) {
    case Phase::kInstant:
      return "i";
    case Phase::kBegin:
      return "B";
    case Phase::kEnd:
      return "E";
    case Phase::kAsyncBegin:
      return "b";
    case Phase::kAsyncEnd:
      return "e";
    case Phase::kCounter:
      return "C";
  }
  return "?";
}

int Tracer::NewTrack(std::string name) {
  track_names_.push_back(std::move(name));
  return static_cast<int>(track_names_.size()) - 1;
}

void Tracer::SetLaneName(int pid, int tid, std::string name) {
  lane_names_.emplace_back(std::make_pair(pid, tid), std::move(name));
}

int LazyTrack::Pid(Tracer* tracer) {
  if (tracer == nullptr) {
    return -1;
  }
  if (pid_ < 0) {
    pid_ = tracer->NewTrack(name_);
    for (size_t lane = 0; lane < lanes_.size(); ++lane) {
      tracer->SetLaneName(pid_, static_cast<int>(lane), lanes_[lane]);
    }
  }
  return pid_;
}

void Tracer::Instant(TimeNs ts, int pid, int tid, std::string_view name,
                     std::vector<TraceArg> args) {
  events_.push_back(TraceEvent{ts, Phase::kInstant, pid, tid, 0, std::string(name),
                               std::move(args)});
}

void Tracer::Begin(TimeNs ts, int pid, int tid, std::string_view name,
                   std::vector<TraceArg> args) {
  events_.push_back(TraceEvent{ts, Phase::kBegin, pid, tid, 0, std::string(name),
                               std::move(args)});
}

void Tracer::End(TimeNs ts, int pid, int tid, std::string_view name,
                 std::vector<TraceArg> args) {
  events_.push_back(TraceEvent{ts, Phase::kEnd, pid, tid, 0, std::string(name),
                               std::move(args)});
}

void Tracer::AsyncBegin(TimeNs ts, int pid, uint64_t id, std::string_view name,
                        std::vector<TraceArg> args) {
  events_.push_back(TraceEvent{ts, Phase::kAsyncBegin, pid, 0, id, std::string(name),
                               std::move(args)});
}

void Tracer::AsyncEnd(TimeNs ts, int pid, uint64_t id, std::string_view name,
                      std::vector<TraceArg> args) {
  events_.push_back(TraceEvent{ts, Phase::kAsyncEnd, pid, 0, id, std::string(name),
                               std::move(args)});
}

void Tracer::Counter(TimeNs ts, int pid, std::string_view name, double value) {
  events_.push_back(TraceEvent{ts, Phase::kCounter, pid, 0, 0, std::string(name),
                               {Arg("value", value)}});
}

std::vector<const TraceEvent*> Tracer::EventsNamed(std::string_view name) const {
  std::vector<const TraceEvent*> out;
  for (const TraceEvent& ev : events_) {
    if (ev.name == name) {
      out.push_back(&ev);
    }
  }
  return out;
}

std::vector<const TraceEvent*> Tracer::EventsByTs() const {
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events_.size());
  for (const TraceEvent& ev : events_) {
    ordered.push_back(&ev);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) { return a->ts < b->ts; });
  return ordered;
}

std::string Tracer::ToChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto add_meta = [&](int pid, int tid, const char* what, const std::string& name) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"ph\":\"M\",\"ts\":0,\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" + what +
           "\",\"args\":{\"name\":\"";
    AppendEscaped(&out, name);
    out += "\"}}";
  };
  for (size_t pid = 0; pid < track_names_.size(); ++pid) {
    add_meta(static_cast<int>(pid), 0, "process_name", track_names_[pid]);
  }
  for (const auto& [key, name] : lane_names_) {
    add_meta(key.first, key.second, "thread_name", name);
  }
  for (const TraceEvent* ev : EventsByTs()) {
    if (!first) {
      out += ',';
    }
    first = false;
    // Chrome wants microseconds; keep full ns precision as a fraction.
    double ts_us = static_cast<double>(ev->ts) / 1e3;
    char ts_buf[32];
    std::snprintf(ts_buf, sizeof(ts_buf), "%.3f", ts_us);
    out += "{\"name\":\"";
    AppendEscaped(&out, ev->name);
    out += "\",\"ph\":\"";
    out += PhaseToString(ev->phase);
    out += "\",\"ts\":";
    out += ts_buf;
    out += ",\"pid\":" + std::to_string(ev->pid) + ",\"tid\":" + std::to_string(ev->tid);
    if (ev->phase == Phase::kAsyncBegin || ev->phase == Phase::kAsyncEnd) {
      out += ",\"cat\":\"async\",\"id\":" + std::to_string(ev->async_id);
    }
    if (ev->phase == Phase::kInstant) {
      out += ",\"s\":\"t\"";
    }
    out += ",\"args\":{\"ts_ns\":" + std::to_string(ev->ts);
    if (!ev->args.empty()) {
      out += ',';
      AppendArgs(&out, ev->args);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string Tracer::ToJsonl() const {
  std::string out;
  for (const TraceEvent* ev : EventsByTs()) {
    out += "{\"ts\":" + std::to_string(ev->ts) + ",\"ph\":\"";
    out += PhaseToString(ev->phase);
    out += "\",\"pid\":" + std::to_string(ev->pid) + ",\"tid\":" + std::to_string(ev->tid);
    if (ev->async_id != 0) {
      out += ",\"id\":" + std::to_string(ev->async_id);
    }
    out += ",\"name\":\"";
    AppendEscaped(&out, ev->name);
    out += '"';
    if (!ev->args.empty()) {
      out += ',';
      AppendArgs(&out, ev->args);
    }
    out += "}\n";
  }
  return out;
}

namespace {

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InternalError("cannot open trace output " + path);
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) {
    return InternalError("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace

Status Tracer::WriteChromeJson(const std::string& path) const {
  return WriteFile(path, ToChromeJson());
}

Status Tracer::WriteJsonl(const std::string& path) const {
  return WriteFile(path, ToJsonl());
}

}  // namespace deepserve::obs
