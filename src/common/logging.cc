#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace deepserve {

namespace {

constexpr LogSeverity kMinSeverity = LogSeverity::kWarning;

const char* SeverityTag(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kDebug:
      return "D";
    case LogSeverity::kInfo:
      return "I";
    case LogSeverity::kWarning:
      return "W";
    case LogSeverity::kError:
      return "E";
    case LogSeverity::kFatal:
      return "F";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

std::mutex& EmitMutex() {
  static std::mutex m;
  return m;
}

}  // namespace

LogSeverity MinLogSeverity() { return kMinSeverity; }

namespace internal {

LogMessage::LogMessage(const char* file, int line, LogSeverity severity)
    : file_(file), line_(line), severity_(severity) {}

LogMessage::~LogMessage() {
  {
    std::lock_guard<std::mutex> lock(EmitMutex());
    std::fprintf(stderr, "[%s %s:%d] %s\n", SeverityTag(severity_), Basename(file_), line_,
                 stream_.str().c_str());
    std::fflush(stderr);
  }
  if (severity_ == LogSeverity::kFatal) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace deepserve
