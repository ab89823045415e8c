// Minimal leveled logging + CHECK macros.
//
// Usage:
//   DS_LOG(INFO) << "scaled to " << n << " TEs";
//   DS_CHECK(ptr != nullptr) << "missing executor";
//   DS_CHECK_EQ(a, b);
//
// Messages below WARNING are dropped so tests and benches stay quiet; FATAL
// always aborts after printing.
#ifndef DEEPSERVE_COMMON_LOGGING_H_
#define DEEPSERVE_COMMON_LOGGING_H_

#include <sstream>
#include <string_view>

namespace deepserve {

enum class LogSeverity { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

// The minimum severity that is emitted.
LogSeverity MinLogSeverity();

namespace internal {

class LogMessage {
 public:
  LogMessage(const char* file, int line, LogSeverity severity);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  LogSeverity severity_;
  std::ostringstream stream_;
};

// Swallows the streamed expression when the message is filtered out.
class LogMessageVoidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace deepserve

#define DS_LOG_DEBUG ::deepserve::LogSeverity::kDebug
#define DS_LOG_INFO ::deepserve::LogSeverity::kInfo
#define DS_LOG_WARNING ::deepserve::LogSeverity::kWarning
#define DS_LOG_ERROR ::deepserve::LogSeverity::kError
#define DS_LOG_FATAL ::deepserve::LogSeverity::kFatal

#define DS_LOG(severity)                                                  \
  (DS_LOG_##severity < ::deepserve::MinLogSeverity() &&                   \
   DS_LOG_##severity != ::deepserve::LogSeverity::kFatal)                 \
      ? (void)0                                                           \
      : ::deepserve::internal::LogMessageVoidify() &                      \
            ::deepserve::internal::LogMessage(__FILE__, __LINE__, DS_LOG_##severity).stream()

#define DS_CHECK(condition)                                                   \
  (condition) ? (void)0                                                      \
              : ::deepserve::internal::LogMessageVoidify() &                 \
                    ::deepserve::internal::LogMessage(__FILE__, __LINE__,    \
                                                      DS_LOG_FATAL)          \
                        .stream()                                            \
                        << "Check failed: " #condition " "

#define DS_CHECK_EQ(a, b) DS_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define DS_CHECK_NE(a, b) DS_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define DS_CHECK_LT(a, b) DS_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define DS_CHECK_LE(a, b) DS_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define DS_CHECK_GT(a, b) DS_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define DS_CHECK_GE(a, b) DS_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

#define DS_CHECK_OK(expr)                            \
  do {                                               \
    ::deepserve::Status _ds_st = (expr);             \
    DS_CHECK(_ds_st.ok()) << _ds_st.ToString();      \
  } while (false)

#endif  // DEEPSERVE_COMMON_LOGGING_H_
