// Minimal leveled logging plus CHECK macros, in the style of glog-lite
// facilities found in Arrow and RocksDB.

#pragma once

#include <sstream>
#include <string>

namespace omega {

/// Messages below kInfo are dropped.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

namespace internal {

/// Stream-style log sink; emits on destruction. kFatal aborts.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace omega

#define OMEGA_LOG(level)                                                      \
  ::omega::internal::LogMessage(::omega::LogLevel::k##level, __FILE__, __LINE__) \
      .stream()

#define OMEGA_CHECK(cond)                                    \
  if (!(cond)) OMEGA_LOG(Fatal) << "Check failed: " #cond " "

#define OMEGA_CHECK_OK(expr)                             \
  do {                                                   \
    ::omega::Status _st = (expr);                        \
    if (!_st.ok()) OMEGA_LOG(Fatal) << _st.ToString();   \
  } while (false)

#define OMEGA_DCHECK(cond) OMEGA_CHECK(cond)
