// Shared plumbing of the benchmark driver: seed streams, host clocks, the
// in-memory span recorder, and the small JSON writer whose output run.py
// reduces into metrics.
//
// Spans are the benchmark's own: they bracket calls into the library layers
// from the outside (no span lives inside src/). Each span has a name whose
// prefix up to the first '.' is its layer, a parent (0 = root), and a group
// id shared by every span of one request, update, or repetition. Spans whose
// start the benchmark cannot observe (RunReport phases, timed inside the
// engine) carry only a duration. run.py computes self time per layer from
// the parent links.

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Independent input stream `stream` of workload seed `seed`.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return omega::SplitMix64(seed ^ omega::SplitMix64(stream));
}

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Insertion-ordered JSON object with numeric, string, and array members.
class JsonObject {
 public:
  void Num(const std::string& key, double value);
  void Str(const std::string& key, const std::string& value);
  void Array(const std::string& key, const std::vector<double>& values);
  void Object(const std::string& key, const JsonObject& value);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

/// Thread-safe in-memory span sink (see file comment). Disabled recorders
/// drop everything and cost one branch per call.
class SpanRecorder {
 public:
  SpanRecorder(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  /// A fresh span id, so children can name a parent recorded after them.
  uint64_t NewId();

  /// Records span `id` over [start, end].
  void Record(uint64_t id, const std::string& name, uint64_t parent,
              uint64_t group, Clock::time_point start, Clock::time_point end);

  /// Records a span known only by its duration.
  void RecordDuration(uint64_t id, const std::string& name, uint64_t parent,
                      uint64_t group, double seconds);

  /// Host seconds spent inside Record/RecordDuration: the tracer's own cost.
  double overhead_seconds() const;

  /// Writes every span as a JSON array of
  /// [id, parent, group, name, start_s | null, dur_s].
  bool WriteFile(const std::string& path) const;

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    uint64_t group;
    std::string name;
    double start_s;  ///< < 0: unknown
    double dur_s;
  };

  void Append(Span span, Clock::time_point call_start);

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  double overhead_s_ = 0.0;
};

/// What one workload run hands back to main(): scalar values, raw sample
/// arrays (run.py takes their percentiles), and named correctness checks.
struct WorkloadResult {
  uint64_t attempted = 0;  ///< operations issued in the measured window
  uint64_t op_failures = 0;  ///< failed or rejected operations
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  JsonObject values;
  JsonObject samples;
  JsonObject checks;  ///< name -> {"checked": n, "failed": m}

  void AddCheck(const std::string& name, uint64_t checked, uint64_t failed);
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

}  // namespace perfbench
