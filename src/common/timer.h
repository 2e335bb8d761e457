// Wall-clock timing helpers (host time, as opposed to memsim simulated time).

#pragma once

#include <chrono>

namespace omega {

/// Simple monotonic stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace omega
