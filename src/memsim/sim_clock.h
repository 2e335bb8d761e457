// Per-worker simulated clocks.
//
// Every worker thread accumulates simulated seconds as kernels charge memory
// traffic and arithmetic against it. A parallel phase's simulated duration is
// the maximum across its workers (the straggler), which is precisely how the
// paper's tail-latency effects become visible; memsim::WorkerFrame owns a
// parallel phase's clocks and takes that maximum.

#pragma once

#include <algorithm>

namespace omega::memsim {

/// Accumulator of simulated time for one worker.
class SimClock {
 public:
  void Advance(double seconds) { seconds_ += seconds; }
  double seconds() const { return seconds_; }

  /// Duration of a compute stream of `compute` seconds running concurrently
  /// with a staging fetch that takes `fetch` seconds alone but progresses
  /// `slowdown`x slower while the compute stream is active (the two streams
  /// share device bandwidth per the Fig. 9 saturation curves). While compute
  /// runs the fetch advances at rate 1/slowdown; any remainder finishes at
  /// full rate afterwards:
  ///   compute / slowdown >= fetch  ->  fully hidden, duration = compute
  ///   otherwise                        duration = fetch + compute*(1 - 1/s)
  /// slowdown == 1 reduces to max(compute, fetch) (independent devices).
  static double OverlappedSeconds(double compute, double fetch,
                                  double slowdown) {
    if (fetch <= 0.0) return compute;
    if (compute <= 0.0) return fetch;
    const double s = std::max(1.0, slowdown);
    return std::max(compute, fetch + compute * (1.0 - 1.0 / s));
  }

  /// Advances by OverlappedSeconds(compute, fetch, slowdown) and returns the
  /// fetch seconds hidden behind the compute stream (compute + fetch -
  /// duration); serial charging would advance by compute + fetch.
  double ChargeOverlapped(double compute, double fetch, double slowdown) {
    const double duration = OverlappedSeconds(compute, fetch, slowdown);
    Advance(duration);
    return compute + fetch - duration;
  }

 private:
  double seconds_ = 0.0;
};

}  // namespace omega::memsim
