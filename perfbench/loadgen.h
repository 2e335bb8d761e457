// Load generator of the serving workloads: one thread (the caller) both
// sends requests to an EmbeddingServer and collects their results, so the
// generator costs a single core beside the server's workers.
//
// Open loop: requests are due at Poisson arrival times of a fixed rate,
// whatever the server does. Between sends the thread waits on the oldest
// in-flight request until the next due time, then sends; a stall (server or
// host) therefore delays later sends, and latency is timed from the due
// time, not the send time, so the wait a stall imposes on queued arrivals
// is counted. How late each send was ("lag") is recorded separately, so a
// tail change can be told apart from the generator itself running late.
//
// Closed loop: a fixed window of requests is kept in flight; the next one
// is sent as soon as the oldest completes. Throughput is the result.
//
// Completions are observed in submission order: a request that finishes
// before an older one is stamped when the older one is. The request stream
// (query kind, key, and arrival gaps) is drawn from seeded generators in
// submission order, so a seed fixes the inputs whatever the timing.

#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "memsim/memory_system.h"
#include "serve/server.h"
#include "serve/zipf.h"

namespace perfbench {

/// Deterministic read stream: Zipf-ranked keys, a top-k / lookup mix, and
/// exponential inter-arrival gaps.
class RequestStream {
 public:
  RequestStream(const std::vector<uint32_t>& rank_to_key, uint64_t seed,
                double zipf_skew, double topk_fraction, uint32_t k);

  omega::serve::Query NextQuery();
  /// Next inter-arrival gap of a Poisson process of `rate` per second.
  double NextGapSeconds(double rate);

 private:
  const std::vector<uint32_t>& rank_to_key_;
  omega::serve::ZipfGenerator zipf_;
  omega::Rng mix_;
  omega::Rng arrivals_;
  double topk_fraction_;
  uint32_t k_;
};

struct PhaseOptions {
  bool open_loop = true;
  double rate = 0.0;          ///< open loop: arrivals per second
  size_t window = 64;         ///< closed loop: requests kept in flight
  double seconds = 0.0;       ///< phase length (0 = until max_requests)
  uint64_t max_requests = 0;  ///< stop after this many sends (0 = no cap)
  /// Keep every n-th result, up to keep_limit of them, for checking after
  /// the phase (a fixed bound, so memory does not follow host speed); 0
  /// keeps none.
  uint32_t keep_every = 0;
  size_t keep_limit = 1024;
};

struct KeptResult {
  omega::serve::Query query;
  omega::serve::QueryResult result;
};

struct PhaseReport {
  uint64_t attempted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  double wall_seconds = 0.0;
  std::vector<double> latency_ms;  ///< from due (open) or send (closed) time
  std::vector<double> lag_ms;      ///< open loop: send time - due time
  std::vector<double> submit_us;   ///< time inside Submit
  size_t backlog_max = 0;          ///< most requests in flight
  /// Mean requests in flight at sends falling in each quarter of the phase.
  std::vector<double> backlog_quarter_mean;
  omega::serve::EmbeddingServer::Stats server_delta;
  omega::memsim::TrafficSnapshot traffic_delta;
  std::vector<KeptResult> kept;
};

/// Runs one phase against a started server on the calling thread (see file
/// comment). Traced runs record, per request, a root "request.read" span
/// tiled by "loadgen.lag", "serve.submit" and "serve.wait" children sharing
/// the request's group id.
PhaseReport RunPhase(omega::serve::EmbeddingServer* server,
                     RequestStream* stream, const PhaseOptions& options,
                     SpanRecorder* spans);

}  // namespace perfbench
