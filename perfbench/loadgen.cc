#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <thread>

namespace perfbench {

namespace serve = omega::serve;

RequestStream::RequestStream(const std::vector<uint32_t>& rank_to_key,
                             uint64_t seed, double zipf_skew,
                             double topk_fraction, uint32_t k)
    : rank_to_key_(rank_to_key),
      zipf_(rank_to_key.size(), zipf_skew, StreamSeed(seed, 1)),
      mix_(StreamSeed(seed, 2)),
      arrivals_(StreamSeed(seed, 3)),
      topk_fraction_(topk_fraction),
      k_(k) {}

serve::Query RequestStream::NextQuery() {
  serve::Query q;
  q.key = rank_to_key_[zipf_.Next()];
  q.kind = mix_.NextDouble() < topk_fraction_ ? serve::QueryKind::kTopK
                                              : serve::QueryKind::kLookup;
  q.k = k_;
  return q;
}

double RequestStream::NextGapSeconds(double rate) {
  // 1 - U lies in (0, 1], so the log is finite.
  return -std::log(1.0 - arrivals_.NextDouble()) / rate;
}

namespace {

struct InFlight {
  uint64_t seq = 0;
  serve::Query query;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point submitted;
  std::future<serve::QueryResult> future;
};

serve::EmbeddingServer::Stats StatsDelta(
    const serve::EmbeddingServer::Stats& after,
    const serve::EmbeddingServer::Stats& before) {
  serve::EmbeddingServer::Stats d = after;
  d.accepted -= before.accepted;
  d.rejected -= before.rejected;
  d.completed -= before.completed;
  d.batches -= before.batches;
  d.refreshes -= before.refreshes;
  d.sim_seconds -= before.sim_seconds;
  d.cache = after.cache - before.cache;
  return d;
}

}  // namespace

PhaseReport RunPhase(serve::EmbeddingServer* server, RequestStream* stream,
                     const PhaseOptions& options, SpanRecorder* spans) {
  PhaseReport report;
  omega::memsim::MemorySystem* ms = server->context().ms();
  const serve::EmbeddingServer::Stats stats0 = server->GetStats();
  const omega::memsim::TrafficSnapshot traffic0 = ms->Traffic();

  std::deque<InFlight> in_flight;
  // Stamps and retires the oldest in-flight request once its result is in.
  auto retire_front = [&] {
    InFlight& req = in_flight.front();
    serve::QueryResult result = req.future.get();
    const Clock::time_point done = Clock::now();
    report.latency_ms.push_back(SecondsBetween(req.due, done) * 1e3);
    if (spans->enabled()) {
      const uint64_t root = spans->NewId();
      spans->Record(root, "request.read", 0, root, req.due, done);
      spans->Record(spans->NewId(), "loadgen.lag", root, root, req.due,
                    req.sent);
      spans->Record(spans->NewId(), "serve.submit", root, root, req.sent,
                    req.submitted);
      spans->Record(spans->NewId(), "serve.wait", root, root, req.submitted,
                    done);
    }
    if (options.keep_every > 0 && req.seq % options.keep_every == 0 &&
        report.kept.size() < options.keep_limit) {
      report.kept.push_back({req.query, std::move(result)});
    }
    in_flight.pop_front();
  };
  auto front_ready = [&](Clock::time_point until) {
    return in_flight.front().future.wait_until(until) ==
           std::future_status::ready;
  };

  std::vector<double> quarter_sum(4, 0.0);
  std::vector<double> quarter_count(4, 0.0);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(options.seconds));
  auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(stream->NextGapSeconds(options.rate)));
  };
  Clock::time_point due = options.open_loop ? t0 + gap() : t0;
  uint64_t seq = 0;
  while (true) {
    const bool capped = options.max_requests > 0 && seq >= options.max_requests;
    const bool timed_out =
        options.seconds > 0.0 && (options.open_loop ? due : Clock::now()) >= end;
    const bool sending = !capped && !timed_out;
    if (!sending) {
      if (in_flight.empty()) break;
      in_flight.front().future.wait();
      retire_front();
      continue;
    }
    if (options.open_loop) {
      // Collect until the next request is due, then send it.
      if (!in_flight.empty() && front_ready(due)) {
        retire_front();
        continue;
      }
      std::this_thread::sleep_until(due);
    } else {
      while (!in_flight.empty() && front_ready(Clock::now())) retire_front();
      if (in_flight.size() >= options.window) {
        in_flight.front().future.wait();
        retire_front();
        continue;
      }
    }
    const Clock::time_point sent = Clock::now();
    if (!options.open_loop) due = sent;
    const serve::Query query = stream->NextQuery();
    auto submitted_future = server->Submit(query);
    const Clock::time_point submitted = Clock::now();
    ++report.attempted;
    report.lag_ms.push_back(SecondsBetween(due, sent) * 1e3);
    report.submit_us.push_back(SecondsBetween(sent, submitted) * 1e6);
    if (!submitted_future.ok()) {
      ++report.rejected;
    } else {
      InFlight req;
      req.seq = seq;
      req.query = query;
      req.due = due;
      req.sent = sent;
      req.submitted = submitted;
      req.future = std::move(submitted_future).value();
      in_flight.push_back(std::move(req));
      const size_t depth = in_flight.size();
      report.backlog_max = std::max(report.backlog_max, depth);
      if (options.seconds > 0.0) {
        const double frac = SecondsBetween(t0, due) / options.seconds;
        const size_t q =
            std::min<size_t>(3, static_cast<size_t>(std::max(0.0, frac * 4.0)));
        quarter_sum[q] += static_cast<double>(depth);
        quarter_count[q] += 1.0;
      }
    }
    ++seq;
    if (options.open_loop) due += gap();
  }
  report.wall_seconds = SecondsBetween(t0, Clock::now());
  report.completed = report.latency_ms.size();
  for (size_t q = 0; q < 4; ++q) {
    report.backlog_quarter_mean.push_back(
        quarter_count[q] > 0.0 ? quarter_sum[q] / quarter_count[q] : 0.0);
  }
  report.server_delta = StatsDelta(server->GetStats(), stats0);
  report.traffic_delta = ms->Traffic() - traffic0;
  return report;
}

}  // namespace perfbench
