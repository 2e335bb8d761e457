#include "omega/exec_context.h"

#include <chrono>
#include <utility>

#include "common/logging.h"

namespace omega::exec {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void TraceRecorder::Record(PhaseRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

std::vector<PhaseRecord> TraceRecorder::TakeRecords() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PhaseRecord> out = std::move(records_);
  records_.clear();
  return out;
}

std::vector<PhaseRecord> TraceRecorder::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

Context::Context(memsim::MemorySystem* ms, ThreadPool* pool, int threads,
                 TraceRecorder* trace)
    : ms_(ms), pool_(pool), threads_(threads), trace_(trace) {
  OMEGA_CHECK(ms_ != nullptr) << "exec::Context requires a MemorySystem";
  if (threads_ <= 0) {
    threads_ = pool_ != nullptr ? static_cast<int>(pool_->size()) : 1;
  }
}

Context Context::WithThreads(int threads) const {
  return Context(ms_, pool_, threads, trace_);
}

Context Context::WithTrace(TraceRecorder* trace) const {
  return Context(ms_, pool_, threads_, trace);
}

PhaseSpan::PhaseSpan(const Context& ctx, std::string name, bool aux)
    : ctx_(ctx), name_(std::move(name)), aux_(aux) {
  if (ctx_.trace() != nullptr) {
    wall_start_ = MonotonicSeconds();
    traffic_start_ = ctx_.ms()->Traffic();
    faults_start_ = ctx_.ms()->Faults();
  }
}

PhaseSpan::~PhaseSpan() { Finish(); }

void PhaseSpan::Finish() {
  if (finished_) return;
  finished_ = true;
  if (ctx_.trace() == nullptr) return;
  PhaseRecord record;
  record.name = std::move(name_);
  record.aux = aux_;
  record.sim_seconds = sim_seconds_;
  record.fetch_seconds = fetch_seconds_;
  record.hidden_seconds = hidden_seconds_;
  record.cache_hits = cache_hits_;
  record.cache_misses = cache_misses_;
  record.cache_evictions = cache_evictions_;
  record.plan_hits = plan_hits_;
  record.plan_misses = plan_misses_;
  record.plan_invalidations = plan_invalidations_;
  record.ckpt_entries = ckpt_entries_;
  record.ckpt_bytes = ckpt_bytes_;
  record.persist_barriers = persist_barriers_;
  record.wall_seconds = MonotonicSeconds() - wall_start_;
  record.traffic = ctx_.ms()->Traffic() - traffic_start_;
  record.remote_fraction = record.traffic.RemoteFraction();
  record.faults = ctx_.ms()->Faults() - faults_start_;
  ctx_.trace()->Record(std::move(record));
}

}  // namespace omega::exec
