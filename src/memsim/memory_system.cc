#include "memsim/memory_system.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace omega::memsim {

uint64_t TrafficSnapshot::TotalBytes() const {
  uint64_t total = 0;
  for (int t = 0; t < kNumTiers; ++t)
    for (int o = 0; o < 2; ++o)
      for (int p = 0; p < 2; ++p)
        for (int l = 0; l < 2; ++l) total += bytes[t][o][p][l];
  return total;
}

uint64_t TrafficSnapshot::TierBytes(Tier tier) const {
  uint64_t total = 0;
  const int t = static_cast<int>(tier);
  for (int o = 0; o < 2; ++o)
    for (int p = 0; p < 2; ++p)
      for (int l = 0; l < 2; ++l) total += bytes[t][o][p][l];
  return total;
}

uint64_t TrafficSnapshot::LocalityBytes(Locality loc) const {
  uint64_t total = 0;
  const int l = static_cast<int>(loc);
  // Only DRAM and PM participate in NUMA locality.
  for (int t = 0; t < 2; ++t)
    for (int o = 0; o < 2; ++o)
      for (int p = 0; p < 2; ++p) total += bytes[t][o][p][l];
  return total;
}

TrafficSnapshot TrafficSnapshot::operator-(const TrafficSnapshot& other) const {
  TrafficSnapshot out;
  for (int t = 0; t < kNumTiers; ++t)
    for (int o = 0; o < 2; ++o)
      for (int p = 0; p < 2; ++p)
        for (int l = 0; l < 2; ++l) {
          const uint64_t before = other.bytes[t][o][p][l];
          const uint64_t after = bytes[t][o][p][l];
          out.bytes[t][o][p][l] = after >= before ? after - before : 0;
        }
  return out;
}

TrafficSnapshot& TrafficSnapshot::operator+=(const TrafficSnapshot& other) {
  for (int t = 0; t < kNumTiers; ++t)
    for (int o = 0; o < 2; ++o)
      for (int p = 0; p < 2; ++p)
        for (int l = 0; l < 2; ++l) bytes[t][o][p][l] += other.bytes[t][o][p][l];
  return *this;
}

bool TrafficSnapshot::operator==(const TrafficSnapshot& other) const {
  for (int t = 0; t < kNumTiers; ++t)
    for (int o = 0; o < 2; ++o)
      for (int p = 0; p < 2; ++p)
        for (int l = 0; l < 2; ++l) {
          if (bytes[t][o][p][l] != other.bytes[t][o][p][l]) return false;
        }
  return true;
}

double TrafficSnapshot::RemoteFraction() const {
  const uint64_t local = LocalityBytes(Locality::kLocal);
  const uint64_t remote = LocalityBytes(Locality::kRemote);
  const uint64_t all = local + remote;
  if (all == 0) return 0.0;
  return static_cast<double>(remote) / static_cast<double>(all);
}

MemorySystem::MemorySystem(TopologyConfig topo, ProfileSet profiles)
    : topology_(topo), cost_model_(profiles) {
  used_by_socket_.resize(topo.num_sockets);
  for (auto& per_socket : used_by_socket_) per_socket.fill(0);
}

std::unique_ptr<MemorySystem> MemorySystem::CreateDefault() {
  return std::make_unique<MemorySystem>(TopologyConfig{}, DefaultProfiles());
}

Status MemorySystem::Reserve(Placement p, size_t bytes) {
  if (p.interleaved()) {
    // Spread the reservation evenly; roll back on partial failure.
    const int sockets = topology_.num_sockets();
    const size_t share = bytes / sockets;
    for (int s = 0; s < sockets; ++s) {
      const size_t this_share = (s == sockets - 1) ? bytes - share * (sockets - 1)
                                                   : share;
      const Status st = Reserve(Placement{p.tier, s}, this_share);
      if (!st.ok()) {
        for (int undo = 0; undo < s; ++undo) {
          Release(Placement{p.tier, undo}, share);
        }
        return st;
      }
    }
    return Status::OK();
  }
  if (p.socket < 0 || p.socket >= topology_.num_sockets()) {
    return Status::InvalidArgument("socket out of range: " + std::to_string(p.socket));
  }
  const size_t cap = CapacityBytes(p.tier);
  std::lock_guard<std::mutex> lock(capacity_mu_);
  size_t& used = used_by_socket_[p.socket][static_cast<int>(p.tier)];
  if (cap != SIZE_MAX && used + bytes > cap) {
    return Status::CapacityExceeded(
        std::string(TierName(p.tier)) + " socket " + std::to_string(p.socket) +
        ": need " + HumanBytes(bytes) + ", used " + HumanBytes(used) + " of " +
        HumanBytes(cap));
  }
  used += bytes;
  return Status::OK();
}

void MemorySystem::Release(Placement p, size_t bytes) {
  if (p.interleaved()) {
    const int sockets = topology_.num_sockets();
    const size_t share = bytes / sockets;
    for (int s = 0; s < sockets; ++s) {
      Release(Placement{p.tier, s},
              s == sockets - 1 ? bytes - share * (sockets - 1) : share);
    }
    return;
  }
  std::lock_guard<std::mutex> lock(capacity_mu_);
  size_t& used = used_by_socket_[p.socket][static_cast<int>(p.tier)];
  OMEGA_CHECK(used >= bytes) << "releasing more bytes than reserved on "
                             << TierName(p.tier);
  used -= bytes;
}

size_t MemorySystem::UsedBytes(Tier tier, int socket) const {
  OMEGA_CHECK(socket >= 0 && socket < topology_.num_sockets())
      << "socket out of range: " << socket;
  std::lock_guard<std::mutex> lock(capacity_mu_);
  return used_by_socket_[socket][static_cast<int>(tier)];
}

size_t MemorySystem::AvailableBytes(Tier tier, int socket) const {
  const size_t cap = CapacityBytes(tier);
  if (cap == SIZE_MAX) return SIZE_MAX;
  const size_t used = UsedBytes(tier, socket);
  return used >= cap ? 0 : cap - used;
}

double MemorySystem::AccessSeconds(Placement p, int cpu_socket, MemOp op, Pattern pat,
                                   size_t bytes, size_t accesses, int active_threads) {
  if (p.interleaved()) {
    // Round-robin pages: 1/S of the stream is local, the rest remote; the
    // halves are serialized within the thread's access stream, so costs add.
    const int sockets = topology_.num_sockets();
    double total = 0.0;
    for (int s = 0; s < sockets; ++s) {
      total += AccessSeconds(Placement{p.tier, s}, cpu_socket, op, pat,
                             bytes / sockets, accesses / sockets, active_threads);
    }
    return total;
  }
  const Locality loc = topology_.LocalityOf(cpu_socket, p.socket);
  traffic_[static_cast<int>(p.tier)][static_cast<int>(op)][static_cast<int>(pat)]
          [static_cast<int>(loc)]
              .fetch_add(bytes, std::memory_order_relaxed);
  AccessRun run;
  run.op = op;
  run.pattern = pat;
  run.locality = loc;
  run.bytes = bytes;
  run.accesses = accesses;
  return cost_model_.AccessSeconds(p.tier, run, active_threads);
}

void MemorySystem::ChargeAccess(WorkerCtx* ctx, Placement p, MemOp op, Pattern pat,
                                size_t bytes, size_t accesses) {
  const double seconds =
      AccessSeconds(p, ctx->cpu_socket, op, pat, bytes, accesses, ctx->active_threads);
  ctx->clock->Advance(seconds);
}

void MemorySystem::ChargeCompute(WorkerCtx* ctx, size_t ops) {
  ctx->clock->Advance(cost_model_.ComputeSeconds(ops));
}

MemorySystem::FaultDraw MemorySystem::TryAccessSeconds(
    Placement p, int cpu_socket, MemOp op, Pattern pat, size_t bytes,
    size_t accesses, int active_threads, uint64_t stream, uint64_t site,
    uint32_t attempt) {
  FaultDraw draw;
  if (!injector_.enabled()) {
    draw.seconds =
        AccessSeconds(p, cpu_socket, op, pat, bytes, accesses, active_threads);
    return draw;
  }
  draw.kind = injector_.Draw(p.tier, op, pat, stream, site, attempt);
  switch (draw.kind) {
    case FaultKind::kTimeout:
      // Nothing answered: no traffic moved, the caller waited out the window.
      draw.seconds = injector_.plan().timeout_seconds;
      injector_.AddPenaltySeconds(draw.seconds);
      return draw;
    case FaultKind::kMediaError: {
      // The device churned through the request before failing it: the attempt
      // costs (and counts as traffic) like a real read of the same run.
      draw.seconds =
          AccessSeconds(p, cpu_socket, op, pat, bytes, accesses, active_threads);
      injector_.AddPenaltySeconds(draw.seconds);
      return draw;
    }
    case FaultKind::kTransientStall: {
      const double base =
          AccessSeconds(p, cpu_socket, op, pat, bytes, accesses, active_threads);
      const double penalty = base * injector_.plan().stall_multiplier;
      draw.seconds = base + penalty;
      injector_.AddPenaltySeconds(penalty);
      // Stalls self-recover at the charge site.
      injector_.CountRetried();
      return draw;
    }
    case FaultKind::kMachineLoss:  // never returned by Draw
    case FaultKind::kNone:
      draw.seconds =
          AccessSeconds(p, cpu_socket, op, pat, bytes, accesses, active_threads);
      return draw;
  }
  return draw;
}

Status MemorySystem::RetryOutcome::Error(const std::string& what) const {
  return Status::IOError(what + " failed after " + std::to_string(retries) +
                         " retries: " + FaultKindName(exhausted));
}

MemorySystem::RetryOutcome MemorySystem::RetryAccessSeconds(
    Placement p, int cpu_socket, MemOp op, Pattern pat, size_t bytes,
    size_t accesses, int active_threads, uint64_t stream, uint64_t site,
    const FaultRetryPolicy& policy, SimClock* clock) {
  RetryOutcome outcome;
  double backoff = policy.backoff_seconds;
  for (int attempt = 0;; ++attempt) {
    const FaultDraw draw =
        TryAccessSeconds(p, cpu_socket, op, pat, bytes, accesses,
                         active_threads, stream, site, attempt);
    if (draw.kind != FaultKind::kMediaError && draw.kind != FaultKind::kTimeout) {
      outcome.seconds = draw.seconds;
      return outcome;
    }
    clock->Advance(draw.seconds);
    if (attempt >= policy.max_retries) {
      outcome.exhausted = draw.kind;
      return outcome;
    }
    injector_.CountRetried();
    ++outcome.retries;
    // A zero backoff adds nothing: x + 0.0 == x, and no penalty is counted.
    clock->Advance(backoff);
    injector_.AddPenaltySeconds(backoff);
    backoff *= policy.backoff_multiplier;
  }
}

Status MemorySystem::ChargeAccessWithRetry(WorkerCtx* ctx, Placement p, MemOp op,
                                           Pattern pat, size_t bytes,
                                           size_t accesses,
                                           const FaultRetryPolicy& policy) {
  if (!injector_.enabled()) {
    ChargeAccess(ctx, p, op, pat, bytes, accesses);
    return Status::OK();
  }
  const RetryOutcome outcome = RetryAccessSeconds(
      p, ctx->cpu_socket, op, pat, bytes, accesses, ctx->active_threads,
      kFaultStreamWorkerBase + ctx->worker, ctx->fault_site++, policy,
      ctx->clock);
  if (!outcome.delivered()) {
    return outcome.Error(std::string(TierName(p.tier)) + " access");
  }
  ctx->clock->Advance(outcome.seconds);
  return Status::OK();
}

void MemorySystem::ChargeTailStall(WorkerCtx* ctx, Tier tier, double base_seconds) {
  if (!injector_.enabled() || base_seconds <= 0.0) return;
  const uint64_t stream = kFaultStreamWorkerBase + ctx->worker;
  if (injector_.DrawTailStall(tier, MemOp::kRead, Pattern::kRandom, stream,
                              ctx->fault_site++)) {
    const double penalty = base_seconds * injector_.plan().tail_stall_fraction;
    ctx->clock->Advance(penalty);
    injector_.AddPenaltySeconds(penalty);
  }
}

double MemorySystem::PersistBarrierSeconds(Tier tier) {
  const DeviceProfile& profile = cost_model_.profiles().Get(tier);
  persist_barriers_.fetch_add(1, std::memory_order_relaxed);
  return (profile.LatencyNs(Locality::kLocal) +
          cost_model_.profiles().persist_barrier_ns) *
         1e-9;
}

void MemorySystem::ChargePersistBarrier(WorkerCtx* ctx, Tier tier) {
  ctx->clock->Advance(PersistBarrierSeconds(tier));
}

void MemorySystem::ResetTraffic() {
  for (int t = 0; t < kNumTiers; ++t)
    for (int o = 0; o < 2; ++o)
      for (int p = 0; p < 2; ++p)
        for (int l = 0; l < 2; ++l) traffic_[t][o][p][l].store(0);
  persist_barriers_.store(0, std::memory_order_relaxed);
}

TrafficSnapshot MemorySystem::Traffic() const {
  TrafficSnapshot snap;
  for (int t = 0; t < kNumTiers; ++t)
    for (int o = 0; o < 2; ++o)
      for (int p = 0; p < 2; ++p)
        for (int l = 0; l < 2; ++l)
          snap.bytes[t][o][p][l] = traffic_[t][o][p][l].load();
  return snap;
}

}  // namespace omega::memsim
