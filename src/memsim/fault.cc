#include "memsim/fault.h"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/rng.h"

namespace omega::memsim {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kTransientStall: return "transient-stall";
    case FaultKind::kMediaError: return "media-error";
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kMachineLoss: return "machine-loss";
  }
  return "unknown";
}

void FaultPlan::SetTier(Tier t, FaultRates r) {
  for (int op = 0; op < 2; ++op)
    for (int pat = 0; pat < 2; ++pat)
      rates[static_cast<int>(t)][op][pat] = r;
}

namespace {

FaultPlan NamedProfile(const std::string& name) {
  FaultPlan plan;
  plan.enabled = true;
  if (name == "none") {
    plan.enabled = false;
  } else if (name == "pm-stall") {
    // Tail-stalling PM device: accesses succeed, a few cost extra.
    plan.SetTier(Tier::kPm, {/*stall=*/0.05, /*media=*/0.0, /*timeout=*/0.0});
  } else if (name == "pm-degraded") {
    // Worn PM partition: stalls plus read media errors — exercises ASL's
    // retry/backoff and the semi-external degradation path.
    plan.SetTier(Tier::kPm, {/*stall=*/0.02, /*media=*/0.0, /*timeout=*/0.0});
    plan.at(Tier::kPm, MemOp::kRead, Pattern::kSequential).media = 0.08;
    plan.at(Tier::kPm, MemOp::kRead, Pattern::kRandom).media = 0.08;
  } else if (name == "worn-ssd") {
    plan.SetTier(Tier::kSsd, {/*stall=*/0.05, /*media=*/0.0, /*timeout=*/0.0});
    plan.at(Tier::kSsd, MemOp::kRead, Pattern::kSequential).media = 0.05;
    plan.at(Tier::kSsd, MemOp::kRead, Pattern::kRandom).media = 0.10;
  } else if (name == "flaky-net") {
    plan.at(Tier::kNetwork, MemOp::kRead, Pattern::kSequential).timeout = 0.15;
    plan.at(Tier::kNetwork, MemOp::kRead, Pattern::kRandom).timeout = 0.15;
    plan.at(Tier::kNetwork, MemOp::kWrite, Pattern::kSequential).timeout = 0.15;
    plan.at(Tier::kNetwork, MemOp::kWrite, Pattern::kRandom).timeout = 0.15;
    // Only drawn by the durable distributed path; inert elsewhere.
    plan.machine_loss = 0.05;
  } else if (name == "flaky-pim") {
    // Unreliable PIM DIMM link: the gang DMAs time out — exercises PimSpmm's
    // retry-then-degrade-to-host path. Bulk transfers are sequential only, so
    // random rates stay zero.
    plan.at(Tier::kPim, MemOp::kRead, Pattern::kSequential).timeout = 0.15;
    plan.at(Tier::kPim, MemOp::kWrite, Pattern::kSequential).timeout = 0.15;
    plan.at(Tier::kPim, MemOp::kRead, Pattern::kSequential).stall = 0.05;
    plan.at(Tier::kPim, MemOp::kWrite, Pattern::kSequential).stall = 0.05;
  } else if (name == "chaos") {
    plan.SetTier(Tier::kPm, {0.02, 0.0, 0.0});
    plan.at(Tier::kPm, MemOp::kRead, Pattern::kSequential).media = 0.03;
    plan.at(Tier::kPm, MemOp::kRead, Pattern::kRandom).media = 0.03;
    plan.SetTier(Tier::kSsd, {0.02, 0.0, 0.0});
    plan.at(Tier::kSsd, MemOp::kRead, Pattern::kSequential).media = 0.05;
    plan.at(Tier::kSsd, MemOp::kRead, Pattern::kRandom).media = 0.05;
    plan.at(Tier::kNetwork, MemOp::kRead, Pattern::kRandom).timeout = 0.10;
    plan.at(Tier::kNetwork, MemOp::kWrite, Pattern::kSequential).timeout = 0.10;
    plan.machine_loss = 0.08;
  } else {
    plan.enabled = false;
    plan.seed = 0;  // sentinel; caller reports the error
  }
  return plan;
}

// Parses all of `token` as a base-10 integer in [0, max]; no sign, no
// fraction, no exponent.
bool ParseUnsigned(const std::string& token, uint64_t max, uint64_t* out) {
  uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return false;
  *out = value;
  return true;
}

}  // namespace

Result<FaultPlan> FaultPlanFromProfile(const std::string& spec) {
  if (!spec.empty() && spec[0] == '@') {
    return FaultPlanFromFile(spec.substr(1));
  }
  std::string name = spec;
  uint64_t seed = FaultPlan{}.seed;
  const size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    name = spec.substr(0, colon);
    if (!ParseUnsigned(spec.substr(colon + 1), UINT64_MAX, &seed)) {
      return Status::InvalidArgument(
          "fault profile seed must be an integer in [0, 2^64): " + spec);
    }
  }
  bool known = false;
  for (const std::string& p : FaultProfileNames()) known = known || p == name;
  if (!known) {
    std::string options;
    for (const std::string& p : FaultProfileNames()) {
      options += options.empty() ? p : " | " + p;
    }
    return Status::InvalidArgument("unknown fault profile '" + name +
                                   "' (expected " + options + ")");
  }
  FaultPlan plan = NamedProfile(name);
  plan.seed = seed;
  return plan;
}

namespace {

// One parse error with the conventional file:line: prefix.
Status ParseError(const std::string& path, int line, const std::string& msg) {
  return Status::InvalidArgument(path + ":" + std::to_string(line) + ": " + msg);
}

}  // namespace

Result<FaultPlan> FaultPlanFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open fault profile file " + path);
  }
  FaultPlan plan;
  plan.enabled = true;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream tokens(line);
    std::string key;
    if (!(tokens >> key)) continue;  // blank / comment-only line
    if (key == "seed") {
      std::string value;
      if (!(tokens >> value) || !ParseUnsigned(value, UINT64_MAX, &plan.seed)) {
        return ParseError(path, lineno, "'seed' needs one integer in [0, 2^64)");
      }
    } else if (key == "stall-multiplier" || key == "tail-stall-fraction" ||
               key == "timeout-seconds") {
      double value = 0.0;
      if (!(tokens >> value) || value < 0.0) {
        return ParseError(path, lineno,
                          "'" + key + "' needs one non-negative number");
      }
      if (key == "stall-multiplier") {
        plan.stall_multiplier = value;
      } else if (key == "tail-stall-fraction") {
        plan.tail_stall_fraction = value;
      } else {
        plan.timeout_seconds = value;
      }
    } else if (key == "machine-loss") {
      double value = 0.0;
      if (!(tokens >> value) || value < 0.0 || value > 1.0) {
        return ParseError(path, lineno,
                          "'machine-loss' needs one rate in [0, 1]");
      }
      plan.machine_loss = value;
    } else if (key == "kill") {
      std::string machine_s, round_s;
      uint64_t machine = 0, round = 0;
      if (!(tokens >> machine_s >> round_s) ||
          !ParseUnsigned(machine_s, INT_MAX, &machine) ||
          !ParseUnsigned(round_s, UINT64_MAX, &round)) {
        return ParseError(path, lineno,
                          "'kill' needs <machine> <round> (integers, machine "
                          "in [0, 2^31), round in [0, 2^64))");
      }
      plan.kills.emplace_back(static_cast<int>(machine), round);
    } else if (key == "rate") {
      std::string tier_s, op_s, pat_s, kind_s;
      double rate = 0.0;
      if (!(tokens >> tier_s >> op_s >> pat_s >> kind_s >> rate)) {
        return ParseError(path, lineno,
                          "'rate' needs <tier> <op> <pattern> <kind> <rate>");
      }
      std::vector<Tier> tiers;
      if (tier_s == "*") {
        tiers = {Tier::kDram, Tier::kPm, Tier::kSsd, Tier::kNetwork, Tier::kPim};
      } else if (tier_s == "dram") {
        tiers = {Tier::kDram};
      } else if (tier_s == "pm") {
        tiers = {Tier::kPm};
      } else if (tier_s == "ssd") {
        tiers = {Tier::kSsd};
      } else if (tier_s == "net") {
        tiers = {Tier::kNetwork};
      } else if (tier_s == "pim") {
        tiers = {Tier::kPim};
      } else {
        return ParseError(path, lineno, "unknown tier '" + tier_s +
                                            "' (expected dram | pm | ssd | "
                                            "net | pim | *)");
      }
      std::vector<MemOp> ops;
      if (op_s == "*") {
        ops = {MemOp::kRead, MemOp::kWrite};
      } else if (op_s == "read") {
        ops = {MemOp::kRead};
      } else if (op_s == "write") {
        ops = {MemOp::kWrite};
      } else {
        return ParseError(path, lineno, "unknown op '" + op_s +
                                            "' (expected read | write | *)");
      }
      std::vector<Pattern> pats;
      if (pat_s == "*") {
        pats = {Pattern::kSequential, Pattern::kRandom};
      } else if (pat_s == "seq") {
        pats = {Pattern::kSequential};
      } else if (pat_s == "rand") {
        pats = {Pattern::kRandom};
      } else {
        return ParseError(path, lineno, "unknown pattern '" + pat_s +
                                            "' (expected seq | rand | *)");
      }
      if (kind_s != "stall" && kind_s != "media" && kind_s != "timeout") {
        return ParseError(path, lineno,
                          "unknown fault kind '" + kind_s +
                              "' (expected stall | media | timeout)");
      }
      if (rate < 0.0 || rate > 1.0) {
        return ParseError(path, lineno, "rate must be in [0, 1]");
      }
      for (Tier t : tiers) {
        for (MemOp op : ops) {
          for (Pattern pat : pats) {
            FaultRates& r = plan.at(t, op, pat);
            if (kind_s == "stall") {
              r.stall = rate;
            } else if (kind_s == "media") {
              r.media = rate;
            } else {
              r.timeout = rate;
            }
          }
        }
      }
    } else {
      return ParseError(path, lineno,
                        "unknown directive '" + key +
                            "' (expected seed | stall-multiplier | "
                            "tail-stall-fraction | timeout-seconds | rate | "
                            "machine-loss | kill)");
    }
  }
  return plan;
}

const std::vector<std::string>& FaultProfileNames() {
  static const std::vector<std::string> kNames = {
      "none",      "pm-stall",  "pm-degraded", "worn-ssd",
      "flaky-net", "flaky-pim", "chaos"};
  return kNames;
}

FaultCounters FaultCounters::operator-(const FaultCounters& other) const {
  auto sub = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
  FaultCounters out;
  out.stalls = sub(stalls, other.stalls);
  out.media = sub(media, other.media);
  out.timeouts = sub(timeouts, other.timeouts);
  out.machine_losses = sub(machine_losses, other.machine_losses);
  out.retried = sub(retried, other.retried);
  out.degraded = sub(degraded, other.degraded);
  out.surfaced = sub(surfaced, other.surfaced);
  out.recovered = sub(recovered, other.recovered);
  out.penalty_nanos = sub(penalty_nanos, other.penalty_nanos);
  return out;
}

bool FaultCounters::operator==(const FaultCounters& other) const {
  return stalls == other.stalls && media == other.media &&
         timeouts == other.timeouts &&
         machine_losses == other.machine_losses && retried == other.retried &&
         degraded == other.degraded && surfaced == other.surfaced &&
         recovered == other.recovered && penalty_nanos == other.penalty_nanos;
}

std::string FaultCountersSummary(const FaultCounters& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "injected=%llu (stall=%llu media=%llu timeout=%llu loss=%llu) "
                "retried=%llu degraded=%llu surfaced=%llu recovered=%llu "
                "penalty=%.3es",
                static_cast<unsigned long long>(c.InjectedTotal()),
                static_cast<unsigned long long>(c.stalls),
                static_cast<unsigned long long>(c.media),
                static_cast<unsigned long long>(c.timeouts),
                static_cast<unsigned long long>(c.machine_losses),
                static_cast<unsigned long long>(c.retried),
                static_cast<unsigned long long>(c.degraded),
                static_cast<unsigned long long>(c.surfaced),
                static_cast<unsigned long long>(c.recovered),
                c.PenaltySeconds());
  return buf;
}

void FaultInjector::SetPlan(FaultPlan plan) {
  plan_ = plan;
  ResetCounters();
}

void FaultInjector::ResetCounters() {
  stalls_.store(0, std::memory_order_relaxed);
  media_.store(0, std::memory_order_relaxed);
  timeouts_.store(0, std::memory_order_relaxed);
  machine_losses_.store(0, std::memory_order_relaxed);
  retried_.store(0, std::memory_order_relaxed);
  degraded_.store(0, std::memory_order_relaxed);
  surfaced_.store(0, std::memory_order_relaxed);
  recovered_.store(0, std::memory_order_relaxed);
  penalty_nanos_.store(0, std::memory_order_relaxed);
}

FaultCounters FaultInjector::Counters() const {
  FaultCounters c;
  c.stalls = stalls_.load(std::memory_order_relaxed);
  c.media = media_.load(std::memory_order_relaxed);
  c.timeouts = timeouts_.load(std::memory_order_relaxed);
  c.machine_losses = machine_losses_.load(std::memory_order_relaxed);
  c.retried = retried_.load(std::memory_order_relaxed);
  c.degraded = degraded_.load(std::memory_order_relaxed);
  c.surfaced = surfaced_.load(std::memory_order_relaxed);
  c.recovered = recovered_.load(std::memory_order_relaxed);
  c.penalty_nanos = penalty_nanos_.load(std::memory_order_relaxed);
  return c;
}

namespace {

// Pure uniform draw in [0, 1) from the fault key. Must NOT depend on the
// rates, so the fault set is monotone in the rate (subset property).
double UniformOf(uint64_t seed, uint64_t stream, uint64_t site, uint32_t attempt) {
  uint64_t h = SplitMix64(seed ^ 0x0F417AB1EULL);
  h = SplitMix64(h ^ stream);
  h = SplitMix64(h ^ site);
  h = SplitMix64(h ^ attempt);
  return (h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultKind FaultInjector::Draw(Tier t, MemOp op, Pattern pat, uint64_t stream,
                              uint64_t site, uint32_t attempt) {
  if (!plan_.enabled) return FaultKind::kNone;
  const FaultRates& r = plan_.at(t, op, pat);
  if (!r.any()) return FaultKind::kNone;
  const double u = UniformOf(plan_.seed, stream, site, attempt);
  // Subrange order (media, timeout, stall) is fixed: raising one rate widens
  // its own band and shifts the milder bands upward, never shrinking the
  // total faulted interval.
  if (u < r.media) {
    media_.fetch_add(1, std::memory_order_relaxed);
    return FaultKind::kMediaError;
  }
  if (u < r.media + r.timeout) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return FaultKind::kTimeout;
  }
  if (u < r.media + r.timeout + r.stall) {
    stalls_.fetch_add(1, std::memory_order_relaxed);
    return FaultKind::kTransientStall;
  }
  return FaultKind::kNone;
}

bool FaultInjector::DrawTailStall(Tier t, MemOp op, Pattern pat,
                                  uint64_t stream, uint64_t site) {
  if (!plan_.enabled) return false;
  const FaultRates& r = plan_.at(t, op, pat);
  if (r.stall <= 0.0) return false;
  // Same uniform as Draw, compared only against the stall band's width, so a
  // media-rate sweep leaves the tail-stall set untouched.
  const double u = UniformOf(plan_.seed, stream, site, /*attempt=*/0);
  if (u >= r.stall) return false;
  stalls_.fetch_add(1, std::memory_order_relaxed);
  retried_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::DrawMachineLoss(int machine, uint64_t round) {
  if (!plan_.enabled) return false;
  for (const auto& [m, r] : plan_.kills) {
    if (m == machine && r == round) {
      machine_losses_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  if (plan_.machine_loss <= 0.0) return false;
  const uint64_t site = (static_cast<uint64_t>(machine) << 32) | round;
  const double u = UniformOf(plan_.seed, kFaultStreamMachineLoss, site,
                             /*attempt=*/0);
  if (u >= plan_.machine_loss) return false;
  machine_losses_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FaultInjector::AddPenaltySeconds(double seconds) {
  if (seconds <= 0.0) return;
  const uint64_t nanos = static_cast<uint64_t>(std::llround(seconds * 1e9));
  penalty_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

}  // namespace omega::memsim
