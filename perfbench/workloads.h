// The benchmark's three workloads. Each runs its set-up several times (the
// last set-up's state is measured), then measures for cfg.seconds, checks
// the library's outputs, and returns raw values for run.py to reduce.

#pragma once

#include "common.h"

namespace perfbench {

/// Set-up repetitions per run; run.py reports their median as setup_s.
constexpr int kSetupRepeats = 3;

/// OMeGa embeds the FR analogue on 4 threads, repeatedly.
WorkloadResult RunEmbedFr(const RunConfig& cfg, SpanRecorder* spans);

/// A synthetic embedding served under an open loop, then a closed loop.
WorkloadResult RunServeRead(const RunConfig& cfg, SpanRecorder* spans);

/// A trained TW embedding served under the open loop while a writer logs
/// mutation batches, refreshes the embedder, and swaps the rows in.
WorkloadResult RunServeRefresh(const RunConfig& cfg, SpanRecorder* spans);

/// Prints `what` to stderr and exits with status 2 (a set-up failure, as
/// opposed to a failed check, which run.py reports).
[[noreturn]] void Die(const std::string& what);

}  // namespace perfbench
