#include "stream/asl.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>

#include "buffer/staging.h"
#include "common/string_util.h"
#include "memsim/sim_clock.h"

namespace omega::stream {

Result<size_t> OptimalPartitions(const AslConfig& config) {
  const double dvs = static_cast<double>(config.dense_rows) *
                     static_cast<double>(config.dense_cols) *
                     static_cast<double>(config.element_bytes);
  const double denom = static_cast<double>(config.dram_budget) -
                       static_cast<double>(config.sparse_bytes) - 2.0 * dvs;
  if (denom <= 0.0) {
    return Status::CapacityExceeded(
        "ASL: resident set (sparse " + HumanBytes(config.sparse_bytes) +
        " + 2x dense " + HumanBytes(static_cast<size_t>(2.0 * dvs)) +
        ") exceeds DRAM budget " + HumanBytes(config.dram_budget));
  }
  const double n = 3.0 * dvs / denom;
  size_t parts = static_cast<size_t>(std::ceil(std::max(1.0, n)));
  parts = std::min(parts, std::max<size_t>(1, config.dense_cols));
  return parts;
}

std::pair<size_t, size_t> PartitionColumns(size_t cols, size_t n, size_t k) {
  return buffer::SliceColumns(cols, n, k);
}

double AslStreamer::LoadSeconds(size_t col_begin, size_t col_end) const {
  const size_t bytes =
      config_.dense_rows * (col_end - col_begin) * config_.element_bytes;
  return buffer::StageSeconds(ctx_.ms(), bytes, pm_home_, dram_home_);
}

Result<double> AslStreamer::LoadPartition(size_t col_begin, size_t col_end,
                                          AslRunResult* result) {
  const size_t bytes =
      config_.dense_rows * (col_end - col_begin) * config_.element_bytes;
  buffer::StageFetchConfig cfg;
  cfg.from = pm_home_;
  cfg.to = dram_home_;
  cfg.allow_degraded = config_.allow_degraded;
  cfg.fault_site =
      config_.fault_site != nullptr ? config_.fault_site : &local_fault_site_;
  cfg.label = "ASL: partition load [" + std::to_string(col_begin) + ", " +
              std::to_string(col_end) + ")";
  OMEGA_ASSIGN_OR_RETURN(const buffer::StageFetchResult fetch,
                         buffer::StageFetch(ctx_.ms(), bytes, cfg));
  result->load_retries += fetch.retries;
  if (fetch.degraded) {
    result->degraded_partitions++;
    result->rebuild_recommended = true;
  }
  return fetch.seconds;
}

Result<AslRunResult> AslStreamer::Run(
    const std::function<double(size_t, size_t, size_t)>& compute_fn) {
  size_t n = config_.fixed_partitions;
  if (n == 0) {
    OMEGA_ASSIGN_OR_RETURN(n, OptimalPartitions(config_));
  }

  AslRunResult result;
  result.partitions.resize(n);
  {
    // The staging traffic is attributed to its own aux phase; its pipelined
    // duration is already contained in the caller's phase time.
    exec::PhaseSpan load_span(ctx_, "asl.load", /*aux=*/true);
    // Double buffer: partition k's frame stays pinned while k+1 stages, so
    // the pool holds at most two pinned staging frames at a time.
    std::deque<buffer::PinHandle> staged;
    for (size_t k = 0; k < n; ++k) {
      auto [begin, end] = PartitionColumns(config_.dense_cols, n, k);
      result.partitions[k].col_begin = begin;
      result.partitions[k].col_end = end;
      if (frames_ != nullptr) {
        const size_t bytes =
            config_.dense_rows * (end - begin) * config_.element_bytes;
        auto pin = frames_->Pin(
            buffer::PageKey{dram_home_.tier, dram_home_.socket, k}, bytes);
        if (pin.ok()) {
          staged.push_back(std::move(pin).value());
          if (staged.size() > 2) staged.pop_front();
        }
        // A full pool is non-fatal: the charge model below is authoritative;
        // the pool only tracks the staging working set's residency.
      }
      const uint64_t retries_before = result.load_retries;
      const uint64_t degraded_before = result.degraded_partitions;
      OMEGA_ASSIGN_OR_RETURN(result.partitions[k].load_seconds,
                             LoadPartition(begin, end, &result));
      result.partitions[k].fault_recovered =
          result.load_retries != retries_before ||
          result.degraded_partitions != degraded_before;
      load_span.AddSimSeconds(result.partitions[k].load_seconds);
    }
  }
  // Real computation runs serially here; simulated time is pipelined.
  for (size_t k = 0; k < n; ++k) {
    result.partitions[k].compute_seconds = compute_fn(
        k, result.partitions[k].col_begin, result.partitions[k].col_end);
  }

  // Seed double-buffer model: load and compute on independent channels, each
  // step costs max(compute_k, load_{k+1}).
  double total = result.partitions[0].load_seconds;
  double serial = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double compute = result.partitions[k].compute_seconds;
    const double next_load =
        k + 1 < n ? result.partitions[k + 1].load_seconds : 0.0;
    total += std::max(compute, next_load);
    serial += result.partitions[k].load_seconds + compute;
  }
  result.total_seconds = total;
  result.serial_seconds = serial;

  // Async-staging model: the fetch stream contends with compute for device
  // bandwidth (fetch_slowdown from the Fig. 9 curves), and fault-recovered
  // loads fall back to the synchronous path — their cost stays exposed.
  auto pipelined_load = [&](size_t k) {
    return result.partitions[k].fault_recovered
               ? 0.0
               : result.partitions[k].load_seconds;
  };
  double overlapped = pipelined_load(0);
  double exposed = 0.0;
  double fetch = 0.0;
  double hidden = 0.0;
  for (size_t k = 0; k < n; ++k) {
    if (result.partitions[k].fault_recovered) {
      exposed += result.partitions[k].load_seconds;
    }
    fetch += result.partitions[k].load_seconds;
    const double compute = result.partitions[k].compute_seconds;
    const double next_load = k + 1 < n ? pipelined_load(k + 1) : 0.0;
    const double step = memsim::SimClock::OverlappedSeconds(
        compute, next_load, config_.fetch_slowdown);
    overlapped += step;
    hidden += compute + next_load - step;
  }
  result.overlapped_seconds = overlapped + exposed;
  result.fetch_seconds = fetch;
  result.hidden_seconds = hidden;
  return result;
}

}  // namespace omega::stream
