// Simulated machine topology: sockets, cores, and per-socket DRAM/PM capacity.
//
// The default configuration mirrors the paper's testbed (two sockets, 18
// cores, 96 GB DRAM + 768 GB PM per socket) scaled down ~4000x — 1000x for
// the dataset analogues' node/edge counts times 4x for the reduced embedding
// dimension (32 vs 128) — so capacity-driven behaviour (which systems OOM on
// which graphs) matches the paper: 24 MB DRAM and 192 MB PM per socket.

#pragma once

#include <cstddef>
#include <cstdint>

#include "memsim/types.h"

namespace omega::memsim {

/// Static description of the simulated machine.
struct TopologyConfig {
  int num_sockets = 2;
  int cores_per_socket = 18;

  /// Per-socket capacities in bytes. SSD/network capacities are unbounded.
  size_t dram_bytes_per_socket = 24ULL << 20;  // 24 MB (paper: 96 GB, /4000)
  size_t pm_bytes_per_socket = 192ULL << 20;   // 192 MB (paper: 768 GB, /4000)

  /// Simulated PIM DIMMs: UPMEM-class hardware carries 2048 DPUs x 64 MB
  /// MRAM per machine; scaled by the same /4000 factor as the other tiers
  /// and split across sockets that gives 64 banks x 256 KB per socket.
  int pim_banks_per_socket = 64;
  size_t pim_mram_bytes_per_bank = 256ULL << 10;

  size_t TierCapacityPerSocket(Tier t) const {
    switch (t) {
      case Tier::kDram:
        return dram_bytes_per_socket;
      case Tier::kPm:
        return pm_bytes_per_socket;
      case Tier::kPim:
        return static_cast<size_t>(pim_banks_per_socket) *
               pim_mram_bytes_per_bank;
      default:
        return SIZE_MAX;
    }
  }
};

/// Maps worker threads to sockets and answers locality queries.
class Topology {
 public:
  explicit Topology(TopologyConfig config) : config_(config) {}

  const TopologyConfig& config() const { return config_; }
  int num_sockets() const { return config_.num_sockets; }

  // The one worker->socket layout. Workers are bound to sockets in
  // contiguous blocks of ceil(W/S): with W workers, workers [0, ceil(W/S))
  // go to socket 0, the next block to socket 1, and so on. This mirrors
  // NaDP's CPU-binding-based computing (§III-D). Uneven counts leave the
  // trailing sockets short or empty: 5 workers on 4 sockets are 2/2/1/0.

  /// Socket `worker` is bound to.
  int SocketOfWorker(int worker, int total_workers) const;

  /// Number of workers bound to `socket` (its socket group).
  int ThreadsOnSocket(int socket, int total_workers) const;

  /// `worker`'s index within its socket group.
  int IndexOnSocket(int worker, int total_workers) const;

  /// Locality of an access from `cpu_socket` to data on `data_socket`.
  Locality LocalityOf(int cpu_socket, int data_socket) const {
    return cpu_socket == data_socket ? Locality::kLocal : Locality::kRemote;
  }

 private:
  /// Block size of the layout: ceil(total_workers / sockets).
  int WorkersPerSocket(int total_workers) const;

  TopologyConfig config_;
};

}  // namespace omega::memsim
