// Zeroed arrays whose pages the pool's workers fault in.
//
// A fresh multi-megabyte std::vector is a new mapping: sizing it makes one
// thread take a page fault on every 4 KiB of it while it zero-fills. For
// one of FR's 24 MB CSDB arrays that is about 20 ms on a 4-vCPU VM, all of
// it serial, before the workers that overwrite the array have started.
// ZeroedArray first asks the kernel to fault the array's pages in on every
// worker (madvise MADV_POPULATE_WRITE over a share of the pages each), so
// the zero-fill then runs over resident memory. The prefault is only a
// hint: where the kernel refuses it, the zero-fill faults the pages in as
// before. Either way every element is value-initialised, so the contents
// never depend on it.

#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_pool.h"

namespace omega {

/// Faults in, writable, the whole pages inside [begin, begin + bytes), split
/// across `pool`'s workers (inline without a pool). Must not be called from
/// inside a pool job.
void PrefaultPages(void* begin, size_t bytes, ThreadPool* pool);

/// `n` value-initialised elements whose pages were faulted in on `pool`.
template <typename T>
std::vector<T> ZeroedArray(size_t n, ThreadPool* pool) {
  std::vector<T> v;
  v.reserve(n);
  PrefaultPages(v.data(), n * sizeof(T), pool);
  v.resize(n);
  return v;
}

}  // namespace omega
