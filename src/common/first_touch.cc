#include "common/first_touch.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace omega {
namespace {

// Below this many pages a pool dispatch costs more than the faults it
// spreads.
constexpr size_t kMinPooledPages = 256;

}  // namespace

void PrefaultPages(void* begin, size_t bytes, ThreadPool* pool) {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t lo = (reinterpret_cast<uintptr_t>(begin) + page - 1) & ~(page - 1);
  const uintptr_t hi = (reinterpret_cast<uintptr_t>(begin) + bytes) & ~(page - 1);
  if (begin == nullptr || hi <= lo) return;
  const size_t pages = (hi - lo) / page;
  // A refused prefault (an older kernel, say) is harmless: the caller's
  // zero-fill faults the pages in itself.
  const auto populate = [&](size_t, size_t first, size_t last) {
    (void)madvise(reinterpret_cast<void*>(lo + first * page), (last - first) * page,
                  MADV_POPULATE_WRITE);
  };
  if (pool == nullptr || pages < kMinPooledPages) {
    populate(0, 0, pages);
  } else {
    pool->ParallelFor(pages, populate);
  }
}

}  // namespace omega
