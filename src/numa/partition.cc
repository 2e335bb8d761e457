#include "numa/partition.h"

#include <algorithm>

namespace omega::numa {

std::vector<sched::RowRange> SocketRowBlocks(const graph::CsdbMatrix& a,
                                             int num_sockets) {
  std::vector<sched::RowRange> blocks(num_sockets);
  const uint64_t total = a.nnz();
  auto cursor = a.Rows(0);
  for (int s = 0; s < num_sockets; ++s) {
    const uint64_t budget =
        std::max<uint64_t>(1, total / static_cast<uint64_t>(num_sockets));
    const uint32_t begin = cursor.row();
    uint64_t taken = 0;
    while (!cursor.AtEnd() &&
           (s == num_sockets - 1 || taken < budget || taken == 0)) {
      taken += cursor.degree();
      cursor.Next();
    }
    blocks[s] = sched::RowRange{begin, cursor.row()};
  }
  // Last block absorbs any unconsumed tail rows.
  blocks[num_sockets - 1].end = a.num_rows();
  return blocks;
}

std::vector<std::pair<size_t, size_t>> ColumnBlocks(size_t col_begin, size_t col_end,
                                                    int parts) {
  std::vector<std::pair<size_t, size_t>> blocks(parts);
  const size_t span = col_end - col_begin;
  const size_t per = (span + parts - 1) / parts;
  for (int s = 0; s < parts; ++s) {
    const size_t begin = std::min(span, static_cast<size_t>(s) * per);
    blocks[s] = {col_begin + begin, col_begin + std::min(span, begin + per)};
  }
  return blocks;
}

sched::Workload IntersectWorkload(const sched::Workload& w,
                                  const sched::RowRange& block) {
  sched::Workload out;
  for (const sched::RowRange& range : w.ranges) {
    const uint32_t begin = std::max(range.begin, block.begin);
    const uint32_t end = std::min(range.end, block.end);
    if (begin < end) out.ranges.push_back(sched::RowRange{begin, end});
  }
  return out;
}

}  // namespace omega::numa
