#include "graph/csdb.h"

#include <algorithm>
#include <utility>

#include "common/first_touch.h"
#include "common/logging.h"

namespace omega::graph {

namespace {

// Builds the block metadata from a non-increasing per-row degree sequence.
void BuildBlocks(const std::vector<uint32_t>& row_degrees, std::vector<uint32_t>* deg_list,
                 std::vector<uint32_t>* deg_ind, std::vector<uint64_t>* block_ptr) {
  uint64_t ptr = 0;
  for (uint32_t r = 0; r < row_degrees.size(); ++r) {
    if (deg_list->empty() || row_degrees[r] != deg_list->back()) {
      deg_list->push_back(row_degrees[r]);
      deg_ind->push_back(r);
      block_ptr->push_back(ptr);
    }
    ptr += row_degrees[r];
  }
  deg_ind->push_back(static_cast<uint32_t>(row_degrees.size()));
  block_ptr->push_back(ptr);
}

// Ranges per pool thread: slack for the dynamic hand-out to even out skew.
constexpr uint64_t kRangesPerThread = 8;

// RowSorter insertion-sorts rows up to this long: on them, clearing and
// summing a 256-bin histogram per digit costs more than the shifts.
constexpr uint32_t kInsertionSortMax = 32;

}  // namespace

void ForEachRowRange(const CsdbMatrix& m, ThreadPool* pool,
                     const std::function<void(size_t, uint32_t, uint32_t)>& fn) {
  const size_t threads = pool != nullptr ? pool->size() : 1;
  const uint64_t total = m.nnz() + m.num_rows();
  const uint64_t target =
      std::max<uint64_t>(kMinRangeWork, total / (threads * kRangesPerThread));
  if (threads <= 1 || total <= target) {
    fn(0, 0, m.num_rows());
    return;
  }
  // Cut a range whenever its work reaches `target`. Every row of a degree
  // block costs the same, so each cut inside a block is one division.
  std::vector<uint32_t> bounds = {0};
  uint64_t acc = 0;  // work of the open range, always < target
  for (uint32_t b = 0; b < m.num_blocks(); ++b) {
    const uint64_t cost = static_cast<uint64_t>(m.deg_list()[b]) + 1;
    const uint32_t block_end = m.deg_ind()[b + 1];
    for (uint32_t row = m.deg_ind()[b]; row < block_end;) {
      const uint64_t rows_to_fill = (target - acc + cost - 1) / cost;
      if (rows_to_fill > block_end - row) {
        acc += (block_end - row) * cost;
        break;
      }
      row += static_cast<uint32_t>(rows_to_fill);
      bounds.push_back(row);
      acc = 0;
    }
  }
  if (bounds.back() != m.num_rows()) bounds.push_back(m.num_rows());
  pool->ParallelForDynamic(bounds.size() - 1, /*chunk_size=*/1,
                           [&](size_t worker, size_t begin, size_t end) {
                             for (size_t i = begin; i < end; ++i) {
                               fn(worker, bounds[i], bounds[i + 1]);
                             }
                           });
}

CsdbMatrix::CsdbMatrix(CsdbMatrix&& other) noexcept
    : s_(std::exchange(other.s_, EmptyStructure())),
      nnz_list_(std::move(other.nnz_list_)) {
  other.nnz_list_.clear();
}

CsdbMatrix& CsdbMatrix::operator=(CsdbMatrix&& other) noexcept {
  if (this != &other) {
    s_ = std::exchange(other.s_, EmptyStructure());
    nnz_list_ = std::move(other.nnz_list_);
    other.nnz_list_.clear();
  }
  return *this;
}

const std::shared_ptr<const CsdbMatrix::Structure>& CsdbMatrix::EmptyStructure() {
  static const std::shared_ptr<const Structure> empty = std::make_shared<Structure>();
  return empty;
}

CsdbMatrix CsdbMatrix::WithValues(std::vector<float> values) const {
  OMEGA_CHECK(values.size() == nnz()) << "one value per stored entry";
  CsdbMatrix m;
  m.s_ = s_;
  m.nnz_list_ = std::move(values);
  return m;
}

CsdbMatrix CsdbMatrix::FromGraph(const Graph& g, ThreadPool* pool) {
  // Degree order, inverse permutation and block metadata are O(n) and stay
  // serial; the block metadata fixes every row's nnz offset up front.
  const NodeId n = g.num_nodes();
  auto structure = std::make_shared<Structure>();
  structure->num_rows = n;
  structure->num_cols = n;
  structure->perm = g.DegreeDescendingOrder();
  const std::vector<NodeId>& order = structure->perm;
  std::vector<NodeId> inverse(n);
  std::vector<uint32_t> row_degrees(n);
  for (NodeId i = 0; i < n; ++i) {
    inverse[order[i]] = i;
    row_degrees[i] = g.degree(order[i]);
  }
  BuildBlocks(row_degrees, &structure->deg_list, &structure->deg_ind,
              &structure->block_ptr);
  structure->col_list = ZeroedArray<NodeId>(structure->block_ptr.back(), pool);
  CsdbMatrix m;
  m.s_ = structure;
  m.nnz_list_ = ZeroedArray<float>(structure->block_ptr.back(), pool);

  // Each row is gathered through the relabeling into its own slots and
  // sorted there, so rows fan out; one sorter per worker.
  NodeId* cols = structure->col_list.data();
  float* vals = m.nnz_list_.data();
  std::vector<RowSorter> sorters(pool != nullptr ? pool->size() : 1);
  ForEachRowRange(m, pool, [&](size_t worker, uint32_t row_begin, uint32_t row_end) {
    for (auto cur = m.Rows(row_begin); cur.row() < row_end; cur.Next()) {
      const NodeId* nbrs = g.neighbors(order[cur.row()]);
      NodeId* row_cols = cols + cur.ptr();
      float* row_vals = vals + cur.ptr();
      for (uint32_t k = 0; k < cur.degree(); ++k) row_cols[k] = inverse[nbrs[k]];
      std::copy_n(g.weights(order[cur.row()]), cur.degree(), row_vals);
      sorters[worker].Sort(row_cols, row_vals, cur.degree());
    }
  });
  return m;
}

void RowSorter::Sort(NodeId* cols, float* vals, uint32_t n) {
  if (n <= kInsertionSortMax) {
    for (uint32_t i = 1; i < n; ++i) {
      const NodeId c = cols[i];
      const float v = vals[i];
      uint32_t j = i;
      for (; j > 0 && cols[j - 1] > c; --j) {
        cols[j] = cols[j - 1];
        vals[j] = vals[j - 1];
      }
      cols[j] = c;
      vals[j] = v;
    }
    return;
  }
  // One read pass counts all four 8-bit digits; a digit whose count for
  // the first column's value is n is the same in every column and needs no
  // pass. Each pass scatters src into dst by one digit, then the two swap.
  uint32_t counts[4][256] = {};
  for (uint32_t k = 0; k < n; ++k) {
    const NodeId c = cols[k];
    ++counts[0][c & 0xFF];
    ++counts[1][(c >> 8) & 0xFF];
    ++counts[2][(c >> 16) & 0xFF];
    ++counts[3][c >> 24];
  }
  if (cols_.size() < n) {
    cols_.resize(n);
    vals_.resize(n);
  }
  NodeId* src_cols = cols;
  float* src_vals = vals;
  NodeId* dst_cols = cols_.data();
  float* dst_vals = vals_.data();
  for (uint32_t digit = 0; digit < 4; ++digit) {
    const uint32_t shift = 8 * digit;
    uint32_t* start = counts[digit];
    if (start[(cols[0] >> shift) & 0xFF] == n) continue;
    uint32_t sum = 0;
    for (uint32_t b = 0; b < 256; ++b) sum += std::exchange(start[b], sum);
    for (uint32_t k = 0; k < n; ++k) {
      const uint32_t at = start[(src_cols[k] >> shift) & 0xFF]++;
      dst_cols[at] = src_cols[k];
      dst_vals[at] = src_vals[k];
    }
    std::swap(src_cols, dst_cols);
    std::swap(src_vals, dst_vals);
  }
  if (src_cols != cols) {
    std::copy_n(src_cols, n, cols);
    std::copy_n(src_vals, n, vals);
  }
}

Result<CsdbMatrix> CsdbMatrix::FromParts(uint32_t num_rows, uint32_t num_cols,
                                         const std::vector<uint32_t>& row_degrees,
                                         std::vector<NodeId> col_list,
                                         std::vector<float> nnz_list,
                                         std::vector<NodeId> perm) {
  if (row_degrees.size() != num_rows) {
    return Status::InvalidArgument("row_degrees must have num_rows entries");
  }
  uint64_t total = 0;
  for (uint32_t r = 0; r < num_rows; ++r) {
    if (r > 0 && row_degrees[r] > row_degrees[r - 1]) {
      return Status::InvalidArgument("row degrees must be non-increasing for CSDB");
    }
    total += row_degrees[r];
  }
  if (total != col_list.size() || col_list.size() != nnz_list.size()) {
    return Status::InvalidArgument("col_list/nnz_list size mismatch with degrees");
  }
  for (NodeId c : col_list) {
    if (c >= num_cols) return Status::OutOfRange("column index out of range");
  }
  if (!perm.empty() && perm.size() != num_rows) {
    return Status::InvalidArgument("perm must be empty or num_rows long");
  }
  auto structure = std::make_shared<Structure>();
  structure->num_rows = num_rows;
  structure->num_cols = num_cols;
  structure->col_list = std::move(col_list);
  structure->perm = std::move(perm);
  BuildBlocks(row_degrees, &structure->deg_list, &structure->deg_ind,
              &structure->block_ptr);
  CsdbMatrix m;
  m.s_ = std::move(structure);
  m.nnz_list_ = std::move(nnz_list);
  return m;
}

uint32_t CsdbMatrix::BlockOfRow(uint32_t row) const {
  OMEGA_DCHECK(row < num_rows());
  // Last block whose first row is <= row.
  const std::vector<uint32_t>& ind = deg_ind();
  const auto it = std::upper_bound(ind.begin(), ind.end(), row);
  return static_cast<uint32_t>(it - ind.begin()) - 1;
}

uint64_t CsdbMatrix::RowPtr(uint32_t row) const {
  const uint32_t b = BlockOfRow(row);
  return block_ptr()[b] + static_cast<uint64_t>(row - deg_ind()[b]) *
                              static_cast<uint64_t>(deg_list()[b]);
}

CsdbMatrix::RowCursor::RowCursor(const CsdbMatrix& m, uint32_t start_row)
    : m_(&m), row_(start_row) {
  if (AtEnd()) {
    block_ = m.num_blocks();
    degree_ = 0;
    ptr_ = m.nnz();
    return;
  }
  block_ = m.BlockOfRow(start_row);
  degree_ = m.deg_list()[block_];
  ptr_ = m.block_ptr()[block_] +
         static_cast<uint64_t>(start_row - m.deg_ind()[block_]) * degree_;
}

CsdbMatrix::BlockCursor::BlockCursor(const CsdbMatrix& m, uint32_t row_begin,
                                     uint32_t row_end)
    : m_(&m), end_(std::min(row_end, m.num_rows())) {
  if (row_begin >= end_) {
    span_.row_begin = span_.row_end = end_;
    block_ = m.num_blocks();
    return;
  }
  block_ = m.BlockOfRow(row_begin);
  span_.row_begin = row_begin;
  span_.row_end = std::min(end_, m.deg_ind()[block_ + 1]);
  span_.degree = m.deg_list()[block_];
  span_.ptr = m.block_ptr()[block_] +
              static_cast<uint64_t>(row_begin - m.deg_ind()[block_]) * span_.degree;
}

void CsdbMatrix::BlockCursor::Next() {
  span_.row_begin = span_.row_end;
  if (AtEnd()) return;
  ++block_;
  span_.row_end = std::min(end_, m_->deg_ind()[block_ + 1]);
  span_.degree = m_->deg_list()[block_];
  span_.ptr = m_->block_ptr()[block_];
}

void CsdbMatrix::RowCursor::Next() {
  ptr_ += degree_;
  ++row_;
  if (AtEnd()) return;
  if (row_ >= m_->deg_ind()[block_ + 1]) {
    ++block_;
    degree_ = m_->deg_list()[block_];
  }
}

}  // namespace omega::graph
