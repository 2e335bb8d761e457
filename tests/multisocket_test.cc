// Multi-socket generality tests: the paper evaluates on two sockets, but
// NaDP's partitioning (Fig. 10) is defined for arbitrary socket counts.
// These tests run the full stack on 1-, 2-, and 4-socket simulated machines.

#include <gtest/gtest.h>

#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "numa/nadp.h"
#include "numa/partition.h"
#include "omega/engine.h"
#include "sparse/csdb_ops.h"

namespace omega {
namespace {

memsim::MemorySystem MakeMachine(int sockets) {
  memsim::TopologyConfig topo;
  topo.num_sockets = sockets;
  // Keep total capacity constant across socket counts.
  topo.dram_bytes_per_socket = (48ULL << 20) / sockets;
  topo.pm_bytes_per_socket = (384ULL << 20) / sockets;
  return memsim::MemorySystem(topo, memsim::DefaultProfiles());
}

graph::CsdbMatrix TestMatrix() {
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 12000;
  return graph::CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
}

class SocketSweep : public ::testing::TestWithParam<int> {};

TEST_P(SocketSweep, PartitionCoversRowsAndColumns) {
  const int sockets = GetParam();
  const graph::CsdbMatrix a = TestMatrix();
  const std::vector<sched::RowRange> row_blocks = numa::SocketRowBlocks(a, sockets);
  const std::vector<std::pair<size_t, size_t>> col_blocks =
      numa::ColumnBlocks(0, 32, sockets);
  ASSERT_EQ(row_blocks.size(), static_cast<size_t>(sockets));
  ASSERT_EQ(col_blocks.size(), static_cast<size_t>(sockets));
  uint32_t row = 0;
  size_t col = 0;
  for (int s = 0; s < sockets; ++s) {
    EXPECT_EQ(row_blocks[s].begin, row);
    row = row_blocks[s].end;
    EXPECT_EQ(col_blocks[s].first, col);
    col = col_blocks[s].second;
  }
  EXPECT_EQ(row, a.num_rows());
  EXPECT_EQ(col, 32u);
}

TEST_P(SocketSweep, NadpSpmmCorrectOnAnySocketCount) {
  const int sockets = GetParam();
  const graph::CsdbMatrix a = TestMatrix();
  const linalg::DenseMatrix b = linalg::GaussianMatrix(a.num_cols(), 8, 7);
  linalg::DenseMatrix expected;
  ASSERT_TRUE(sparse::ReferenceSpmm(a, b, &expected).ok());
  memsim::MemorySystem machine = MakeMachine(sockets);
  ThreadPool pool(8);
  for (bool enabled : {true, false}) {
    numa::NadpOptions opts;
    opts.num_threads = 8;
    opts.enabled = enabled;
    linalg::DenseMatrix c(a.num_rows(), 8);
    numa::NadpSpmm(a, b, &c, opts, exec::Context(&machine, &pool));
    ASSERT_LT(linalg::DenseMatrix::MaxAbsDiff(c, expected), 1e-4)
        << sockets << " sockets, nadp=" << enabled;
  }
}

TEST_P(SocketSweep, EndToEndEngineRuns) {
  const int sockets = GetParam();
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 5000;
  const graph::Graph g = graph::GenerateRmat(params).value();
  memsim::MemorySystem machine = MakeMachine(sockets);
  ThreadPool pool(8);
  engine::EngineOptions opts;
  opts.system = engine::SystemKind::kOmega;
  opts.num_threads = 8;
  opts.prone.dim = 8;
  opts.prone.oversample = 4;
  auto report = engine::RunEmbedding(g, "t", opts, exec::Context(&machine, &pool));
  ASSERT_TRUE(report.ok()) << sockets << " sockets: "
                           << report.status().ToString();
  EXPECT_GT(report.value().embed_seconds, 0.0);
  EXPECT_EQ(report.value().embedding.rows(), g.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Sockets, SocketSweep, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           // Appends only: GCC 12 at -O3 flags "lit" + string
                           // with a false -Wrestrict.
                           std::string name = "s";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(MultiSocketTest, InterleavedPenaltyGrowsWithSockets) {
  // With more sockets, the Interleaved policy sends a larger fraction of
  // traffic remote; NaDP's advantage should not shrink.
  const graph::CsdbMatrix a = TestMatrix();
  const linalg::DenseMatrix b = linalg::GaussianMatrix(a.num_cols(), 8, 3);
  auto gain = [&](int sockets) {
    memsim::MemorySystem machine = MakeMachine(sockets);
    ThreadPool pool(8);
    linalg::DenseMatrix c(a.num_rows(), 8);
    numa::NadpOptions on;
    on.num_threads = 8;
    numa::NadpOptions off = on;
    off.enabled = false;
    const double t_on =
        numa::NadpSpmm(a, b, &c, on, exec::Context(&machine, &pool)).phase_seconds;
    const double t_off =
        numa::NadpSpmm(a, b, &c, off, exec::Context(&machine, &pool)).phase_seconds;
    return t_off / t_on;
  };
  EXPECT_GE(gain(4), 0.9 * gain(2));
  EXPECT_GT(gain(2), 1.2);
}

TEST(MultiSocketTest, SingleSocketNadpIsNoOpInLocality) {
  // One socket: everything is local; NaDP vs Interleaved should be ~equal.
  const graph::CsdbMatrix a = TestMatrix();
  const linalg::DenseMatrix b = linalg::GaussianMatrix(a.num_cols(), 8, 3);
  memsim::MemorySystem machine = MakeMachine(1);
  ThreadPool pool(8);
  linalg::DenseMatrix c(a.num_rows(), 8);
  numa::NadpOptions on;
  on.num_threads = 8;
  numa::NadpOptions off = on;
  off.enabled = false;
  machine.ResetTraffic();
  numa::NadpSpmm(a, b, &c, off, exec::Context(&machine, &pool));
  EXPECT_DOUBLE_EQ(machine.Traffic().RemoteFraction(), 0.0);
}

}  // namespace
}  // namespace omega
