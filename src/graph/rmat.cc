#include "graph/rmat.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "common/rng.h"

namespace omega::graph {

namespace {

// Edges per generation chunk. Every edge consumes exactly 5 draws per level,
// so chunk c starts 5 * scale * kChunkEdges * c draws into the seed's stream.
constexpr uint64_t kChunkEdges = uint64_t{1} << 16;

// Writes edges [begin, end) of the R-MAT stream to out[begin, end); `rng`
// must stand at edge `begin`'s first draw.
void GenerateEdges(const RmatParams& params, Rng& rng, uint64_t begin,
                   uint64_t end, Edge* out) {
  for (uint64_t e = begin; e < end; ++e) {
    NodeId row = 0;
    NodeId col = 0;
    for (uint32_t level = 0; level < params.scale; ++level) {
      // Jitter the quadrant probabilities to smooth the degree distribution.
      const double na = params.a * (1.0 + params.noise * (rng.NextDouble() - 0.5));
      const double nb = params.b * (1.0 + params.noise * (rng.NextDouble() - 0.5));
      const double nc = params.c * (1.0 + params.noise * (rng.NextDouble() - 0.5));
      const double nd = params.d * (1.0 + params.noise * (rng.NextDouble() - 0.5));
      const double total = na + nb + nc + nd;
      const double r = rng.NextDouble() * total;
      const NodeId half = NodeId{1} << (params.scale - level - 1);
      // Quadrant a, b, c or d is the first running sum that r falls below,
      // chosen without branches: c and d are the bottom half, b and d the
      // right half. Testing !(r < x) and requiring past_a in both halves
      // keeps that first-match rule exact for any sums, including unordered
      // ones (a negative probability) and a NaN r, which matches none.
      const double ab = na + nb;
      const double abc = ab + nc;
      const bool past_a = !(r < na);
      const bool past_b = !(r < ab);
      const bool past_c = !(r < abc);
      row += half * (past_a & past_b);
      col += half * (past_a & (!past_b | past_c));
    }
    // Self-loops are kept here; FromEdges drops them at their input position.
    out[e] = Edge{row, col, 1.0f};
  }
}

}  // namespace

Result<Graph> GenerateRmat(const RmatParams& params, ThreadPool* pool) {
  const double sum = params.a + params.b + params.c + params.d;
  if (std::abs(sum - 1.0) > 1e-6) {
    return Status::InvalidArgument("R-MAT probabilities must sum to 1");
  }
  if (params.scale == 0 || params.scale > 30) {
    return Status::InvalidArgument("R-MAT scale must be in [1, 30]");
  }
  const NodeId n = NodeId{1} << params.scale;
  const uint64_t chunks = (params.num_edges + kChunkEdges - 1) / kChunkEdges;
  const uint64_t draws_per_chunk = uint64_t{5} * params.scale * kChunkEdges;

  std::vector<Edge> edges(params.num_edges);
  auto generate_chunks = [&](size_t, size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      Rng rng(params.seed);
      rng.Jump(draws_per_chunk * c);
      GenerateEdges(params, rng, c * kChunkEdges,
                    std::min(params.num_edges, (c + 1) * kChunkEdges), edges.data());
    }
  };
  // The output does not depend on the worker count, so a missing pool is
  // replaced by one sized to the machine rather than falling back to serial.
  std::unique_ptr<ThreadPool> own_pool;
  if (pool == nullptr && chunks >= 2) {
    const uint64_t workers =
        std::min<uint64_t>(std::thread::hardware_concurrency(), chunks);
    if (workers >= 2) {
      own_pool = std::make_unique<ThreadPool>(workers);
      pool = own_pool.get();
    }
  }
  if (pool != nullptr && chunks >= 2) {
    pool->ParallelForDynamic(chunks, /*chunk_size=*/1, generate_chunks);
  } else {
    generate_chunks(0, 0, chunks);
  }
  return Graph::FromEdges(n, edges, /*undirected=*/true);
}

}  // namespace omega::graph
