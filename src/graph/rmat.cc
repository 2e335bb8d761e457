#include "graph/rmat.h"

#include <cmath>

#include "common/rng.h"

namespace omega::graph {

Result<Graph> GenerateRmat(const RmatParams& params) {
  const double sum = params.a + params.b + params.c + params.d;
  if (std::abs(sum - 1.0) > 1e-6) {
    return Status::InvalidArgument("R-MAT probabilities must sum to 1");
  }
  if (params.scale == 0 || params.scale > 30) {
    return Status::InvalidArgument("R-MAT scale must be in [1, 30]");
  }
  const NodeId n = NodeId{1} << params.scale;
  Rng rng(params.seed);

  std::vector<Edge> edges;
  edges.reserve(params.num_edges);
  for (uint64_t e = 0; e < params.num_edges; ++e) {
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
    if (row != col) edges.push_back(Edge{row, col, 1.0f});
  }
  return Graph::FromEdges(n, edges, /*undirected=*/true);
}

}  // namespace omega::graph
