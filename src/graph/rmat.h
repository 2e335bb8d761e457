// R-MAT synthetic graph generator (Chakrabarti, Zhan, Faloutsos; SDM'04).
//
// Used both for the paper's scalability study (Fig. 17b) and, with tuned
// skew, to synthesize scaled-down analogues of the real-world datasets
// (Table I) that are unavailable here.

#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/graph.h"

namespace omega::graph {

/// Parameters of one R-MAT recursion. a+b+c+d must be ~1; larger `a` gives
/// heavier degree skew. The generated graph is a function of these fields
/// alone: no thread count enters it.
struct RmatParams {
  uint32_t scale = 14;        ///< nodes = 2^scale
  uint64_t num_edges = 1 << 18;
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  double d = 0.05;
  uint64_t seed = 42;
  /// Jitter applied to the quadrant probabilities per recursion level, which
  /// avoids the artificial degree ties a noiseless R-MAT produces.
  double noise = 0.1;
};

/// Generates an undirected graph (duplicate edges merged, self-loops dropped).
/// Edges are drawn in fixed chunks of 2^16, each starting from the seed's
/// stream jumped ahead to that chunk (Rng::Jump), on `pool`. The result is
/// byte-identical to drawing every edge from one stream in order, at any
/// thread count. A null pool means a pool of min(hardware threads, chunks)
/// workers made for this call when there are at least two chunks.
Result<Graph> GenerateRmat(const RmatParams& params, ThreadPool* pool = nullptr);

}  // namespace omega::graph
