// Canonical in-memory graph representation.
//
// A Graph is an adjacency structure built from an edge list: neighbors are
// deduplicated and sorted per node. Sparse-matrix formats (CSR, CSDB) and the
// embedding pipeline are built from this canonical form.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace omega::graph {

using NodeId = uint32_t;

/// A weighted edge. Weights default to 1.0 as in the paper (§III-A).
struct Edge {
  NodeId src = 0;
  NodeId dst = 0;
  float weight = 1.0f;
};

/// Immutable adjacency-list graph.
class Graph {
 public:
  /// Builds a graph from an edge list.
  ///
  /// \param num_nodes number of nodes; all edge endpoints must be < num_nodes.
  /// \param edges     the edge list; every weight must be finite. Self-loops
  ///                  are dropped.
  /// \param undirected when true every edge is inserted in both directions.
  /// Duplicate (src, dst) pairs are merged; their weights are summed in input
  /// order (an undirected edge contributes to both of its arcs at its own
  /// position in `edges`), so the float sum is reproducible. Linear time: two
  /// stable counting-sort passes, 8 bytes of scratch per arc.
  static Result<Graph> FromEdges(NodeId num_nodes, const std::vector<Edge>& edges,
                                 bool undirected = true);

  NodeId num_nodes() const { return num_nodes_; }
  /// Number of stored arcs (2x the undirected edge count).
  uint64_t num_arcs() const { return neighbors_.size(); }

  uint32_t degree(NodeId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Neighbors of v, sorted ascending.
  const NodeId* neighbors(NodeId v) const { return neighbors_.data() + offsets_[v]; }
  const float* weights(NodeId v) const { return weights_.data() + offsets_[v]; }

  const std::vector<uint64_t>& offsets() const { return offsets_; }
  const std::vector<NodeId>& neighbor_array() const { return neighbors_; }
  const std::vector<float>& weight_array() const { return weights_; }

  uint32_t max_degree() const { return max_degree_; }

  /// Number of distinct degree values — the |Degree| of the CSDB size
  /// analysis (§III-A) and the "#degrees" column of the paper's Table I.
  uint32_t num_distinct_degrees() const;

  /// Returns a graph with nodes relabeled by `perm`: new id i corresponds to
  /// old id perm[i]. `perm` must be a permutation of [0, num_nodes).
  Result<Graph> Relabel(const std::vector<NodeId>& perm) const;

  /// Permutation that sorts nodes by non-increasing degree (stable), i.e. the
  /// node order CSDB's degree blocks require.
  std::vector<NodeId> DegreeDescendingOrder() const;

 private:
  Graph() = default;

  NodeId num_nodes_ = 0;
  uint32_t max_degree_ = 0;
  std::vector<uint64_t> offsets_;   // size num_nodes_+1
  std::vector<NodeId> neighbors_;  // size num_arcs
  std::vector<float> weights_;     // size num_arcs
};

}  // namespace omega::graph
