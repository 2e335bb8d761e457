#include "graph/graph_io.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "common/string_util.h"

namespace omega::graph {

namespace {
constexpr uint64_t kBinaryMagic = 0x4F4D4547412D4731ULL;  // "OMEGA-G1"
constexpr uint64_t kMaxNodeId = std::numeric_limits<NodeId>::max();

// Whether a parsed weight converts to float: a finite double beyond float's
// range has no defined conversion.
bool FitsFloat(double w) {
  return !std::isfinite(w) || std::fabs(w) <= std::numeric_limits<float>::max();
}

// Size of the file behind `in`, leaving the read position at the start.
uint64_t StreamBytes(std::istream& in) {
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(0, std::ios::beg);
  return end < 0 ? 0 : static_cast<uint64_t>(end);
}
}  // namespace

Result<Graph> LoadEdgeListText(const std::string& path, bool undirected) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  std::unordered_map<uint64_t, NodeId> remap;
  std::vector<Edge> edges;
  std::string line;
  auto densify = [&remap](uint64_t raw) {
    auto [it, inserted] = remap.emplace(raw, static_cast<NodeId>(remap.size()));
    (void)inserted;
    return it->second;
  };

  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const auto tokens = SplitTokens(line, " \t\r,");
    if (tokens.size() < 2) {
      return Status::IOError(path + ":" + std::to_string(line_no) +
                             ": expected 'src dst [weight]'");
    }
    uint64_t raw_src = 0;
    uint64_t raw_dst = 0;
    double weight = 1.0;
    try {
      raw_src = std::stoull(std::string(tokens[0]));
      raw_dst = std::stoull(std::string(tokens[1]));
      if (tokens.size() >= 3) weight = std::stod(std::string(tokens[2]));
    } catch (const std::exception&) {
      return Status::IOError(path + ":" + std::to_string(line_no) +
                             ": unparsable edge line");
    }
    if (!FitsFloat(weight)) {
      return Status::IOError(path + ":" + std::to_string(line_no) +
                             ": weight out of float range");
    }
    edges.push_back(Edge{densify(raw_src), densify(raw_dst),
                         static_cast<float>(weight)});
  }
  if (remap.empty()) return Status::IOError(path + ": no edges found");
  return Graph::FromEdges(static_cast<NodeId>(remap.size()), edges, undirected);
}

Status SaveEdgeListText(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "# omega edge list: " << g.num_nodes() << " nodes, " << g.num_arcs()
      << " arcs\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NodeId* nbrs = g.neighbors(v);
    const float* wts = g.weights(v);
    for (uint32_t i = 0; i < g.degree(v); ++i) {
      out << v << ' ' << nbrs[i] << ' ' << wts[i] << '\n';
    }
  }
  return out.good() ? Status::OK() : Status::IOError("write failed: " + path);
}

Result<Graph> LoadMatrixMarket(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  const uint64_t file_bytes = StreamBytes(in);
  std::string line;
  if (!std::getline(in, line) || !StartsWith(line, "%%MatrixMarket")) {
    return Status::IOError(path + ": missing MatrixMarket banner");
  }
  const auto banner = SplitTokens(line, " \t\r");
  if (banner.size() < 5 || banner[1] != "matrix" || banner[2] != "coordinate") {
    return Status::IOError(path + ": only 'matrix coordinate' is supported");
  }
  const bool pattern = banner[3] == "pattern";
  if (!pattern && banner[3] != "real" && banner[3] != "integer") {
    return Status::IOError(path + ": unsupported field type");
  }

  // Skip comments, read the size line.
  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t entries = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    const auto tokens = SplitTokens(line, " \t\r");
    if (tokens.size() < 3) return Status::IOError(path + ": bad size line");
    try {
      rows = std::stoull(std::string(tokens[0]));
      cols = std::stoull(std::string(tokens[1]));
      entries = std::stoull(std::string(tokens[2]));
    } catch (const std::exception&) {
      return Status::IOError(path + ": unparsable size line");
    }
    break;
  }
  if (rows == 0 || rows != cols) {
    return Status::IOError(path + ": adjacency matrices must be square");
  }
  // Both counts size allocations, so bound them before trusting them: ids
  // must fit a NodeId, and every entry line takes at least 3 bytes ("r c").
  if (rows > kMaxNodeId) {
    return Status::IOError(path + ": " + std::to_string(rows) +
                           " rows exceed the 32-bit node id range");
  }
  if (entries > file_bytes / 3) {
    return Status::IOError(path + ": header claims " + std::to_string(entries) +
                           " entries, more than the file can hold");
  }

  std::vector<Edge> edges;
  edges.reserve(entries);
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    const auto tokens = SplitTokens(line, " \t\r");
    if (tokens.size() < 2) return Status::IOError(path + ": bad entry line");
    try {
      const uint64_t r = std::stoull(std::string(tokens[0]));
      const uint64_t c = std::stoull(std::string(tokens[1]));
      if (r == 0 || c == 0 || r > rows || c > cols) {
        return Status::OutOfRange(path + ": 1-based index out of range");
      }
      const double w =
          (!pattern && tokens.size() >= 3) ? std::stod(std::string(tokens[2])) : 1.0;
      if (!FitsFloat(w)) return Status::IOError(path + ": weight out of float range");
      edges.push_back(Edge{static_cast<NodeId>(r - 1), static_cast<NodeId>(c - 1),
                           static_cast<float>(w)});
    } catch (const std::exception&) {
      return Status::IOError(path + ": unparsable entry line");
    }
  }
  if (edges.size() != entries) {
    return Status::IOError(path + ": entry count mismatch with header");
  }
  // 'symmetric' stores one triangle; 'general' both. FromEdges symmetrizes
  // and merges duplicates either way for an undirected graph.
  return Graph::FromEdges(static_cast<NodeId>(rows), edges, /*undirected=*/true);
}

Status SaveMatrixMarket(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "%%MatrixMarket matrix coordinate real symmetric\n";
  out << "% written by omega\n";
  // Count the lower triangle (including any self-loops, which Graph drops).
  uint64_t entries = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NodeId* nbrs = g.neighbors(v);
    for (uint32_t i = 0; i < g.degree(v); ++i) entries += nbrs[i] <= v;
  }
  out << g.num_nodes() << ' ' << g.num_nodes() << ' ' << entries << '\n';
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NodeId* nbrs = g.neighbors(v);
    const float* wts = g.weights(v);
    for (uint32_t i = 0; i < g.degree(v); ++i) {
      if (nbrs[i] <= v) {
        out << (v + 1) << ' ' << (nbrs[i] + 1) << ' ' << wts[i] << '\n';
      }
    }
  }
  return out.good() ? Status::OK() : Status::IOError("write failed: " + path);
}

Status SaveBinary(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  const uint64_t magic = kBinaryMagic;
  const uint64_t nodes = g.num_nodes();
  const uint64_t arcs = g.num_arcs();
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&nodes), sizeof(nodes));
  out.write(reinterpret_cast<const char*>(&arcs), sizeof(arcs));
  out.write(reinterpret_cast<const char*>(g.offsets().data()),
            static_cast<std::streamsize>(g.offsets().size() * sizeof(uint64_t)));
  out.write(reinterpret_cast<const char*>(g.neighbor_array().data()),
            static_cast<std::streamsize>(arcs * sizeof(NodeId)));
  out.write(reinterpret_cast<const char*>(g.weight_array().data()),
            static_cast<std::streamsize>(arcs * sizeof(float)));
  return out.good() ? Status::OK() : Status::IOError("write failed: " + path);
}

Result<Graph> LoadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  const uint64_t file_bytes = StreamBytes(in);
  uint64_t magic = 0;
  uint64_t nodes = 0;
  uint64_t arcs = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&nodes), sizeof(nodes));
  in.read(reinterpret_cast<char*>(&arcs), sizeof(arcs));
  if (!in || magic != kBinaryMagic) {
    return Status::IOError(path + ": not an omega binary graph");
  }
  // The header's counts size every allocation below: check them against the
  // NodeId range and the bytes actually present before allocating, so a
  // corrupt header cannot exhaust memory.
  const uint64_t body_bytes = file_bytes - 3 * sizeof(uint64_t);
  const uint64_t offset_bytes = (nodes + 1) * sizeof(uint64_t);
  if (nodes > kMaxNodeId || offset_bytes > body_bytes ||
      arcs > (body_bytes - offset_bytes) / (sizeof(NodeId) + sizeof(float))) {
    return Status::IOError(path + ": header sizes (" + std::to_string(nodes) +
                           " nodes, " + std::to_string(arcs) +
                           " arcs) exceed the file");
  }
  std::vector<uint64_t> offsets(nodes + 1);
  std::vector<NodeId> neighbors(arcs);
  std::vector<float> weights(arcs);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(uint64_t)));
  in.read(reinterpret_cast<char*>(neighbors.data()),
          static_cast<std::streamsize>(arcs * sizeof(NodeId)));
  in.read(reinterpret_cast<char*>(weights.data()),
          static_cast<std::streamsize>(arcs * sizeof(float)));
  if (!in) return Status::IOError(path + ": truncated binary graph");
  // The offsets index the arc arrays, so they must partition [0, arcs).
  if (offsets[0] != 0 || offsets[nodes] != arcs ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    return Status::IOError(path + ": offsets do not partition the arcs");
  }

  // Rebuild through FromEdges to revalidate invariants.
  std::vector<Edge> edges;
  edges.reserve(arcs);
  for (NodeId v = 0; v < nodes; ++v) {
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      edges.push_back(Edge{v, neighbors[i], weights[i]});
    }
  }
  return Graph::FromEdges(static_cast<NodeId>(nodes), edges, /*undirected=*/false);
}

Status MutationStreamReader::Open(const std::string& path) {
  path_ = path;
  line_no_ = 0;
  in_.open(path);
  if (!in_) return Status::IOError("cannot open " + path);
  return Status::OK();
}

Result<size_t> MutationStreamReader::ReadBatch(size_t max_count,
                                               std::vector<Mutation>* out) {
  if (!in_.is_open()) return Status::InvalidArgument("reader is not open");
  size_t appended = 0;
  std::string line;
  while (appended < max_count && std::getline(in_, line)) {
    ++line_no_;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const auto tokens = SplitTokens(line, " \t\r,");
    if (tokens.empty()) continue;
    auto error = [&](const std::string& message) {
      return Status::IOError(path_ + ":" + std::to_string(line_no_) + ": " +
                             message);
    };

    Mutation m;
    size_t first = 0;
    const std::string op(tokens[0]);
    if (op == "a" || op == "+") {
      m.kind = MutationKind::kInsertEdge;
      first = 1;
    } else if (op == "d" || op == "-") {
      m.kind = MutationKind::kDeleteEdge;
      first = 1;
    } else if (op == "u") {
      m.kind = MutationKind::kUpdateWeight;
      first = 1;
    } else if (op.find_first_not_of("0123456789") != std::string::npos) {
      return error("unknown mutation op '" + op + "' (expected a, d, or u)");
    }
    if (tokens.size() < first + 2) {
      return error("expected '[a|d|u] src dst [weight]'");
    }
    try {
      const uint64_t src = std::stoull(std::string(tokens[first]));
      const uint64_t dst = std::stoull(std::string(tokens[first + 1]));
      if (src > UINT32_MAX || dst > UINT32_MAX) {
        return error("node id out of 32-bit range");
      }
      m.src = static_cast<NodeId>(src);
      m.dst = static_cast<NodeId>(dst);
      if (tokens.size() >= first + 3) {
        const double weight = std::stod(std::string(tokens[first + 2]));
        if (!FitsFloat(weight)) return error("weight out of float range");
        m.weight = static_cast<float>(weight);
      }
    } catch (const std::exception&) {
      return error("unparsable mutation line");
    }
    if (m.kind == MutationKind::kUpdateWeight && tokens.size() < first + 3) {
      return error("weight update needs an explicit weight");
    }
    out->push_back(m);
    ++appended;
  }
  return appended;
}

Result<std::vector<Mutation>> LoadMutationsText(const std::string& path) {
  MutationStreamReader reader;
  OMEGA_RETURN_NOT_OK(reader.Open(path));
  std::vector<Mutation> mutations;
  while (true) {
    OMEGA_ASSIGN_OR_RETURN(const size_t got, reader.ReadBatch(4096, &mutations));
    if (got == 0) break;
  }
  return mutations;
}

}  // namespace omega::graph
