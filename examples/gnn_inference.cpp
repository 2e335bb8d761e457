// GNN inference on heterogeneous memory — the paper's generality claim (§VI:
// EaTA and WoFP "optimize SpMM parallel efficiency for graph embedding,
// applicable to any storage system").
//
// A 2-layer GraphSAGE-style mean-aggregation network runs its per-layer
// aggregations through three kernel configurations on the simulated DRAM+PM
// machine, showing the same optimization stack serving a different model
// family than ProNE.

#include <cstdio>

#include "embed/gnn.h"
#include "graph/datasets.h"
#include "graph/traversal.h"
#include "numa/nadp.h"

int main(int argc, char** argv) {
  using namespace omega;
  const char* dataset = argc > 1 ? argv[1] : "OR";
  auto loaded = graph::LoadDatasetByName(dataset);
  if (!loaded.ok()) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset);
    return 1;
  }
  const graph::Graph& g = loaded.value();
  const graph::CsdbMatrix adjacency = graph::CsdbMatrix::FromGraph(g);
  std::printf("dataset %s analogue: %u nodes, %llu arcs, %u components\n", dataset,
              g.num_nodes(), static_cast<unsigned long long>(g.num_arcs()),
              graph::CountComponents(g));

  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(16);

  embed::GnnOptions gnn;
  gnn.num_layers = 2;
  gnn.hidden_dim = 64;
  gnn.output_dim = 32;

  struct Config {
    const char* name;
    bool wofp;
    bool nadp;
    sched::AllocatorKind allocator;
  };
  const Config configs[] = {
      {"baseline (WaTA, Interleaved)", false, false,
       sched::AllocatorKind::kWorkloadBalanced},
      {"+ EaTA + WoFP", true, false, sched::AllocatorKind::kEntropyAware},
      {"full OMeGa stack", true, true, sched::AllocatorKind::kEntropyAware},
  };

  std::printf("\n2-layer mean-aggregation GNN forward pass (d_hidden=%zu):\n",
              gnn.hidden_dim);
  double baseline = 0.0;
  for (const Config& config : configs) {
    auto executor = [&](const graph::CsdbMatrix& m,
                        const sparse::SpmmOperands& dense) -> Result<double> {
      dense.SizeOutput(m.num_rows());
      numa::NadpOptions opts;
      opts.num_threads = 16;
      opts.allocator = config.allocator;
      opts.use_wofp = config.wofp;
      opts.enabled = config.nadp;
      const exec::Context ctx(ms.get(), &pool);
      return numa::NadpExecute(numa::NadpPlan::Build(m, opts, ctx), m, dense, ctx)
          .phase_seconds;
    };
    auto result =
        embed::GnnForward(adjacency, linalg::DenseMatrix(), gnn, executor);
    if (!result.ok()) {
      std::fprintf(stderr, "forward pass failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const double total =
        result.value().spmm_seconds + result.value().dense_seconds;
    if (baseline == 0.0) baseline = total;
    std::printf("  %-30s aggregation %8.3f ms + weights %6.3f ms  (%.2fx)\n",
                config.name, result.value().spmm_seconds * 1e3,
                result.value().dense_seconds * 1e3, baseline / total);
  }

  // A quick structural sanity check: GNN embeddings should roughly track
  // PageRank importance for hub nodes (both aggregate neighborhoods).
  auto pr = graph::PageRank(g).value();
  const auto top = graph::TopPageRankNodes(pr, 5);
  std::printf("\ntop PageRank hubs:");
  for (graph::NodeId v : top) std::printf(" %u (%.4f)", v, pr.scores[v]);
  std::printf("\n");
  return 0;
}
