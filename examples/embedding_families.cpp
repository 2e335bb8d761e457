// The three graph-embedding families of the paper's Fig. 2 — random-walk
// (DeepWalk/node2vec), matrix factorization (ProNE, OMeGa's prototype), and
// GNN message passing — side by side on the same graph and the same
// simulated DRAM+PM machine.
//
// This reproduces the paper's motivating comparison in miniature: the
// random-walk family pays per-sample embedding-table updates, ProNE's MF
// pipeline concentrates everything into SpMM (where OMeGa's optimizations
// bite), and the GNN forward pass rides the same kernels.

#include <cstdio>

#include "embed/gnn.h"
#include "embed/quality.h"
#include "embed/random_walk.h"
#include "graph/datasets.h"
#include "numa/nadp.h"
#include "omega/engine.h"

int main(int argc, char** argv) {
  using namespace omega;
  const char* dataset = argc > 1 ? argv[1] : "PK";
  auto loaded = graph::LoadDatasetByName(dataset);
  if (!loaded.ok()) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset);
    return 1;
  }
  const graph::Graph& g = loaded.value();
  std::printf("dataset %s analogue: %u nodes, %llu arcs\n\n", dataset,
              g.num_nodes(), static_cast<unsigned long long>(g.num_arcs()));

  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(16);
  const size_t dim = 32;

  std::printf("%-28s %14s %10s\n", "family", "simulated time", "link AUC");
  std::printf("%.*s\n", 56, "--------------------------------------------------------");

  auto report_row = [&](const char* name, double seconds,
                        const linalg::DenseMatrix& vectors) {
    auto auc = embed::LinkPredictionAuc(g, vectors, 1500, 9);
    std::printf("%-28s %11.2f ms %10.3f\n", name, seconds * 1e3,
                auc.ok() ? auc.value() : 0.0);
  };

  // 1. Random walks + SGNS (DeepWalk), embedding tables on DRAM+PM.
  {
    embed::WalkOptions walks;
    walks.walks_per_node = 8;
    walks.walk_length = 24;
    embed::SgnsOptions sgns;
    sgns.dim = dim;
    auto result = embed::DeepWalkEmbed(
        g, walks, sgns, ms.get(),
        {memsim::Tier::kPm, memsim::Placement::kInterleaved}, 16);
    if (result.ok()) {
      report_row("random walk (DeepWalk)", result.value().simulated_seconds,
                 result.value().vectors);
    }
  }

  // 2. Matrix factorization (ProNE) under the full OMeGa stack.
  {
    auto options = engine::EngineOptions{};
    options.system = engine::SystemKind::kOmega;
    options.num_threads = 16;
    options.prone.dim = dim;
    auto report = engine::RunEmbedding(g, dataset, options, exec::Context(ms.get(), &pool));
    if (report.ok()) {
      report_row("matrix factorization (OMeGa)", report.value().embed_seconds,
                 report.value().embedding);
    }
  }

  // 3. GNN forward pass on the same charged kernels.
  {
    const graph::CsdbMatrix adjacency = graph::CsdbMatrix::FromGraph(g);
    auto executor = [&](const graph::CsdbMatrix& m,
                        const sparse::SpmmOperands& dense) -> Result<double> {
      dense.SizeOutput(m.num_rows());
      numa::NadpOptions opts;
      opts.num_threads = 16;
      const exec::Context ctx(ms.get(), &pool);
      return numa::NadpExecute(numa::NadpPlan::Build(m, opts, ctx), m, dense, ctx)
          .phase_seconds;
    };
    embed::GnnOptions gnn;
    gnn.output_dim = dim;
    auto result =
        embed::GnnForward(adjacency, linalg::DenseMatrix(), gnn, executor);
    if (result.ok()) {
      // GNN rows are in CSDB space; map back for the quality check.
      linalg::DenseMatrix original(result.value().embeddings.rows(), dim);
      const auto& perm = adjacency.perm();
      for (size_t c = 0; c < dim; ++c) {
        for (size_t r = 0; r < original.rows(); ++r) {
          original.At(perm[r], c) = result.value().embeddings.At(r, c);
        }
      }
      report_row("GNN forward (2-layer mean)",
                 result.value().spmm_seconds + result.value().dense_seconds,
                 original);
    }
  }

  std::printf(
      "\nThe MF family concentrates its cost in SpMM, which is exactly where\n"
      "OMeGa's EaTA/WoFP/NaDP apply — the paper's reason for building on "
      "ProNE.\n(Untrained GNN forward features carry less link signal than the "
      "trained\nfamilies; it is shown for kernel parity, not accuracy.)\n");
  return 0;
}
