// Fig. 18 reproduction:
//   (a) end-to-end runtime vs the distributed systems DistGER and DistDGL
//       (4-machine analogues);
//   (b) single-SpMM runtime vs the SpMM-optimized systems SEM-SpMM
//       (SSD semi-external) and FusedMM (in-memory fused kernel).
//
// Shapes to check: OMeGa beats DistDGL everywhere (paper: 4.31x average) and
// is competitive with DistGER (faster on PK, comparable on the rest); OMeGa
// beats SEM-SpMM by a wide margin (paper: 15.69x average, exploding on big
// graphs) and FusedMM by 2-3x, with FusedMM OOMing on TW-2010/FR.

#include "bench_util.h"
#include "common/string_util.h"
#include "linalg/random_matrix.h"
#include "numa/nadp.h"
#include "sparse/csdb_ops.h"
#include "sparse/fused.h"
#include "sparse/semi_external.h"

int main() {
  using namespace omega;
  using bench::Ratio;
  bench::Env env = bench::MakeEnv(36);

  // --- (a) distributed systems ------------------------------------------------
  engine::PrintExperimentHeader("Fig. 18a",
                                "end-to-end vs DistGER / DistDGL (4 machines)");
  engine::TablePrinter dist({"Graph", "OMeGa", "DistGER", "DistDGL",
                             "OMeGa vs DistGER", "OMeGa vs DistDGL"});
  std::vector<double> dgl_speedups;
  for (const std::string& name : bench::AllGraphNames()) {
    const graph::Graph g = bench::LoadGraphOrDie(name);
    const auto omega_report = engine::RunEmbedding(
        g, name, bench::DefaultOptions(engine::SystemKind::kOmega, env.threads),
        env.Context());
    const auto ger_report = engine::RunEmbedding(
        g, name, bench::DefaultOptions(engine::SystemKind::kDistGer, env.threads),
        env.Context());
    const auto dgl_report = engine::RunEmbedding(
        g, name, bench::DefaultOptions(engine::SystemKind::kDistDgl, env.threads),
        env.Context());
    const double t_omega = omega_report.value().total_seconds;
    const double t_ger = ger_report.value().total_seconds;
    const double t_dgl = dgl_report.value().total_seconds;
    dgl_speedups.push_back(t_dgl / t_omega);
    dist.AddRow({name, HumanSeconds(t_omega), HumanSeconds(t_ger),
                 HumanSeconds(t_dgl), Ratio(t_ger, t_omega),
                 Ratio(t_dgl, t_omega)});
  }
  dist.Print();
  std::printf("geomean OMeGa speedup over DistDGL: %.2fx (paper: 4.31x)\n",
              engine::GeometricMean(dgl_speedups));

  // --- (b) SpMM-optimized systems ----------------------------------------------
  engine::PrintExperimentHeader("Fig. 18b",
                                "single SpMM vs SEM-SpMM / FusedMM");
  engine::TablePrinter spmm({"Graph", "OMeGa", "SEM-SpMM", "FusedMM",
                             "vs SEM", "vs Fused"});
  std::vector<double> sem_speedups;
  std::vector<double> fused_speedups;
  for (const std::string& name : bench::AllGraphNames()) {
    const graph::Graph g = bench::LoadGraphOrDie(name);
    const graph::CsdbMatrix a = graph::CsdbMatrix::FromGraph(g);
    const auto csr = sparse::ToCsr(a).value();
    const linalg::DenseMatrix b = linalg::GaussianMatrix(a.num_cols(), 32, 43);
    linalg::DenseMatrix c(a.num_rows(), 32);

    numa::NadpOptions omega_opts;
    omega_opts.num_threads = env.threads;
    const double t_omega =
        numa::NadpSpmm(a, b, &c, omega_opts, env.Context())
            .phase_seconds;

    sparse::SemiExternalOptions sem_opts;
    sem_opts.dram_budget_bytes =
        env.ms->CapacityBytes(memsim::Tier::kDram) * 2 * 3 / 4;
    const double t_sem =
        sparse::SemiExternalSpmm(csr, b, &c, sem_opts, env.Context())
            .phase_seconds;

    const auto fused = sparse::FusedMmSpmm(csr, b, &c, env.Context());

    sem_speedups.push_back(t_sem / t_omega);
    std::string fused_cell = "OOM";
    std::string fused_ratio = "-";
    if (fused.ok()) {
      fused_cell = HumanSeconds(fused.value().phase_seconds);
      fused_ratio = Ratio(fused.value().phase_seconds, t_omega);
      fused_speedups.push_back(fused.value().phase_seconds / t_omega);
    }
    spmm.AddRow({name, HumanSeconds(t_omega), HumanSeconds(t_sem), fused_cell,
                 Ratio(t_sem, t_omega), fused_ratio});
  }
  spmm.Print();
  std::printf(
      "geomean OMeGa speedup: %.2fx over SEM-SpMM (paper: 15.69x), %.2fx over "
      "FusedMM where it runs (paper: 2.11-3.26x; OOM on TW-2010 as in the "
      "paper)\n",
      engine::GeometricMean(sem_speedups), engine::GeometricMean(fused_speedups));
  return 0;
}
