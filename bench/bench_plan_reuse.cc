// Host-side payoff of the plan/execute split: the same NaDP SpMM issued
// repeatedly (a ProNE power-iteration pattern) with per-call planning vs one
// NadpPlan::Build + repeated NadpExecute. The simulated output is asserted
// byte-identical both ways (the two-clock contract); what changes is the host
// wall-clock, which is what this harness reports.
//
// Usage: bench_plan_reuse [--bench-json=PATH]

#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "numa/nadp.h"

namespace omega::bench {
namespace {

constexpr int kIterations = 14;  // ~tSVD + Chebyshev SpMM count at d = 32

int Main(int argc, char** argv) {
  const std::string json_path = BenchJsonPathFromArgs(&argc, argv);

  graph::RmatParams params;
  params.scale = 16;
  params.num_edges = 1u << 20;
  const graph::CsdbMatrix a =
      graph::CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
  const linalg::DenseMatrix b = linalg::GaussianMatrix(a.num_cols(), 32, 5);

  Env env = MakeEnv();
  numa::NadpOptions opts;
  opts.num_threads = env.threads;

  std::printf("bench_plan_reuse: %u rows, %llu nnz, d=%zu, %d iterations\n",
              a.num_rows(), static_cast<unsigned long long>(a.nnz()), b.cols(),
              kIterations);

  // Per-call planning: every SpMM repeats the inspector work.
  linalg::DenseMatrix c_percall(a.num_rows(), b.cols());
  double sim_percall = 0.0;
  WallTimer percall_timer;
  for (int i = 0; i < kIterations; ++i) {
    sim_percall =
        numa::NadpSpmm(a, b, &c_percall, opts, env.Context()).phase_seconds;
  }
  const double percall_seconds = percall_timer.Seconds();

  // Plan reuse: build once, execute kIterations times.
  linalg::DenseMatrix c_plan(a.num_rows(), b.cols());
  double sim_plan = 0.0;
  WallTimer plan_timer;
  const numa::NadpPlan plan = numa::NadpPlan::Build(a, opts, env.Context());
  for (int i = 0; i < kIterations; ++i) {
    sim_plan =
        numa::NadpExecute(plan, a, {b, &c_plan}, env.Context()).phase_seconds;
  }
  const double plan_seconds = plan_timer.Seconds();

  // The split must not move the simulation or the embeddings by one byte.
  if (sim_percall != sim_plan ||
      std::memcmp(c_percall.data(), c_plan.data(), c_percall.bytes()) != 0) {
    std::fprintf(stderr,
                 "FATAL: plan reuse changed the output (sim %.17g vs %.17g)\n",
                 sim_percall, sim_plan);
    return 1;
  }

  const double speedup = plan_seconds > 0.0 ? percall_seconds / plan_seconds : 0.0;
  std::printf("  per-call planning : %8.3f s host wall\n", percall_seconds);
  std::printf("  plan reuse        : %8.3f s host wall\n", plan_seconds);
  std::printf("  speedup           : %8.2fx (simulated output identical: %.6g s)\n",
              speedup, sim_plan);

  if (!json_path.empty()) {
    BenchJson json;
    json.Add("plan_reuse", "per_call_wall_seconds", percall_seconds);
    json.Add("plan_reuse", "plan_reuse_wall_seconds", plan_seconds);
    json.Add("plan_reuse", "speedup", speedup);
    json.Add("plan_reuse", "iterations", kIterations);
    json.Add("plan_reuse", "simulated_phase_seconds", sim_plan);
    if (!json.WriteFile(json_path)) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace omega::bench

int main(int argc, char** argv) { return omega::bench::Main(argc, argv); }
