// embed-fr: OMeGa (d=32, oversample 8, Chebyshev order 8) embeds the FR
// analogue on 4 pool threads. Dataset generation is the set-up; the measured
// window repeats RunEmbedding back to back. Traced runs alternate untraced
// and traced repetitions; a traced repetition records a root span around
// RunEmbedding and one child span per SpMM phase of its RunReport, with the
// plan build nested inside the SpMM that triggered it (engine.cc builds the
// plan inside the SpMM's span).

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "common/md5.h"
#include "common/thread_pool.h"
#include "embed/prone.h"
#include "graph/csdb.h"
#include "graph/datasets.h"
#include "omega/engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using omega::engine::RunReport;

constexpr int kThreads = 4;

omega::engine::EngineOptions FrOptions() {
  omega::engine::EngineOptions options;
  options.system = omega::engine::SystemKind::kOmega;
  options.num_threads = kThreads;
  options.prone.dim = 32;
  options.prone.oversample = 8;
  options.prone.chebyshev_order = 8;
  return options;
}

bool HasPrefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Rows must be finite and unit-norm, except all-zero rows of isolated
/// nodes (ProNE's row normalization leaves those at zero).
uint64_t BadRows(const omega::linalg::DenseMatrix& e,
                 const omega::graph::Graph& g) {
  uint64_t bad = 0;
  for (size_t r = 0; r < e.rows(); ++r) {
    double norm2 = 0.0;
    bool finite = true;
    for (size_t c = 0; c < e.cols(); ++c) {
      const double v = e.At(r, c);
      finite = finite && std::isfinite(v);
      norm2 += v * v;
    }
    const bool isolated = g.degree(static_cast<omega::graph::NodeId>(r)) == 0;
    const bool ok = finite && (std::fabs(norm2 - 1.0) < 1e-4 ||
                               (isolated && norm2 == 0.0));
    if (!ok) ++bad;
  }
  return bad;
}

/// Records a traced repetition's spans: the root, its SpMM phases, and each
/// plan build under the SpMM that contains it.
void RecordRepSpans(const RunReport& report, Clock::time_point start,
                    Clock::time_point end, SpanRecorder* spans,
                    uint64_t root) {
  spans->Record(root, "engine.run_embedding", 0, root, start, end);
  std::vector<double> pending_plan_builds;
  for (const omega::exec::PhaseRecord& p : report.phases) {
    if (p.name == "plan.build") {
      pending_plan_builds.push_back(p.wall_seconds);
    } else if (p.name.find(".spmm.") != std::string::npos) {
      const uint64_t spmm = spans->NewId();
      spans->RecordDuration(spmm, "sparse.spmm", root, root, p.wall_seconds);
      for (const double wall : pending_plan_builds) {
        spans->RecordDuration(spans->NewId(), "numa.plan_build", spmm, root,
                              wall);
      }
      pending_plan_builds.clear();
    }
  }
}

/// Simulated and counted per-layer values of one report (deterministic).
void AddPhaseValues(const RunReport& report, uint64_t factorize_width_nnz,
                    uint64_t propagate_width_nnz,
                    const omega::memsim::MemorySystem& ms, JsonObject* values) {
  double spmm_sim = 0.0, asl_sim = 0.0, wofp_sim = 0.0, dense_sim = 0.0,
         read_sim = 0.0, flops = 0.0;
  uint64_t calls = 0, asl_loads = 0, plan_hits = 0, plan_misses = 0;
  for (const omega::exec::PhaseRecord& p : report.phases) {
    if (p.name.find(".spmm.") != std::string::npos) {
      spmm_sim += p.sim_seconds;
      ++calls;
      flops += HasPrefix(p.name, "factorize.")
                   ? 2.0 * static_cast<double>(factorize_width_nnz)
                   : 2.0 * static_cast<double>(propagate_width_nnz);
    } else if (p.name == "asl.load") {
      asl_sim += p.sim_seconds;
      ++asl_loads;
    } else if (p.name == "wofp_build") {
      wofp_sim += p.sim_seconds;
    } else if (p.name == "factorize.dense" || p.name == "propagate.dense") {
      dense_sim += p.sim_seconds;
    } else if (p.name == "read") {
      read_sim += p.sim_seconds;
    } else if (p.name == "plan.cache") {
      plan_hits = p.plan_hits;
      plan_misses = p.plan_misses;
    }
  }
  values->Num("sparse.spmm_calls", static_cast<double>(calls));
  values->Num("sparse.spmm_flops", flops);
  values->Num("sparse.spmm_sim_s", spmm_sim);
  values->Num("numa.plan_hits", static_cast<double>(plan_hits));
  values->Num("numa.plan_misses", static_cast<double>(plan_misses));
  values->Num("prefetch.wofp_build_sim_s", wofp_sim);
  values->Num("stream.asl_loads", static_cast<double>(asl_loads));
  values->Num("stream.asl_load_sim_s", asl_sim);
  values->Num("engine.dense_sim_s", dense_sim);
  values->Num("engine.read_sim_s", read_sim);
  const omega::memsim::TrafficSnapshot traffic = ms.Traffic();
  values->Num("memsim.dram_bytes", static_cast<double>(traffic.TierBytes(
                                       omega::memsim::Tier::kDram)));
  values->Num("memsim.pm_bytes", static_cast<double>(traffic.TierBytes(
                                     omega::memsim::Tier::kPm)));
  values->Num("memsim.remote_fraction", report.remote_fraction);
}

}  // namespace

WorkloadResult RunEmbedFr(const RunConfig& cfg, SpanRecorder* spans) {
  WorkloadResult out;
  auto spec = omega::graph::FindDataset("FR");
  if (!spec.ok()) Die(spec.status().ToString());
  omega::graph::RmatParams rmat = spec.value().rmat;
  rmat.seed += cfg.seed;

  // Set-up: dataset generation, repeated; the last graph is embedded.
  std::unique_ptr<omega::graph::Graph> graph;
  std::vector<double> rmat_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    graph.reset();
    const Clock::time_point t0 = Clock::now();
    auto g = omega::graph::GenerateRmat(rmat);
    if (!g.ok()) Die(g.status().ToString());
    graph = std::make_unique<omega::graph::Graph>(std::move(g).value());
    const Clock::time_point t1 = Clock::now();
    rmat_s.push_back(SecondsBetween(t0, t1));
    spans->Record(spans->NewId(), "graph.rmat", 0, 0, t0, t1);
  }
  auto ms = omega::memsim::MemorySystem::CreateDefault();
  omega::ThreadPool pool(kThreads);
  const omega::exec::Context ctx(ms.get(), &pool, kThreads);
  const omega::engine::EngineOptions options = FrOptions();
  out.setup_s = rmat_s;
  out.samples.Array("graph.rmat_s", rmat_s);

  // Measured window: back-to-back repetitions.
  std::vector<double> embed_s, traced_embed_s, traced_groups;
  std::string digest;
  double sim_s = 0.0;
  omega::linalg::DenseMatrix first;
  uint64_t identical_failed = 0, sim_failed = 0, norm_failed = 0;
  const Clock::time_point window_start = Clock::now();
  for (int rep = 0;; ++rep) {
    if (rep > 0 && SecondsBetween(window_start, Clock::now()) >= cfg.seconds) {
      break;
    }
    const bool traced = cfg.trace && rep % 2 == 1;
    ++out.attempted;
    const Clock::time_point t0 = Clock::now();
    auto run = omega::engine::RunEmbedding(*graph, "FR", options, ctx);
    const Clock::time_point t1 = Clock::now();
    if (!run.ok()) {
      ++out.op_failures;
      continue;
    }
    const RunReport& report = run.value();
    const double seconds = SecondsBetween(t0, t1);
    if (traced) {
      const uint64_t root = spans->NewId();
      RecordRepSpans(report, t0, t1, spans, root);
      traced_embed_s.push_back(seconds);
      traced_groups.push_back(static_cast<double>(root));
    } else {
      embed_s.push_back(seconds);
    }
    const uint64_t bad_rows = BadRows(report.embedding, *graph);
    if (bad_rows > 0) ++norm_failed;
    if (first.rows() == 0) {
      first = report.embedding;
      sim_s = report.total_seconds;
      digest = omega::Md5Hex(first.data(), first.bytes());
      if (cfg.trace) {
        // Width x nnz of the SpMM operands, for the flop count: stage 1
        // multiplies the target matrix by dim + oversample columns, stage 2
        // the propagation matrix by dim columns.
        const Clock::time_point c0 = Clock::now();
        const omega::graph::CsdbMatrix adjacency =
            omega::graph::CsdbMatrix::FromGraph(*graph);
        const Clock::time_point c1 = Clock::now();
        const omega::graph::CsdbMatrix target =
            omega::embed::BuildTargetMatrix(adjacency, options.prone.neg_lambda);
        const omega::graph::CsdbMatrix propagation =
            omega::embed::BuildPropagationMatrix(adjacency);
        const Clock::time_point c2 = Clock::now();
        spans->Record(spans->NewId(), "graph.csdb_build", 0, 0, c0, c1);
        spans->Record(spans->NewId(), "embed.matrices", 0, 0, c1, c2);
        out.values.Num("graph.csdb_build_s", SecondsBetween(c0, c1));
        out.values.Num("embed.matrices_s", SecondsBetween(c1, c2));
        AddPhaseValues(
            report,
            target.nnz() * (options.prone.dim + options.prone.oversample),
            propagation.nnz() * options.prone.dim, *ms, &out.values);
      }
    } else {
      if (std::memcmp(first.data(), report.embedding.data(), first.bytes()) !=
          0) {
        ++identical_failed;
      }
      if (report.total_seconds != sim_s) ++sim_failed;
    }
  }
  out.samples.Array("embed_s", embed_s);
  out.samples.Array("traced_embed_s", traced_embed_s);
  out.samples.Array("traced_groups", traced_groups);
  out.values.Num("embed_sim_s", sim_s);
  out.values.Str("embedding_md5", digest);
  out.AddCheck("repetitions_bit_identical", out.attempted - 1,
               identical_failed);
  out.AddCheck("sim_seconds_repeat", out.attempted - 1, sim_failed);
  out.AddCheck("rows_finite_unit_norm", out.attempted, norm_failed);
  return out;
}

}  // namespace perfbench
