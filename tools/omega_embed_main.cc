// omega_embed — command-line embedding driver.
//
// Embeds a graph (edge-list file or a Table I dataset analogue) with any of
// the paper's systems on the simulated heterogeneous-memory machine, and
// optionally writes the embedding to disk.
//
// Usage:
//   omega_embed [options]
//     --graph <path|name>   edge-list file, or PK/LJ/OR/TW/TW-2010/FR
//     --system <name>       omega (default) | omega-dram | omega-pm |
//                           prone-dram | prone-hm | ginex | marius
//     --threads <n>         worker threads (default 36)
//     --dim <d>             embedding dimension (default 32)
//     --cheb <k>            Chebyshev order (default 8)
//     --no-wofp / --no-nadp / --no-asl  feature ablations
//     --async-staging       overlap ASL staging fetches with compute (omega)
//     --asl-partitions <n>  pin the ASL partition count (0 = solve Eq. 9)
//     --pim-banks <n>       simulated PIM banks for SpMM offload (0 = off)
//     --pim-placement <p>   auto (default) | all-pim | host-only
//     --allocator <name>    eata (default) | wata | rr
//     --cxl                 use the CXL device profiles for the capacity tier
//     --out <path>          write embedding (.tsv or binary by extension)
//     --auc                 evaluate link-prediction AUC
//     --trace-json <path>   write the per-phase trace (RunReport JSON)
//     --fault-profile <p>   inject faults: none | pm-stall | pm-degraded |
//                           worn-ssd | flaky-net | chaos, optional ":<seed>"
//     --mutations <spec>    dynamic-graph mode (omega-family systems): train,
//                           then apply a mutation stream and refresh the
//                           affected embedding rows incrementally. <spec> is a
//                           mutation file (graph_io.h grammar) or
//                           "synthetic:<rate>[,<seed>]" — rate < 1 is a
//                           fraction of the graph's edges, otherwise a count.
//     --checkpoint-every <n>  crash-consistent checkpointing to the simulated
//                           PM tier: stage boundaries always, plus every n-th
//                           Chebyshev term (omega-family systems)
//     --ckpt-path <path>    persist the checkpoint image host-side after the
//                           run (pairs with --restore-from across processes)
//     --restore-from <path> resume from a saved checkpoint image; the run
//                           skips completed stages and replays from the last
//                           committed snapshot

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "durable/checkpoint.h"
#include "embed/embedding_io.h"
#include "graph/datasets.h"
#include "graph/graph_io.h"
#include "graph/mutable_graph.h"
#include "omega/engine.h"
#include "omega/incremental.h"
#include "omega/report.h"

#include <fstream>

namespace {

using namespace omega;

struct CliOptions {
  std::string graph = "PK";
  std::string system = "omega";
  std::string allocator = "eata";
  std::string out;
  std::string trace_json;
  std::string fault_profile;
  int threads = 36;
  size_t dim = 32;
  int cheb = 8;
  bool wofp = true;
  bool nadp = true;
  bool asl = true;
  bool async_staging = false;
  size_t asl_partitions = 0;
  int pim_banks = 0;
  std::string pim_placement = "auto";
  bool cxl = false;
  bool auc = false;
  std::string mutations;
  uint64_t checkpoint_every = 0;
  std::string ckpt_path;
  std::string restore_from;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--graph <path|name>] [--system <name>] "
               "[--threads n] [--dim d] [--cheb k] [--allocator eata|wata|rr] "
               "[--no-wofp] [--no-nadp] [--no-asl] [--async-staging] "
               "[--asl-partitions n] [--pim-banks n] "
               "[--pim-placement auto|all-pim|host-only] [--cxl] [--out path] "
               "[--auc] [--trace-json path] [--fault-profile name[:seed]] "
               "[--mutations <file|synthetic:rate[,seed]>] "
               "[--checkpoint-every n] [--ckpt-path path] "
               "[--restore-from path]\n",
               argv0);
  return 2;
}

Result<engine::SystemKind> ParseSystem(const std::string& name) {
  static const std::map<std::string, engine::SystemKind> kSystems = {
      {"omega", engine::SystemKind::kOmega},
      {"omega-dram", engine::SystemKind::kOmegaDram},
      {"omega-pm", engine::SystemKind::kOmegaPm},
      {"prone-dram", engine::SystemKind::kProneDram},
      {"prone-hm", engine::SystemKind::kProneHm},
      {"ginex", engine::SystemKind::kGinex},
      {"marius", engine::SystemKind::kMariusGnn},
  };
  const auto it = kSystems.find(name);
  if (it == kSystems.end()) return Status::InvalidArgument("unknown system " + name);
  return it->second;
}

Result<sched::AllocatorKind> ParseAllocator(const std::string& name) {
  if (name == "eata") return sched::AllocatorKind::kEntropyAware;
  if (name == "wata") return sched::AllocatorKind::kWorkloadBalanced;
  if (name == "rr") return sched::AllocatorKind::kRoundRobin;
  return Status::InvalidArgument("unknown allocator " + name);
}

Result<sched::PimPolicy> ParsePimPolicy(const std::string& name) {
  if (name == "auto") return sched::PimPolicy::kAuto;
  if (name == "all-pim") return sched::PimPolicy::kAllPim;
  if (name == "host-only") return sched::PimPolicy::kHostOnly;
  return Status::InvalidArgument("unknown PIM placement " + name);
}

/// `spec` is a mutation file path or "synthetic:<rate>[,<seed>]".
Result<std::vector<graph::Mutation>> LoadMutations(const std::string& spec,
                                                   const graph::Graph& g) {
  constexpr const char* kSynthetic = "synthetic:";
  if (spec.rfind(kSynthetic, 0) != 0) return graph::LoadMutationsText(spec);
  const std::string body = spec.substr(std::strlen(kSynthetic));
  char* end = nullptr;
  const double rate = std::strtod(body.c_str(), &end);
  if (end == body.c_str() || rate < 0.0) {
    return Status::InvalidArgument("bad synthetic mutation rate in " + spec);
  }
  uint64_t seed = 42;
  if (*end == ',') {
    seed = std::strtoull(end + 1, nullptr, 10);
  } else if (*end != '\0') {
    return Status::InvalidArgument("bad synthetic mutation spec " + spec);
  }
  const double edges = static_cast<double>(g.num_arcs()) / 2.0;
  const size_t count = rate < 1.0 ? static_cast<size_t>(rate * edges)
                                  : static_cast<size_t>(rate);
  return graph::SyntheticMutations(g, count, seed);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--graph" && next()) {
      cli.graph = argv[i];
    } else if (arg == "--system" && i + 1 < argc) {
      cli.system = argv[++i];
    } else if (arg == "--allocator" && i + 1 < argc) {
      cli.allocator = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      cli.threads = std::atoi(argv[++i]);
    } else if (arg == "--dim" && i + 1 < argc) {
      cli.dim = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--cheb" && i + 1 < argc) {
      cli.cheb = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      cli.out = argv[++i];
    } else if (arg == "--trace-json" && i + 1 < argc) {
      cli.trace_json = argv[++i];
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      cli.trace_json = arg.substr(std::strlen("--trace-json="));
      if (cli.trace_json.empty()) return Usage(argv[0]);
    } else if (arg == "--fault-profile" && i + 1 < argc) {
      cli.fault_profile = argv[++i];
    } else if (arg.rfind("--fault-profile=", 0) == 0) {
      cli.fault_profile = arg.substr(std::strlen("--fault-profile="));
      if (cli.fault_profile.empty()) return Usage(argv[0]);
    } else if (arg == "--no-wofp") {
      cli.wofp = false;
    } else if (arg == "--no-nadp") {
      cli.nadp = false;
    } else if (arg == "--no-asl") {
      cli.asl = false;
    } else if (arg == "--async-staging") {
      cli.async_staging = true;
    } else if (arg == "--asl-partitions" && i + 1 < argc) {
      cli.asl_partitions = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--pim-banks" && i + 1 < argc) {
      cli.pim_banks = std::atoi(argv[++i]);
    } else if (arg.rfind("--pim-banks=", 0) == 0) {
      cli.pim_banks = std::atoi(arg.c_str() + std::strlen("--pim-banks="));
    } else if (arg == "--pim-placement" && i + 1 < argc) {
      cli.pim_placement = argv[++i];
    } else if (arg.rfind("--pim-placement=", 0) == 0) {
      cli.pim_placement = arg.substr(std::strlen("--pim-placement="));
      if (cli.pim_placement.empty()) return Usage(argv[0]);
    } else if (arg == "--cxl") {
      cli.cxl = true;
    } else if (arg == "--auc") {
      cli.auc = true;
    } else if (arg == "--mutations" && i + 1 < argc) {
      cli.mutations = argv[++i];
    } else if (arg.rfind("--mutations=", 0) == 0) {
      cli.mutations = arg.substr(std::strlen("--mutations="));
      if (cli.mutations.empty()) return Usage(argv[0]);
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      cli.checkpoint_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      cli.checkpoint_every =
          std::strtoull(arg.c_str() + std::strlen("--checkpoint-every="),
                        nullptr, 10);
    } else if (arg == "--ckpt-path" && i + 1 < argc) {
      cli.ckpt_path = argv[++i];
    } else if (arg.rfind("--ckpt-path=", 0) == 0) {
      cli.ckpt_path = arg.substr(std::strlen("--ckpt-path="));
      if (cli.ckpt_path.empty()) return Usage(argv[0]);
    } else if (arg == "--restore-from" && i + 1 < argc) {
      cli.restore_from = argv[++i];
    } else if (arg.rfind("--restore-from=", 0) == 0) {
      cli.restore_from = arg.substr(std::strlen("--restore-from="));
      if (cli.restore_from.empty()) return Usage(argv[0]);
    } else {
      return Usage(argv[0]);
    }
  }
  if (cli.threads <= 0 || cli.dim == 0 || cli.cheb <= 0) return Usage(argv[0]);
  // Names and the fault profile are checked before the graph loads:
  // building a large dataset only to reject a typo wastes seconds.
  auto system = ParseSystem(cli.system);
  auto allocator = ParseAllocator(cli.allocator);
  auto pim_policy = ParsePimPolicy(cli.pim_placement);
  if (!system.ok() || !allocator.ok() || !pim_policy.ok()) {
    return Usage(argv[0]);
  }
  if (cli.pim_banks < 0) return Usage(argv[0]);
  memsim::FaultPlan fault_plan;
  if (!cli.fault_profile.empty()) {
    auto plan = memsim::FaultPlanFromProfile(cli.fault_profile);
    if (!plan.ok()) {
      std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
      return Usage(argv[0]);
    }
    fault_plan = plan.value();
  }

  // Load the graph: dataset name first, then as a file path.
  Result<graph::Graph> loaded = graph::LoadDatasetByName(cli.graph);
  if (!loaded.ok()) loaded = graph::LoadEdgeListText(cli.graph);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load graph '%s': %s\n", cli.graph.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  const graph::Graph& g = loaded.value();
  std::printf("graph %s: %u nodes, %llu arcs\n", cli.graph.c_str(), g.num_nodes(),
              static_cast<unsigned long long>(g.num_arcs()));

  auto ms = std::make_unique<memsim::MemorySystem>(
      memsim::TopologyConfig{},
      cli.cxl ? memsim::CxlProfiles() : memsim::DefaultProfiles());
  ms->SetFaultPlan(fault_plan);
  if (ms->faults_enabled()) {
    std::printf("fault injection: profile %s (seed %llu)\n",
                cli.fault_profile.c_str(),
                static_cast<unsigned long long>(fault_plan.seed));
  }
  ThreadPool pool(static_cast<size_t>(cli.threads));

  engine::EngineOptions options;
  options.system = system.value();
  options.num_threads = cli.threads;
  options.prone.dim = cli.dim;
  options.prone.chebyshev_order = cli.cheb;
  options.features.allocator = allocator.value();
  options.features.use_wofp = cli.wofp;
  options.features.use_nadp = cli.nadp;
  options.features.use_asl = cli.asl;
  options.features.async_staging = cli.async_staging;
  options.features.asl_fixed_partitions = cli.asl_partitions;
  options.features.pim_banks = cli.pim_banks;
  options.features.pim_placement = pim_policy.value();
  options.evaluate_quality = cli.auc;

  // Crash-consistent checkpointing: the store lives on the simulated PM
  // tier; --ckpt-path / --restore-from persist its byte image host-side so a
  // killed process can resume in a fresh one.
  std::unique_ptr<durable::CheckpointStore> ckpt_store;
  if (cli.checkpoint_every > 0 || !cli.restore_from.empty()) {
    ckpt_store = std::make_unique<durable::CheckpointStore>(
        ms.get(), durable::CheckpointOptions{});
    if (!cli.restore_from.empty()) {
      const Status st = ckpt_store->LoadFromFile(cli.restore_from);
      if (!st.ok()) {
        std::fprintf(stderr, "cannot load checkpoint '%s': %s\n",
                     cli.restore_from.c_str(), st.ToString().c_str());
        return 1;
      }
      options.durability.restore = true;
      std::printf("restoring from %s (%llu entries)\n",
                  cli.restore_from.c_str(),
                  static_cast<unsigned long long>(ckpt_store->entry_count()));
    }
    options.durability.store = ckpt_store.get();
    options.durability.checkpoint_every = cli.checkpoint_every;
  }

  exec::TraceRecorder trace;
  const exec::Context ctx(ms.get(), &pool, cli.threads, &trace);

  // Dynamic-graph mode trains through the DynamicEmbedder (same RunEmbedding
  // call plus the host-only recurrence capture: identical report and bytes),
  // then applies the mutation stream and refreshes incrementally.
  std::unique_ptr<engine::DynamicEmbedder> dyn;
  std::vector<graph::Mutation> mutations;
  if (!cli.mutations.empty()) {
    auto loaded_muts = LoadMutations(cli.mutations, g);
    if (!loaded_muts.ok()) {
      std::fprintf(stderr, "cannot load mutations '%s': %s\n",
                   cli.mutations.c_str(),
                   loaded_muts.status().ToString().c_str());
      return 1;
    }
    mutations = std::move(loaded_muts).value();
    dyn = std::make_unique<engine::DynamicEmbedder>(g, options, cli.graph,
                                                    cli.threads);
  }

  Result<engine::RunReport> report = [&]() -> Result<engine::RunReport> {
    if (dyn == nullptr) return engine::RunEmbedding(g, cli.graph, options, ctx);
    const Status st = dyn->Train(ctx);
    if (!st.ok()) return st;
    return dyn->train_report();
  }();
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n", report.status().ToString().c_str());
    if (ckpt_store != nullptr && !cli.ckpt_path.empty() &&
        ckpt_store->entry_count() > 0) {
      // Persist what the run checkpointed before failing, so a follow-up
      // --restore-from resumes instead of starting over.
      const Status st = ckpt_store->SaveToFile(cli.ckpt_path);
      if (st.ok()) {
        std::printf("checkpoint image written to %s (%llu entries)\n",
                    cli.ckpt_path.c_str(),
                    static_cast<unsigned long long>(ckpt_store->entry_count()));
      } else {
        std::fprintf(stderr, "failed to save checkpoint: %s\n",
                     st.ToString().c_str());
      }
    }
    if (!cli.trace_json.empty()) {
      // Emit the failed cell so downstream tooling still sees the run.
      const engine::RunReport failed =
          engine::FailedReport(options.system, cli.graph, report.status());
      std::ofstream f(cli.trace_json);
      f << engine::ReportToJson(failed) << "\n";
    }
    return 1;
  }
  const engine::RunReport& r = report.value();
  std::printf("system %s on %s memory profiles:\n", r.system.c_str(),
              cli.cxl ? "CXL" : "DRAM+PM");
  std::printf("  read      %s\n", HumanSeconds(r.read_seconds).c_str());
  std::printf("  factorize %s\n", HumanSeconds(r.factorize_seconds).c_str());
  std::printf("  propagate %s\n", HumanSeconds(r.propagate_seconds).c_str());
  std::printf("  total     %s (simulated)\n", HumanSeconds(r.total_seconds).c_str());
  std::printf("  remote DRAM/PM traffic: %.1f%%\n", r.remote_fraction * 100.0);
  if (r.faults_enabled) {
    std::printf("  faults    %s\n",
                memsim::FaultCountersSummary(r.faults).c_str());
  }
  if (r.ckpt_seconds > 0.0 || r.recovery_seconds > 0.0) {
    std::printf("  ckpt      %s written, %s recovering\n",
                HumanSeconds(r.ckpt_seconds).c_str(),
                HumanSeconds(r.recovery_seconds).c_str());
  }
  if (r.link_auc.has_value()) std::printf("  link AUC  %.3f\n", *r.link_auc);

  engine::RunReport traced = r;
  if (dyn != nullptr) {
    for (size_t i = 0; i < mutations.size(); ++i) {
      dyn->Log(static_cast<int>(i), mutations[i]);
    }
    auto refreshed = dyn->Refresh(ctx);
    if (!refreshed.ok()) {
      std::fprintf(stderr, "refresh failed: %s\n",
                   refreshed.status().ToString().c_str());
      return 1;
    }
    const engine::RefreshReport& rr = refreshed.value();
    std::printf("dynamic update (%s): %zu mutations, epoch %llu\n",
                cli.mutations.c_str(), mutations.size(),
                static_cast<unsigned long long>(rr.epoch));
    std::printf("  applied/rejected  %zu / %zu\n", rr.mutations_applied,
                rr.mutations_rejected);
    std::printf("  touched nodes     %zu\n", rr.touched_nodes);
    std::printf("  affected rows     %zu (%.2f%% of |V|)\n", rr.affected_rows,
                g.num_nodes() > 0
                    ? 100.0 * static_cast<double>(rr.affected_rows) / g.num_nodes()
                    : 0.0);
    std::printf("  csdb rows         %zu re-gathered, %zu reused\n",
                rr.csdb_touched_rows, rr.csdb_reused_rows);
    std::printf("  plan slots        %zu invalidated/rebound\n",
                rr.plan_slots_affected);
    std::printf("  sync/delta/refresh  %s / %s / %s (simulated)\n",
                HumanSeconds(rr.sync_seconds).c_str(),
                HumanSeconds(rr.delta_seconds).c_str(),
                HumanSeconds(rr.refresh_seconds).c_str());
    if (rr.total_seconds > 0.0 && r.total_seconds > 0.0) {
      std::printf("  update total      %s vs full retrain %s (%.1fx)\n",
                  HumanSeconds(rr.total_seconds).c_str(),
                  HumanSeconds(r.total_seconds).c_str(),
                  r.total_seconds / rr.total_seconds);
    }
    // Surface the refresh phases (dynamic.refresh, serve.* if any) in the
    // trace JSON alongside the training run's phases.
    for (exec::PhaseRecord& p : trace.TakeRecords()) {
      if (p.name.rfind("dynamic.", 0) == 0) traced.phases.push_back(std::move(p));
    }
  }

  if (!cli.trace_json.empty()) {
    std::ofstream f(cli.trace_json);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", cli.trace_json.c_str());
      return 1;
    }
    f << engine::ReportToJson(traced) << "\n";
    std::printf("trace written to %s (%zu phases)\n", cli.trace_json.c_str(),
                traced.phases.size());
  }

  const linalg::DenseMatrix& out_embedding =
      dyn != nullptr ? dyn->embedding() : r.embedding;
  if (!cli.out.empty() && out_embedding.rows() > 0) {
    const bool tsv = cli.out.size() > 4 &&
                     cli.out.compare(cli.out.size() - 4, 4, ".tsv") == 0;
    const Status st = tsv ? embed::SaveEmbeddingTsv(out_embedding, cli.out)
                          : embed::SaveEmbeddingBinary(out_embedding, cli.out);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to save embedding: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("embedding written to %s (%zu x %zu)\n", cli.out.c_str(),
                out_embedding.rows(), out_embedding.cols());
  }
  if (ckpt_store != nullptr && !cli.ckpt_path.empty()) {
    const Status st = ckpt_store->SaveToFile(cli.ckpt_path);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to save checkpoint: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("checkpoint image written to %s (%llu entries)\n",
                cli.ckpt_path.c_str(),
                static_cast<unsigned long long>(ckpt_store->entry_count()));
  }
  return 0;
}
