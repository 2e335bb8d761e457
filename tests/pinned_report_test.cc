// Pinned end-to-end reports. Every fig12 system, the kOmega feature, fault
// and durability variants, the DistGER and DistDGL analogues (bulk and
// shared-log sync), and one DynamicEmbedder refresh per OMeGa-family
// system run on a small RMAT graph at 2 threads; OMeGa, Ginex, MariusGNN and
// one OMeGa refresh also run at 3 threads on 2 sockets and at 5 threads on 4. Each pin records
// total_seconds and every phase's (name, sim_seconds) as hex floats plus the
// embedding MD5, so an engine change that moves one simulated bit, drops an
// aux record or reorders a phase fails here with a line-level diff.
//
// The pins hold only while simulated output is meant to stay bit-identical;
// a change that deliberately re-prices a phase re-records them and says so.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/md5.h"
#include "durable/checkpoint.h"
#include "graph/mutable_graph.h"
#include "graph/rmat.h"
#include "memsim/fault.h"
#include "omega/distributed_sim.h"
#include "omega/engine.h"
#include "omega/incremental.h"

namespace omega::engine {
namespace {

constexpr int kThreads = 2;

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Md5Of(const linalg::DenseMatrix& m) {
  return Md5Hex(m.data(), m.bytes());
}

// Skips "plan.build": whether stage 2 rebuilds its plan depends on whether
// the allocator hands the propagation matrix the freed stage-1 matrix's
// address (plans are keyed on structure, and the two share one pattern). The
// record is aux and charges nothing, so the pin loses no simulated time.
std::string Digest(const RunReport& r) {
  std::string s = "total " + Hex(r.total_seconds) + "\n";
  for (const exec::PhaseRecord& p : r.phases) {
    if (p.name == "plan.build") continue;
    s += p.name + " " + Hex(p.sim_seconds) + "\n";
  }
  return s + "embedding " + Md5Of(r.embedding) + "\n";
}

graph::Graph PinGraph() {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 6000;
  return graph::GenerateRmat(params).value();
}

EngineOptions PinOptions(SystemKind system) {
  EngineOptions opts;
  opts.system = system;
  opts.num_threads = kThreads;
  opts.prone.dim = 8;
  opts.prone.oversample = 4;
  opts.prone.chebyshev_order = 4;
  return opts;
}

// A 2-socket machine whose DRAM window is smaller than the pinned graph's
// dense working set, so kOmega stages it through ASL.
std::unique_ptr<memsim::MemorySystem> SmallDramMachine() {
  memsim::TopologyConfig topo;
  topo.dram_bytes_per_socket = 64ULL << 10;
  return std::make_unique<memsim::MemorySystem>(topo, memsim::DefaultProfiles());
}

// A machine with `sockets` sockets and the default per-socket devices.
std::unique_ptr<memsim::MemorySystem> SocketMachine(int sockets) {
  memsim::TopologyConfig topo;
  topo.num_sockets = sockets;
  return std::make_unique<memsim::MemorySystem>(topo, memsim::DefaultProfiles());
}

Result<RunReport> RunOn(memsim::MemorySystem* ms, const graph::Graph& g,
                        const EngineOptions& opts) {
  ThreadPool pool(opts.num_threads);
  return RunEmbedding(g, "pin", opts,
                      exec::Context(ms, &pool, opts.num_threads));
}

// Crashes a checkpointing run at `site`, then restores and finishes it.
Result<RunReport> CrashAndRestore(const graph::Graph& g, const std::string& site) {
  auto ms = memsim::MemorySystem::CreateDefault();
  durable::CheckpointStore store(ms.get(), durable::CheckpointOptions{});
  EngineOptions crash = PinOptions(SystemKind::kOmega);
  crash.durability.store = &store;
  crash.durability.checkpoint_every = 2;
  crash.durability.crash_after_phase = site;
  auto killed = RunOn(ms.get(), g, crash);
  if (killed.ok() || !durable::IsKilledError(killed.status())) {
    return Status::Internal("kill site " + site + " never fired");
  }
  EngineOptions resume = PinOptions(SystemKind::kOmega);
  resume.durability.store = &store;
  resume.durability.checkpoint_every = 2;
  resume.durability.restore = true;
  return RunOn(ms.get(), g, resume);
}

struct RunCase {
  const char* name;
  std::function<Result<RunReport>(const graph::Graph&)> run;
};

std::vector<RunCase> RunCases() {
  auto plain = [](SystemKind system) {
    return [system](const graph::Graph& g) {
      auto ms = memsim::MemorySystem::CreateDefault();
      return RunOn(ms.get(), g, PinOptions(system));
    };
  };
  auto omega_with = [](std::function<void(EngineOptions*)> edit) {
    return [edit](const graph::Graph& g) {
      auto ms = memsim::MemorySystem::CreateDefault();
      EngineOptions opts = PinOptions(SystemKind::kOmega);
      edit(&opts);
      return RunOn(ms.get(), g, opts);
    };
  };
  auto on_layout = [](SystemKind system, int threads, int sockets) {
    return [system, threads, sockets](const graph::Graph& g) {
      auto ms = SocketMachine(sockets);
      EngineOptions opts = PinOptions(system);
      opts.num_threads = threads;
      return RunOn(ms.get(), g, opts);
    };
  };
  // The durable variant syncs through the shared log with a checkpoint every
  // 2 rounds, and machine 0 is lost after round 1, so the pin also covers
  // the log replay and the recovery record.
  auto durable_dist = [](SystemKind system) {
    return [system](const graph::Graph& g) {
      auto ms = memsim::MemorySystem::CreateDefault();
      memsim::FaultPlan plan;
      plan.enabled = true;
      plan.kills = {{0, 1}};
      ms->SetFaultPlan(plan);
      DistParams params;
      params.checkpoint_every_rounds = 2;
      ThreadPool pool(kThreads);
      return RunDistributedFamily(g, "pin", PinOptions(system),
                                  exec::Context(ms.get(), &pool, kThreads),
                                  params);
    };
  };
  return {
      {"omega", plain(SystemKind::kOmega)},
      {"omega-dram", plain(SystemKind::kOmegaDram)},
      {"omega-pm", plain(SystemKind::kOmegaPm)},
      {"prone-dram", plain(SystemKind::kProneDram)},
      {"prone-hm", plain(SystemKind::kProneHm)},
      {"ginex", plain(SystemKind::kGinex)},
      {"marius", plain(SystemKind::kMariusGnn)},
      {"omega.async",
       omega_with([](EngineOptions* o) { o->features.async_staging = true; })},
      {"omega.pim-auto", omega_with([](EngineOptions* o) {
         o->features.pim_banks = 128;
         o->features.pim_placement = sched::PimPolicy::kAuto;
       })},
      {"omega.wofp-off",
       omega_with([](EngineOptions* o) { o->features.use_wofp = false; })},
      {"omega.nadp-off",
       omega_with([](EngineOptions* o) { o->features.use_nadp = false; })},
      {"omega.streamed",
       [](const graph::Graph& g) {
         auto ms = SmallDramMachine();
         return RunOn(ms.get(), g, PinOptions(SystemKind::kOmega));
       }},
      {"omega.streamed.asl-fixed-2",
       [](const graph::Graph& g) {
         auto ms = SmallDramMachine();
         EngineOptions opts = PinOptions(SystemKind::kOmega);
         opts.features.asl_fixed_partitions = 2;
         return RunOn(ms.get(), g, opts);
       }},
      {"omega.async.asl-fixed-2", omega_with([](EngineOptions* o) {
         o->features.async_staging = true;
         o->features.asl_fixed_partitions = 2;
       })},
      {"omega.pm-stall",
       [](const graph::Graph& g) {
         auto ms = memsim::MemorySystem::CreateDefault();
         ms->SetFaultPlan(memsim::FaultPlanFromProfile("pm-stall").value());
         return RunOn(ms.get(), g, PinOptions(SystemKind::kOmega));
       }},
      {"omega.ckpt-every-2",
       [](const graph::Graph& g) {
         auto ms = memsim::MemorySystem::CreateDefault();
         durable::CheckpointStore store(ms.get(), durable::CheckpointOptions{});
         EngineOptions opts = PinOptions(SystemKind::kOmega);
         opts.durability.store = &store;
         opts.durability.checkpoint_every = 2;
         return RunOn(ms.get(), g, opts);
       }},
      {"omega.restore-factorize",
       [](const graph::Graph& g) { return CrashAndRestore(g, "factorize"); }},
      {"omega.restore-term.3",
       [](const graph::Graph& g) { return CrashAndRestore(g, "term.3"); }},
      // Uneven worker layouts: 3 threads on 2 sockets, and 5 threads on 4
      // sockets, whose block layout leaves socket groups of 2/2/1/0.
      {"omega@3t2s", on_layout(SystemKind::kOmega, 3, 2)},
      {"omega@5t4s", on_layout(SystemKind::kOmega, 5, 4)},
      {"ginex@3t2s", on_layout(SystemKind::kGinex, 3, 2)},
      {"ginex@5t4s", on_layout(SystemKind::kGinex, 5, 4)},
      {"marius@3t2s", on_layout(SystemKind::kMariusGnn, 3, 2)},
      {"marius@5t4s", on_layout(SystemKind::kMariusGnn, 5, 4)},
      {"distger", plain(SystemKind::kDistGer)},
      {"distdgl", plain(SystemKind::kDistDgl)},
      {"distger.ckpt-every-2", durable_dist(SystemKind::kDistGer)},
      {"distdgl.ckpt-every-2", durable_dist(SystemKind::kDistDgl)},
  };
}

struct Pin {
  const char* name;
  const char* digest;
};

// clang-format off
const Pin kRunPins[] = {
    {"omega",
     "total 0x1.39a2cc5aea79cp-8\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "factorize.spmm.0 0x1.72943a585ebep-11\n"
     "factorize.spmm.1 0x1.72943a585ebep-11\n"
     "factorize.spmm.2 0x1.72943a585ebep-11\n"
     "factorize.spmm.3 0x1.72943a585ebep-11\n"
     "propagate.spmm.0 0x1.124bf0e418187p-11\n"
     "propagate.spmm.1 0x1.124bf0e418187p-11\n"
     "propagate.spmm.2 0x1.124bf0e418187p-11\n"
     "wofp_build 0x1.1e0fc8f065cf4p-10\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.0779050b6fe9cp-12\n"
     "propagate.dense 0x1.fd8b47c2f4a37p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega-dram",
     "total 0x1.28c422f031fddp-8\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "factorize.spmm.0 0x1.61b849086b34cp-11\n"
     "factorize.spmm.1 0x1.61b849086b34cp-11\n"
     "factorize.spmm.2 0x1.61b849086b34cp-11\n"
     "factorize.spmm.3 0x1.61b849086b34cp-11\n"
     "propagate.spmm.0 0x1.070ea55975bcfp-11\n"
     "propagate.spmm.1 0x1.070ea55975bcfp-11\n"
     "propagate.spmm.2 0x1.070ea55975bcfp-11\n"
     "wofp_build 0x1.1e0fc8f065cf4p-10\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.bdd14e95230d2p-13\n"
     "propagate.dense 0x1.2533fe68fd3d2p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega-pm",
     "total 0x1.f410fac229213p-7\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "factorize.spmm.0 0x1.37d5f5460eaccp-9\n"
     "factorize.spmm.1 0x1.37d5f5460eaccp-9\n"
     "factorize.spmm.2 0x1.37d5f5460eaccp-9\n"
     "factorize.spmm.3 0x1.37d5f5460eaccp-9\n"
     "propagate.spmm.0 0x1.bf4f8947c6331p-10\n"
     "propagate.spmm.1 0x1.bf4f8947c6331p-10\n"
     "propagate.spmm.2 0x1.bf4f8947c6331p-10\n"
     "wofp_build 0x1.4b0fb79cd3a4ap-9\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.e10a1c26d7a51p-12\n"
     "propagate.dense 0x1.780d11bf679d4p-14\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"prone-dram",
     "total 0x1.dd99bfb0f5f7p-7\n"
     "read 0x1.9c48bf42aa46dp-13\n"
     "factorize.spmm.0 0x1.34b2c25c4cc2ep-9\n"
     "factorize.spmm.1 0x1.34b2c25c4cc2ep-9\n"
     "factorize.spmm.2 0x1.34b2c25c4cc2ep-9\n"
     "factorize.spmm.3 0x1.34b2c25c4cc2ep-9\n"
     "propagate.spmm.0 0x1.9b9902fd02aecp-10\n"
     "propagate.spmm.1 0x1.9b9902fd02aecp-10\n"
     "propagate.spmm.2 0x1.9b9902fd02aecp-10\n"
     "factorize.dense 0x1.bdd14e95230d2p-13\n"
     "propagate.dense 0x1.2533fe68fd3d2p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"prone-hm",
     "total 0x1.6a08a7febaef7p-5\n"
     "read 0x1.9c48bf42aa46dp-13\n"
     "factorize.spmm.0 0x1.dddc565314fb9p-8\n"
     "factorize.spmm.1 0x1.dddc565314fb9p-8\n"
     "factorize.spmm.2 0x1.dddc565314fb9p-8\n"
     "factorize.spmm.3 0x1.dddc565314fb9p-8\n"
     "propagate.spmm.0 0x1.3e92e4bf510d6p-8\n"
     "propagate.spmm.1 0x1.3e92e4bf510d6p-8\n"
     "propagate.spmm.2 0x1.3e92e4bf510d6p-8\n"
     "factorize.dense 0x1.bdd14e95230d2p-13\n"
     "propagate.dense 0x1.2533fe68fd3d2p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"ginex",
     "total 0x1.99082c888f35fp-3\n"
     "read 0x1.9c48bf42aa46dp-13\n"
     "factorize.spmm.0 0x1.105169d1655c7p-5\n"
     "factorize.spmm.1 0x1.105169d1655c7p-5\n"
     "factorize.spmm.2 0x1.105169d1655c7p-5\n"
     "factorize.spmm.3 0x1.105169d1655c7p-5\n"
     "propagate.spmm.0 0x1.6acc98d39061p-6\n"
     "propagate.spmm.1 0x1.6acc98d39061p-6\n"
     "propagate.spmm.2 0x1.6acc98d39061p-6\n"
     "factorize.dense 0x1.b7600a1e147cbp-14\n"
     "propagate.dense 0x1.8166d7e900dedp-16\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"marius",
     "total 0x1.ae1d052f157c6p-4\n"
     "read 0x1.9c48bf42aa46dp-13\n"
     "factorize.spmm.0 0x1.1ddb3a53f5679p-6\n"
     "factorize.spmm.1 0x1.1ddb3a53f5679p-6\n"
     "factorize.spmm.2 0x1.1ddb3a53f5679p-6\n"
     "factorize.spmm.3 0x1.1ddb3a53f5679p-6\n"
     "propagate.spmm.0 0x1.7d249573ec716p-7\n"
     "propagate.spmm.1 0x1.7d249573ec716p-7\n"
     "propagate.spmm.2 0x1.7d249573ec716p-7\n"
     "factorize.dense 0x1.b7600a1e147cbp-14\n"
     "propagate.dense 0x1.8166d7e900dedp-16\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega.async",
     "total 0x1.3733da436decfp-8\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.0 0x1.74f7e82210739p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.1 0x1.74f7e82210739p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.2 0x1.74f7e82210739p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.3 0x1.74f7e82210739p-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.0 0x1.13e3ba15393c3p-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.1 0x1.13e3ba15393c3p-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.2 0x1.13e3ba15393c3p-11\n"
     "wofp_build 0x1.1e0fc8f065cf4p-10\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.bdd14e95230d2p-13\n"
     "propagate.dense 0x1.2533fe68fd3d2p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega.pim-auto",
     "total 0x1.f9858345178ffp-11\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "factorize.spmm.0 0x1.852f3721c0a02p-14\n"
     "factorize.spmm.1 0x1.852f3721c0a02p-14\n"
     "factorize.spmm.2 0x1.852f3721c0a02p-14\n"
     "factorize.spmm.3 0x1.852f3721c0a02p-14\n"
     "propagate.spmm.0 0x1.1d760271bc88bp-14\n"
     "propagate.spmm.1 0x1.1d760271bc88bp-14\n"
     "propagate.spmm.2 0x1.1d760271bc88bp-14\n"
     "pim.transfer 0x1.1def20ac1468cp-13\n"
     "pim.compute 0x1.b7b280bda203cp-12\n"
     "pim.reduce 0x1.49da7e361ce7cp-16\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.0779050b6fe9cp-12\n"
     "propagate.dense 0x1.fd8b47c2f4a37p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega.wofp-off",
     "total 0x1.5248e41d35dd8p-7\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "factorize.spmm.0 0x1.b20f513cc906ap-10\n"
     "factorize.spmm.1 0x1.b20f513cc906ap-10\n"
     "factorize.spmm.2 0x1.b20f513cc906ap-10\n"
     "factorize.spmm.3 0x1.b20f513cc906ap-10\n"
     "propagate.spmm.0 0x1.215dad85eb83ap-10\n"
     "propagate.spmm.1 0x1.215dad85eb83ap-10\n"
     "propagate.spmm.2 0x1.215dad85eb83ap-10\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.0779050b6fe9cp-12\n"
     "propagate.dense 0x1.fd8b47c2f4a37p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega.nadp-off",
     "total 0x1.65687763de0e6p-7\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "factorize.spmm.0 0x1.c3551fc5ae693p-10\n"
     "factorize.spmm.1 0x1.c3551fc5ae693p-10\n"
     "factorize.spmm.2 0x1.c3551fc5ae693p-10\n"
     "factorize.spmm.3 0x1.c3551fc5ae693p-10\n"
     "propagate.spmm.0 0x1.3d54cd8bcf829p-10\n"
     "propagate.spmm.1 0x1.3d54cd8bcf829p-10\n"
     "propagate.spmm.2 0x1.3d54cd8bcf829p-10\n"
     "wofp_build 0x1.594d1fa87bf71p-10\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.0779050b6fe9cp-12\n"
     "propagate.dense 0x1.fd8b47c2f4a37p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega.streamed",
     "total 0x1.63b2523d88bb5p-8\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.0 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.1 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.2 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.3 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.0 0x1.13e3ba15393c3p-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.1 0x1.13e3ba15393c3p-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.2 0x1.13e3ba15393c3p-11\n"
     "wofp_build 0x1.c18684e77b6a4p-10\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.0779050b6fe9cp-12\n"
     "propagate.dense 0x1.fd8b47c2f4a37p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega.streamed.asl-fixed-2",
     "total 0x1.820c1fc2a691bp-8\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.0 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.1 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.2 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.3 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.0 0x1.64d333783377dp-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.1 0x1.64d333783377dp-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.2 0x1.64d333783377dp-11\n"
     "wofp_build 0x1.1e0fc8f065cf4p-9\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.0779050b6fe9cp-12\n"
     "propagate.dense 0x1.fd8b47c2f4a37p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega.async.asl-fixed-2",
     "total 0x1.7dd26b53e4bcap-8\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.0 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.1 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.2 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.31d6e4d8daca4p-18\n"
     "factorize.spmm.3 0x1.c5816f38c2664p-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.0 0x1.64d333783377dp-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.1 0x1.64d333783377dp-11\n"
     "asl.load 0x1.97c9312123b86p-19\n"
     "propagate.spmm.2 0x1.64d333783377dp-11\n"
     "wofp_build 0x1.1e0fc8f065cf4p-9\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.bdd14e95230d2p-13\n"
     "propagate.dense 0x1.2533fe68fd3d2p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega.pm-stall",
     "total 0x1.3d7b71c9fcc99p-8\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "factorize.spmm.0 0x1.730e6557b5278p-11\n"
     "factorize.spmm.1 0x1.730e6557b5278p-11\n"
     "factorize.spmm.2 0x1.730e6557b5278p-11\n"
     "factorize.spmm.3 0x1.730e6557b5278p-11\n"
     "propagate.spmm.0 0x1.2e341a60a41ep-11\n"
     "propagate.spmm.1 0x1.12c61be36e81fp-11\n"
     "propagate.spmm.2 0x1.12c61be36e81fp-11\n"
     "wofp_build 0x1.1e0fc8f065cf4p-10\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.0779050b6fe9cp-12\n"
     "propagate.dense 0x1.fd8b47c2f4a37p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega.ckpt-every-2",
     "total 0x1.3cc6e853a9219p-8\n"
     "read 0x1.42637e3d4a6c8p-14\n"
     "ckpt.write 0x1.d75f66b1a99f9p-19\n"
     "factorize.spmm.0 0x1.72943a585ebep-11\n"
     "factorize.spmm.1 0x1.72943a585ebep-11\n"
     "factorize.spmm.2 0x1.72943a585ebep-11\n"
     "factorize.spmm.3 0x1.72943a585ebep-11\n"
     "ckpt.write 0x1.5143f5835a732p-17\n"
     "propagate.spmm.0 0x1.124bf0e418187p-11\n"
     "propagate.spmm.1 0x1.124bf0e418187p-11\n"
     "ckpt.write 0x1.841d3f39b5671p-16\n"
     "propagate.spmm.2 0x1.124bf0e418187p-11\n"
     "ckpt.write 0x1.78e1a3da20023p-17\n"
     "wofp_build 0x1.1e0fc8f065cf4p-10\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.0779050b6fe9cp-12\n"
     "propagate.dense 0x1.fd8b47c2f4a37p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega.restore-factorize",
     "total 0x1.3c5b459f095a5p-8\n"
     "ckpt.restore 0x1.dfaccbe06c646p-18\n"
     "propagate.spmm.0 0x1.124bf0e418187p-11\n"
     "propagate.spmm.1 0x1.124bf0e418187p-11\n"
     "ckpt.write 0x1.841d3f39b5671p-16\n"
     "propagate.spmm.2 0x1.124bf0e418187p-11\n"
     "ckpt.write 0x1.78e1a3da20023p-17\n"
     "wofp_build 0x1.ea6433e540d1p-12\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.0779050b6fe9cp-12\n"
     "propagate.dense 0x1.fd8b47c2f4a37p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega.restore-term.3",
     "total 0x1.3c3aafa3c9d49p-8\n"
     "ckpt.restore 0x1.db7276f24ad5ap-16\n"
     "propagate.spmm.0 0x1.124bf0e418187p-11\n"
     "ckpt.write 0x1.78e1a3da20023p-17\n"
     "wofp_build 0x1.46ed77ee2b36p-13\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.0779050b6fe9cp-12\n"
     "propagate.dense 0x1.fd8b47c2f4a37p-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"omega@3t2s",
     "total 0x1.312438862f05ep-8\n"
     "read 0x1.adf078651a804p-15\n"
     "factorize.spmm.0 0x1.72943a585ebdfp-11\n"
     "factorize.spmm.1 0x1.72943a585ebdfp-11\n"
     "factorize.spmm.2 0x1.72943a585ebdfp-11\n"
     "factorize.spmm.3 0x1.72943a585ebdfp-11\n"
     "propagate.spmm.0 0x1.124bf0e418187p-11\n"
     "propagate.spmm.1 0x1.124bf0e418187p-11\n"
     "propagate.spmm.2 0x1.124bf0e418187p-11\n"
     "wofp_build 0x1.1e0fc8f065cf4p-10\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.5f4c06b9ea8dp-13\n"
     "propagate.dense 0x1.53afeeee8a27cp-15\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    // Re-pinned when NaDP's column split began counting only sockets with a
    // worker (socket 3 of 2/2/1/0 has none): every column is now charged,
    // which moves the factorize SpMMs' straggler. The propagate SpMMs'
    // straggler and the embedding are unchanged.
    {"omega@5t4s",
     "total 0x1.b05c3d0cd5228p-9\n"
     "read 0x1.51946607502dfp-15\n"
     "factorize.spmm.0 0x1.12d18502f5867p-11\n"
     "factorize.spmm.1 0x1.12d18502f5867p-11\n"
     "factorize.spmm.2 0x1.12d18502f5867p-11\n"
     "factorize.spmm.3 0x1.12d18502f5867p-11\n"
     "propagate.spmm.0 0x1.648ce2fe8053ep-12\n"
     "propagate.spmm.1 0x1.648ce2fe8053ep-12\n"
     "propagate.spmm.2 0x1.648ce2fe8053ep-12\n"
     "wofp_build 0x1.1e0fc8f065cf4p-10\n"
     "plan.cache 0x0p+0\n"
     "factorize.dense 0x1.d48688537222ep-14\n"
     "propagate.dense 0x1.f5ae87db556fp-16\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"ginex@3t2s",
     "total 0x1.0beb17b54b167p-3\n"
     "read 0x1.12f51256a3df8p-13\n"
     "factorize.spmm.0 0x1.64a23de64de09p-6\n"
     "factorize.spmm.1 0x1.64a23de64de09p-6\n"
     "factorize.spmm.2 0x1.64a23de64de09p-6\n"
     "factorize.spmm.3 0x1.64a23de64de09p-6\n"
     "propagate.spmm.0 0x1.db83239d97cb8p-7\n"
     "propagate.spmm.1 0x1.db83239d97cb8p-7\n"
     "propagate.spmm.2 0x1.db83239d97cb8p-7\n"
     "factorize.dense 0x1.24eab16962fddp-14\n"
     "propagate.dense 0x1.00ef3a9b55e9ep-16\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"ginex@5t4s",
     "total 0x1.4829c4fbf1306p-4\n"
     "read 0x1.a202d9bad9ffdp-14\n"
     "factorize.spmm.0 0x1.b48e0a92f6db2p-7\n"
     "factorize.spmm.1 0x1.b48e0a92f6db2p-7\n"
     "factorize.spmm.2 0x1.b48e0a92f6db2p-7\n"
     "factorize.spmm.3 0x1.b48e0a92f6db2p-7\n"
     "propagate.spmm.0 0x1.2353855ef8b57p-7\n"
     "propagate.spmm.1 0x1.2353855ef8b57p-7\n"
     "propagate.spmm.2 0x1.2353855ef8b57p-7\n"
     "factorize.dense 0x1.828a4c150049bp-15\n"
     "propagate.dense 0x1.5375dce506e97p-17\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"marius@3t2s",
     "total 0x1.196e96aa1573dp-4\n"
     "read 0x1.12f51256a3df8p-13\n"
     "factorize.spmm.0 0x1.7634f85a44442p-7\n"
     "factorize.spmm.1 0x1.7634f85a44442p-7\n"
     "factorize.spmm.2 0x1.7634f85a44442p-7\n"
     "factorize.spmm.3 0x1.7634f85a44442p-7\n"
     "propagate.spmm.0 0x1.f25c77141508fp-8\n"
     "propagate.spmm.1 0x1.f25c77141508fp-8\n"
     "propagate.spmm.2 0x1.f25c77141508fp-8\n"
     "factorize.dense 0x1.24eab16962fddp-14\n"
     "propagate.dense 0x1.00ef3a9b55e9ep-16\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    {"marius@5t4s",
     "total 0x1.59893f6c28b47p-5\n"
     "read 0x1.a202d9bad9ffdp-14\n"
     "factorize.spmm.0 0x1.cb4d6024718d6p-8\n"
     "factorize.spmm.1 0x1.cb4d6024718d6p-8\n"
     "factorize.spmm.2 0x1.cb4d6024718d6p-8\n"
     "factorize.spmm.3 0x1.cb4d6024718d6p-8\n"
     "propagate.spmm.0 0x1.319f354b5280bp-8\n"
     "propagate.spmm.1 0x1.319f354b5280bp-8\n"
     "propagate.spmm.2 0x1.319f354b5280bp-8\n"
     "factorize.dense 0x1.828a4c150049bp-15\n"
     "propagate.dense 0x1.5375dce506e97p-17\n"
     "embedding da5f4a27f40ebd9abfbb2801b80f9c64\n"},
    // The distributed analogues return no embedding (MD5 of zero bytes).
    {"distger",
     "total 0x1.c7c67f22185a4p-9\n"
     "read 0x1.4f8b588e368f1p-17\n"
     "walks 0x1.990b233126378p-11\n"
     "train 0x1.5e6a09bfbc8a2p-9\n"
     "sync 0x1.ca213d840baf8p-17\n"
     "embedding d41d8cd98f00b204e9800998ecf8427e\n"},
    {"distdgl",
     "total 0x1.f0803da5d2c01p-6\n"
     "read 0x1.4f8b588e368f1p-17\n"
     "sampling 0x1.e5617cc1840d2p-6\n"
     "train 0x1.33a6d1633c6b4p-11\n"
     "sync 0x1.5798ee2308c3ap-14\n"
     "embedding d41d8cd98f00b204e9800998ecf8427e\n"},
    {"distger.ckpt-every-2",
     "total 0x1.c9d9360ae53ffp-9\n"
     "read 0x1.4f8b588e368f1p-17\n"
     "walks 0x1.990b233126378p-11\n"
     "train 0x1.5e6a09bfbc8a2p-9\n"
     "ckpt.write 0x1.323acc54b071ep-18\n"
     "recovery 0x1.24091eddf8153p-16\n"
     "sync 0x1.f75104d551d69p-18\n"
     "embedding d41d8cd98f00b204e9800998ecf8427e\n"},
    {"distdgl.ckpt-every-2",
     "total 0x1.f0a13b6dd6f69p-6\n"
     "read 0x1.4f8b588e368f1p-17\n"
     "sampling 0x1.e5617cc1840d8p-6\n"
     "train 0x1.33a6d1633c6b4p-11\n"
     "ckpt.write 0x1.cb58327f08aafp-16\n"
     "recovery 0x1.24091eddf8153p-16\n"
     "sync 0x1.797cc39ffd60ep-15\n"
     "embedding d41d8cd98f00b204e9800998ecf8427e\n"},
};

const Pin kRefreshPins[] = {
    {"OMeGa",
     "sync 0x1.85659af718fep-17\n"
     "delta 0x1.1bb630082a2e8p-13\n"
     "refresh 0x1.7fcdf1cd45586p-10\n"
     "affected_rows 438\n"
     "refreshed_nodes 6a677177003361d2db0d8ee13e679843\n"
     "embedding b95e77ad338a2a628bb602baf9d1c247\n"},
    {"OMeGa-DRAM",
     "sync 0x1.85659af718fep-17\n"
     "delta 0x1.13a8e2c96f29bp-13\n"
     "refresh 0x1.572ba9bc6eab6p-10\n"
     "affected_rows 438\n"
     "refreshed_nodes 6a677177003361d2db0d8ee13e679843\n"
     "embedding b95e77ad338a2a628bb602baf9d1c247\n"},
    {"OMeGa-PM",
     "sync 0x1.85659af718fep-17\n"
     "delta 0x1.1bb630082a2e8p-13\n"
     "refresh 0x1.2a10757fed03ap-8\n"
     "affected_rows 438\n"
     "refreshed_nodes 6a677177003361d2db0d8ee13e679843\n"
     "embedding b95e77ad338a2a628bb602baf9d1c247\n"},
    {"OMeGa@3t2s",
     "sync 0x1.85659af718fep-17\n"
     "delta 0x1.1bb630082a2e8p-13\n"
     "refresh 0x1.7fcdf1cd45586p-10\n"
     "affected_rows 438\n"
     "refreshed_nodes 6a677177003361d2db0d8ee13e679843\n"
     "embedding b95e77ad338a2a628bb602baf9d1c247\n"},
    {"OMeGa@5t4s",
     "sync 0x1.af902f7bb1fecp-17\n"
     "delta 0x1.579b388b0595ap-13\n"
     "refresh 0x1.e559bf820888cp-11\n"
     "affected_rows 438\n"
     "refreshed_nodes 6a677177003361d2db0d8ee13e679843\n"
     "embedding b95e77ad338a2a628bb602baf9d1c247\n"},
};
// clang-format on

std::string ExpectedFor(const Pin* begin, const Pin* end, const std::string& name) {
  for (const Pin* p = begin; p != end; ++p) {
    if (name == p->name) return p->digest;
  }
  return "";
}

TEST(PinnedReportTest, RunReportsMatchPins) {
  const graph::Graph g = PinGraph();
  for (const RunCase& c : RunCases()) {
    SCOPED_TRACE(c.name);
    auto report = c.run(g);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::string actual = Digest(report.value());
    EXPECT_EQ(ExpectedFor(std::begin(kRunPins), std::end(kRunPins), c.name),
              actual)
        << "actual pin " << c.name << ":\n"
        << actual;
  }
}

TEST(PinnedReportTest, RefreshReportsMatchPins) {
  const graph::Graph base = PinGraph();
  const std::vector<graph::Mutation> muts = graph::SyntheticMutations(base, 16, 7);
  struct RefreshCase {
    SystemKind system;
    int threads;
    int sockets;
    std::string name;
  };
  const RefreshCase cases[] = {
      {SystemKind::kOmega, kThreads, 2, SystemName(SystemKind::kOmega)},
      {SystemKind::kOmegaDram, kThreads, 2, SystemName(SystemKind::kOmegaDram)},
      {SystemKind::kOmegaPm, kThreads, 2, SystemName(SystemKind::kOmegaPm)},
      {SystemKind::kOmega, 3, 2, "OMeGa@3t2s"},
      {SystemKind::kOmega, 5, 4, "OMeGa@5t4s"},
  };
  for (const RefreshCase& c : cases) {
    const std::string& name = c.name;
    SCOPED_TRACE(name);
    auto ms = SocketMachine(c.sockets);
    ThreadPool pool(c.threads);
    const exec::Context ctx(ms.get(), &pool, c.threads);
    EngineOptions opts = PinOptions(c.system);
    opts.num_threads = c.threads;
    DynamicEmbedder dyn(base, opts, "pin", c.threads);
    ASSERT_TRUE(dyn.Train(ctx).ok());
    for (size_t i = 0; i < muts.size(); ++i) {
      dyn.Log(static_cast<int>(i), muts[i]);
    }
    auto res = dyn.Refresh(ctx);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const RefreshReport& r = res.value();
    const std::string actual =
        "sync " + Hex(r.sync_seconds) + "\ndelta " + Hex(r.delta_seconds) +
        "\nrefresh " + Hex(r.refresh_seconds) + "\naffected_rows " +
        std::to_string(r.affected_rows) + "\nrefreshed_nodes " +
        Md5Hex(r.refreshed_nodes.data(),
               r.refreshed_nodes.size() * sizeof(graph::NodeId)) +
        "\nembedding " + Md5Of(dyn.embedding()) + "\n";
    EXPECT_EQ(ExpectedFor(std::begin(kRefreshPins), std::end(kRefreshPins), name),
              actual)
        << "actual pin " << name << ":\n"
        << actual;
  }
}

}  // namespace
}  // namespace omega::engine
