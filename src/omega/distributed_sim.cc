#include "omega/distributed_sim.h"

#include <algorithm>

#include "durable/shared_log.h"

namespace omega::engine {

namespace {

using memsim::MemOp;
using memsim::Pattern;
using memsim::Placement;
using memsim::Tier;

// Per-machine phase time for memory traffic split evenly over the machine's
// threads (every machine is identical, so one machine's time is the phase).
double PhaseSeconds(memsim::MemorySystem* ms, Placement p, MemOp op, Pattern pat,
                    double total_bytes, double total_accesses, int threads) {
  const size_t per_thread_bytes = static_cast<size_t>(total_bytes / threads);
  const size_t per_thread_accesses =
      static_cast<size_t>(std::max(1.0, total_accesses / threads));
  return ms->AccessSeconds(p, 0, op, pat, per_thread_bytes, per_thread_accesses,
                           threads);
}

// Network phase under fault injection: the per-machine traffic is charged in
// `slices` independent slices so remote operations can time out individually.
// A timed-out (or corrupted) read slice waits out the timeout and then
// retries against the machine's local replica in DRAM; a faulted write
// (gradient/embedding sync) slice is resent over the interconnect. Both paths
// always recover — the faults cost time, never the run. With faults disabled
// this reduces to the exact single bulk PhaseSeconds charge.
double NetPhaseSeconds(memsim::MemorySystem* ms, Placement net,
                       Placement local_replica, MemOp op, Pattern pat,
                       double total_bytes, double total_accesses, int threads,
                       int slices, uint64_t* site) {
  if (!ms->faults_enabled()) {
    return PhaseSeconds(ms, net, op, pat, total_bytes, total_accesses, threads);
  }
  memsim::FaultInjector& faults = ms->faults();
  slices = std::max(1, slices);
  double seconds = 0.0;
  for (int i = 0; i < slices; ++i) {
    const size_t slice_bytes =
        static_cast<size_t>(total_bytes / threads / slices);
    const size_t slice_accesses = static_cast<size_t>(
        std::max(1.0, total_accesses / threads / slices));
    const memsim::MemorySystem::FaultDraw draw =
        ms->TryAccessSeconds(net, 0, op, pat, slice_bytes, slice_accesses,
                             threads, memsim::kFaultStreamDistNet, (*site)++, 0);
    seconds += draw.seconds;
    if (draw.kind == memsim::FaultKind::kTimeout ||
        draw.kind == memsim::FaultKind::kMediaError) {
      faults.CountRetried();
      if (op == MemOp::kRead) {
        seconds += ms->AccessSeconds(local_replica, 0, op, pat, slice_bytes,
                                     slice_accesses, threads);
      } else {
        seconds += ms->AccessSeconds(net, 0, op, pat, slice_bytes,
                                     slice_accesses, threads);
      }
    }
  }
  return seconds;
}

// Durable round-structured sync through the replicated shared log (see
// DistParams::checkpoint_every_rounds). Machines run in parallel: a round
// costs the slowest machine's append chain, a recovery/checkpoint event the
// slowest machine's charge; the per-machine charges all land in the traffic
// counters.
struct DurableSyncOutcome {
  double sync_seconds = 0.0;      ///< shared-log append rounds
  double ckpt_seconds = 0.0;      ///< scheduled cadence checkpoints
  double recovery_seconds = 0.0;  ///< machine-loss restores (incl. re-ckpt)
  uint64_t ckpt_writes = 0;
  uint64_t ckpt_bytes = 0;
  uint64_t recoveries = 0;
};

Result<DurableSyncOutcome> DurableRoundSync(memsim::MemorySystem* ms,
                                            const DistParams& params,
                                            int rounds,
                                            uint64_t round_bytes_per_machine,
                                            size_t state_bytes_per_machine) {
  DurableSyncOutcome out;
  durable::SharedLogOptions log_opts;
  log_opts.replicas = params.log_replicas;
  log_opts.quorum = params.log_quorum;
  log_opts.threads = 1;  // one machine's NIC per append
  durable::ReplicatedLog log(ms, log_opts);
  const Placement pm{Tier::kPm, Placement::kInterleaved};
  const int threads = std::max(1, params.threads_per_machine);

  // One machine persisting its partition state: a PM stream ordered by the
  // log-writer's persist barriers (payload, barrier, header, barrier).
  auto ckpt_write_seconds = [&]() {
    double s = ms->AccessSeconds(pm, 0, MemOp::kWrite, Pattern::kSequential,
                                 state_bytes_per_machine / threads, 1, threads);
    s += ms->PersistBarrierSeconds(Tier::kPm);
    s += ms->PersistBarrierSeconds(Tier::kPm);
    return s;
  };

  for (int r = 0; r < rounds; ++r) {
    // Every machine's round batch is sequenced and replicated; the round
    // completes when the slowest append does. Quorum loss fails the run.
    double round_seconds = 0.0;
    for (int m = 0; m < params.machines; ++m) {
      OMEGA_ASSIGN_OR_RETURN(durable::ReplicatedLog::AppendResult res,
                             log.Append(m, round_bytes_per_machine));
      round_seconds = std::max(round_seconds, res.seconds);
    }
    out.sync_seconds += round_seconds;

    // Machine loss: the killed machine restores its PM checkpoint and
    // replays the shared log past its watermark — recovery time grows with
    // the records accumulated since its last checkpoint. It re-checkpoints
    // immediately so a repeat kill replays only newer records. The cluster
    // stalls on the slowest recovery.
    double round_recovery = 0.0;
    for (int m = 0; m < params.machines; ++m) {
      if (!ms->faults().DrawMachineLoss(m, static_cast<uint64_t>(r))) continue;
      double seconds =
          ms->AccessSeconds(pm, 0, MemOp::kRead, Pattern::kSequential,
                            state_bytes_per_machine / threads, 1, threads);
      seconds += log.Replay(m, log.Tail()).seconds;
      seconds += ckpt_write_seconds();
      log.AdvanceCheckpoint(m, log.Tail());
      out.ckpt_writes += 1;
      out.ckpt_bytes += state_bytes_per_machine;
      ms->faults().CountRecovered();
      ++out.recoveries;
      round_recovery = std::max(round_recovery, seconds);
    }
    out.recovery_seconds += round_recovery;

    // Scheduled cadence: every machine persists its state; its log coverage
    // advances to the tail free of charge (those records were applied live).
    if ((r + 1) % params.checkpoint_every_rounds == 0) {
      double round_ckpt = 0.0;
      for (int m = 0; m < params.machines; ++m) {
        round_ckpt = std::max(round_ckpt, ckpt_write_seconds());
        log.AdvanceCheckpoint(m, log.Tail());
        out.ckpt_writes += 1;
        out.ckpt_bytes += state_bytes_per_machine;
      }
      out.ckpt_seconds += round_ckpt;
    }
  }
  return out;
}

}  // namespace

Result<RunReport> RunDistributedFamily(const graph::Graph& g,
                                       const std::string& dataset,
                                       const EngineOptions& options,
                                       const exec::Context& outer_ctx,
                                       const DistParams& params) {
  // ProneRun's prologue and report tail; no ProNE stage or dense phase runs.
  internal::ProneRun run(dataset, options, outer_ctx);
  const exec::Context& ctx = run.ctx();
  memsim::MemorySystem* ms = ctx.ms();
  RunReport& report = run.report();
  uint64_t net_fault_site = 0;  // fault-site cursor across the NET phases

  const double n = g.num_nodes();
  const double arcs = g.num_arcs();
  const double d = options.prone.dim;
  const int machines = params.machines;
  const int threads = params.threads_per_machine;

  const Placement dram{Tier::kDram, Placement::kInterleaved};
  const Placement net{Tier::kNetwork, 0};
  const Placement ssd{Tier::kSsd, 0};

  // Sync phase: the legacy bulk charge, or — when checkpoint_every_rounds is
  // set — the durable shared-log rounds with PM checkpoints and machine-loss
  // recovery. The "sync" span carries the append seconds; the checkpoint and
  // recovery times land in sibling "ckpt.write"/"recovery" records (their
  // traffic stays inside the span's delta, their seconds partition the run's
  // total alongside it).
  auto sync_phase = [&](double rounds_d, double sync_bytes) -> Result<double> {
    exec::PhaseSpan sync_span(ctx, "sync");
    double comm_seconds = 0.0;
    if (params.checkpoint_every_rounds > 0) {
      const int rounds = std::max(1, static_cast<int>(rounds_d));
      const uint64_t round_bytes =
          static_cast<uint64_t>(sync_bytes / rounds / std::max(1, machines));
      const size_t state_bytes =
          static_cast<size_t>((n / std::max(1, machines)) * d * 4);
      OMEGA_ASSIGN_OR_RETURN(
          const DurableSyncOutcome out,
          DurableRoundSync(ms, params, rounds, round_bytes, state_bytes));
      comm_seconds = out.sync_seconds;
      report.ckpt_seconds += out.ckpt_seconds;
      report.recovery_seconds += out.recovery_seconds;
      if (out.ckpt_writes > 0) {
        exec::PhaseRecord rec;
        rec.name = "ckpt.write";
        rec.sim_seconds = out.ckpt_seconds;
        rec.ckpt_entries = out.ckpt_writes;
        rec.ckpt_bytes = out.ckpt_bytes;
        rec.persist_barriers = 2 * out.ckpt_writes;
        ctx.trace()->Record(std::move(rec));
      }
      if (out.recoveries > 0) {
        exec::PhaseRecord rec;
        rec.name = "recovery";
        rec.sim_seconds = out.recovery_seconds;
        ctx.trace()->Record(std::move(rec));
      }
    } else {
      comm_seconds = NetPhaseSeconds(ms, net, dram, MemOp::kWrite,
                                     Pattern::kSequential, sync_bytes, 1,
                                     std::max(1, machines),
                                     params.net_fault_slices, &net_fault_site);
    }
    sync_span.AddSimSeconds(comm_seconds);
    return comm_seconds;
  };

  // Every machine loads its graph partition from disk.
  {
    exec::PhaseSpan read_span(ctx, "read");
    report.read_seconds = PhaseSeconds(ms, ssd, MemOp::kRead, Pattern::kSequential,
                                       arcs * 16 / machines, 1, threads);
    read_span.AddSimSeconds(report.read_seconds);
  }

  if (options.system == SystemKind::kDistGer) {
    // Walk generation: each step issues a handful of random adjacency probes
    // (alias table, degree lookup, neighbor fetch, corpus buffering).
    const double steps =
        n * params.ger_walks_per_node * params.ger_walk_length / machines;
    const double walk_touches = steps * params.ger_walk_touches_per_step;
    double walk_seconds = 0.0;
    {
      exec::PhaseSpan walk_span(ctx, "walks");
      walk_seconds = PhaseSeconds(ms, dram, MemOp::kRead, Pattern::kRandom,
                                  walk_touches * 64, walk_touches, threads);
      walk_span.AddSimSeconds(walk_seconds);
    }
    // Distributed SGNS: per step, `window` positive updates each touching two
    // embedding rows (read + write of d floats) — this traffic dominates.
    const double updates = steps * params.ger_window * 2.0;
    const double train_traffic = updates * d * 4 * 2;  // read + write
    double train_seconds = 0.0;
    {
      exec::PhaseSpan train_span(ctx, "train");
      train_seconds = PhaseSeconds(ms, dram, MemOp::kRead, Pattern::kRandom,
                                   train_traffic / 2, updates, threads);
      train_seconds += PhaseSeconds(ms, dram, MemOp::kWrite, Pattern::kRandom,
                                    train_traffic / 2, updates, threads);
      train_seconds +=
          ms->cost_model().ComputeSeconds(static_cast<size_t>(updates * d * 4)) /
          threads;
      train_span.AddSimSeconds(train_seconds);
    }
    // Embedding synchronization between machines (information-oriented walks
    // keep this small — DistGER's advantage).
    const double sync_bytes = params.ger_sync_rounds * (n / machines) * d * 4;
    OMEGA_ASSIGN_OR_RETURN(const double comm_seconds,
                           sync_phase(params.ger_sync_rounds, sync_bytes));
    report.factorize_seconds = walk_seconds;         // corpus generation
    report.propagate_seconds = train_seconds + comm_seconds;
  } else {
    // DistDGL: mini-batch sampling dominates (~80% of runtime per the paper).
    const double samples = n * params.dgl_fanout * params.dgl_epochs / machines;
    const double local = samples * (1.0 - params.dgl_remote_sample_fraction);
    const double remote = samples * params.dgl_remote_sample_fraction;
    double sample_seconds = 0.0;
    {
      exec::PhaseSpan sample_span(ctx, "sampling");
      sample_seconds = PhaseSeconds(ms, dram, MemOp::kRead, Pattern::kRandom,
                                    local * 64, local, threads);
      // Remote samples are small messages over the interconnect; timed-out
      // requests fall back to the local replica of the remote store.
      sample_seconds += NetPhaseSeconds(ms, net, dram, MemOp::kRead,
                                        Pattern::kRandom, remote * 256, remote,
                                        threads, params.net_fault_slices,
                                        &net_fault_site);
      sample_span.AddSimSeconds(sample_seconds);
    }
    // Feature gathering (one d-float row per sample) + GNN compute.
    double gather_seconds = 0.0;
    double train_seconds = 0.0;
    {
      exec::PhaseSpan train_span(ctx, "train");
      gather_seconds = PhaseSeconds(ms, dram, MemOp::kRead, Pattern::kRandom,
                                    samples * d * 4, samples, threads);
      train_seconds =
          ms->cost_model().ComputeSeconds(
              static_cast<size_t>(samples * params.dgl_train_ops_per_sample)) /
          threads;
      train_span.AddSimSeconds(gather_seconds + train_seconds);
    }
    // Gradient synchronization per mini-batch round.
    const double sync_bytes = params.dgl_sync_rounds * (n / machines) * d * 4;
    OMEGA_ASSIGN_OR_RETURN(const double comm_seconds,
                           sync_phase(params.dgl_sync_rounds, sync_bytes));
    report.factorize_seconds = sample_seconds;       // sampling phase
    report.propagate_seconds = gather_seconds + train_seconds + comm_seconds;
  }

  report.embed_seconds = report.factorize_seconds + report.propagate_seconds;
  // remote_fraction stays 0: the machines' traffic is not NUMA traffic.
  return run.TakeReport();
}

}  // namespace omega::engine
