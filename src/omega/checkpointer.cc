#include "omega/checkpointer.h"

#include <bit>
#include <utility>

namespace omega::engine {

Checkpointer::Checkpointer(const DurabilityOptions& durability,
                           const exec::Context& ctx, uint64_t num_nodes,
                           const embed::ProneOptions& prone)
    : durability_(durability),
      store_(durability.store),
      ctx_(ctx),
      rows_(num_nodes),
      cols_(prone.dim),
      order_(static_cast<uint64_t>(prone.chebyshev_order)) {}

Status Checkpointer::Restore(double* recovery_seconds) {
  if (store_ == nullptr || !durability_.restore) return Status::OK();
  exec::PhaseSpan span(ctx_, "ckpt.restore");
  durable::CkptCosts costs;
  auto snap = durable::ReadLastSnapshot(store_, &costs);
  span.AddSimSeconds(costs.seconds);
  span.AddCkptCounters(costs.entries, costs.bytes, costs.barriers);
  *recovery_seconds += costs.seconds;
  store_->TruncateToValidPrefix();
  // NotFound: nothing committed survived — run from scratch.
  if (!snap.ok()) return snap.status().IsNotFound() ? Status::OK() : snap.status();
  return Adopt(std::move(snap).value());
}

Status Checkpointer::Adopt(durable::CheckpointSnapshot snap) {
  const std::vector<uint64_t>& words = snap.words;
  if (words.size() < 3) {
    return Status::IOError("checkpoint snapshot missing timing words");
  }
  if (snap.stage == kNone || snap.stage > kEmbedDone) {
    return Status::IOError("checkpoint snapshot has an unknown stage");
  }
  stage_ = static_cast<Stage>(snap.stage);
  // Simulated seconds travel through checkpoint words bit-exactly.
  read_seconds_ = std::bit_cast<double>(words[0]);
  factorize_seconds_ = std::bit_cast<double>(words[1]);
  propagate_seconds_ = std::bit_cast<double>(words[2]);
  // Moves the matrix tagged `tag` into *out; every stage matrix is an
  // n x dim block.
  auto take = [&](const std::string& tag, linalg::DenseMatrix* out) -> Status {
    for (auto& [name, m] : snap.matrices) {
      if (name != tag) continue;
      if (m.rows() != rows_ || m.cols() != cols_) {
        return Status::IOError("checkpoint matrix " + tag + " has the wrong shape");
      }
      *out = std::move(m);
      return Status::OK();
    }
    return Status::IOError("checkpoint snapshot missing the " + tag + " matrix");
  };
  switch (stage_) {
    case kFactorizeDone:
      return take("r0", &resume_r0_);
    case kPropagate:
      if (snap.next_term < 2 || snap.next_term > order_) {
        return Status::IOError("checkpoint snapshot missing recurrence state");
      }
      cheb_resume_.next_term = snap.next_term;
      OMEGA_RETURN_NOT_OK(take("t_prev", &cheb_resume_.t_prev));
      OMEGA_RETURN_NOT_OK(take("t_cur", &cheb_resume_.t_cur));
      OMEGA_RETURN_NOT_OK(take("partial", &cheb_resume_.partial));
      // Stage 1 is skipped; the resumed recurrence reads only the basis'
      // shape, so the accumulator doubles as a stand-in for R.
      resume_r0_ = cheb_resume_.partial;
      return Status::OK();
    case kEmbedDone: {
      OMEGA_RETURN_NOT_OK(take("vectors", &embedding_.vectors));
      if (words.size() < 4 || words[3] != rows_ || words.size() - 4 != rows_) {
        return Status::IOError("checkpoint snapshot missing the permutation");
      }
      std::vector<bool> seen(rows_, false);
      for (size_t i = 4; i < words.size(); ++i) {
        if (words[i] >= rows_ || seen[words[i]]) {
          return Status::IOError("checkpoint permutation repeats or exceeds a row");
        }
        seen[words[i]] = true;
        embedding_.perm.push_back(static_cast<graph::NodeId>(words[i]));
      }
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

Status Checkpointer::Write(const std::string& site, Stage stage,
                           uint64_t next_term, Matrices matrices,
                           std::vector<uint64_t> extra_words) {
  if (store_ == nullptr) return Status::OK();
  durable::CheckpointSnapshot snap;
  snap.stage = stage;
  snap.next_term = next_term;
  snap.matrices = std::move(matrices);
  snap.words = {std::bit_cast<uint64_t>(read_seconds_),
                std::bit_cast<uint64_t>(factorize_seconds_),
                std::bit_cast<uint64_t>(propagate_seconds_)};
  snap.words.insert(snap.words.end(), extra_words.begin(), extra_words.end());
  {
    exec::PhaseSpan span(ctx_, "ckpt.write");
    const bool torn = KillHere(site) && durability_.crash_tear_checkpoint;
    auto costs = torn ? durable::WriteSnapshotTorn(store_, snap)
                      : durable::WriteSnapshot(store_, snap);
    if (!costs.ok()) {
      // The store's IOError is a write whose retries ran out, and the store
      // leaves that final fault to its caller: the run fails on it. (A full
      // device is not a fault; kill sites return below, not here.)
      if (costs.status().IsIOError()) ctx_.ms()->faults().CountSurfaced();
      return costs.status();
    }
    span.AddSimSeconds(costs.value().seconds);
    span.AddCkptCounters(costs.value().entries, costs.value().bytes,
                         costs.value().barriers);
    ckpt_seconds_ += costs.value().seconds;
  }
  return KillHere(site) ? durable::KilledError(site) : Status::OK();
}

void Checkpointer::Wire(embed::ProneOptions* prone) {
  if (store_ == nullptr) return;
  hooks_.after_factorize = [this](const linalg::DenseMatrix& r0) {
    return Write("factorize", kFactorizeDone, 0, {{"r0", r0}});
  };
  hooks_.cheb.after_term = [this](size_t next_term,
                                  const embed::ChebyshevTermState& state) -> Status {
    const uint64_t term = next_term - 1;  // the term that just landed
    const std::string site = "term." + std::to_string(term);
    if (durability_.checkpoint_every > 0 && term % durability_.checkpoint_every == 0) {
      // Only the terms written here are unpacked, each straight into the
      // snapshot (an initializer list would copy it again).
      Matrices matrices;
      matrices.emplace_back("t_prev", state.t_prev());
      matrices.emplace_back("t_cur", state.t_cur());
      matrices.emplace_back("partial", state.partial());
      return Write(site, kPropagate, next_term, std::move(matrices));
    }
    return KillHere(site) ? durable::KilledError(site) : Status::OK();
  };
  if (stage_ == kFactorizeDone || stage_ == kPropagate) hooks_.resume_r0 = &resume_r0_;
  if (stage_ == kPropagate) hooks_.cheb.resume = &cheb_resume_;
  prone->durability = &hooks_;
}

Status Checkpointer::AfterEmbed(const embed::EmbeddingResult& emb) {
  if (store_ == nullptr) return Status::OK();
  std::vector<uint64_t> perm_words{emb.perm.size()};
  perm_words.insert(perm_words.end(), emb.perm.begin(), emb.perm.end());
  return Write("embed", kEmbedDone, 0, {{"vectors", emb.vectors}},
               std::move(perm_words));
}

}  // namespace omega::engine
