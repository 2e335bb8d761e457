// Crash-consistent checkpointing of the OMeGa-family engines (see
// DurabilityOptions for the sites and kill hooks).
//
// A Checkpointer owns the run's CheckpointStore, its simulated kill sites,
// the restored stage seconds and the ProNE resume wiring. With no store
// attached every checkpoint method is a no-op, so the engine calls them
// unconditionally; the SpMM stage-second totals are kept either way because
// the report is built from them.
//
// Snapshot layout: `stage` is a Stage below; `words` holds the read,
// factorize-SpMM and propagate-SpMM seconds as IEEE-754 bits, and an
// embed-stage snapshot appends the perm length and the perm (CSDB row ->
// node id). Restore validates a snapshot against the run's shapes before
// anything uses it — snapshots arrive from --restore-from files — and
// rejects a malformed one with IOError.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "durable/checkpoint.h"
#include "embed/prone.h"
#include "omega/exec_context.h"
#include "omega/options.h"

namespace omega::engine {

class Checkpointer {
 public:
  /// Snapshot stages. Restore skips (and does not recharge) everything at or
  /// before the stage, which is what makes a resumed run's embedding bitwise
  /// identical to an uninterrupted one.
  enum Stage : uint32_t {
    kNone = 0,
    kReadDone = 1,       ///< graph read + format build done
    kFactorizeDone = 2,  ///< stage-1 basis R available ("r0")
    kPropagate = 3,      ///< mid-Chebyshev ("t_prev"/"t_cur"/"partial")
    kEmbedDone = 4,      ///< final embedding available ("vectors" + perm)
  };

  /// `num_nodes` and `prone` fix the shapes a restored snapshot must have.
  Checkpointer(const DurabilityOptions& durability, const exec::Context& ctx,
               uint64_t num_nodes, const embed::ProneOptions& prone);

  // The ProNE hooks installed by Wire() point back at this object.
  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// With durability.restore: reads the last committed snapshot back from PM
  /// (charged into "ckpt.restore" and *recovery_seconds), truncates any torn
  /// tail so the log stays appendable, and adopts the snapshot. A store with
  /// no surviving commit runs from scratch.
  Status Restore(double* recovery_seconds);

  Stage resume_stage() const { return stage_; }
  /// The read seconds: restored, or as passed to AfterRead.
  double read_seconds() const { return read_seconds_; }
  /// Whole-run SpMM seconds per stage, starting from the restored values.
  double factorize_seconds() const { return factorize_seconds_; }
  double propagate_seconds() const { return propagate_seconds_; }
  double ckpt_seconds() const { return ckpt_seconds_; }

  /// Adds one SpMM's simulated seconds to its stage's total (same values and
  /// addition order as ProneEmbed's own accumulators).
  void AddSpmmSeconds(bool propagate, double seconds) {
    (propagate ? propagate_seconds_ : factorize_seconds_) += seconds;
  }

  /// The "read" site: records the read seconds and checkpoints.
  Status AfterRead(double read_seconds) {
    read_seconds_ = read_seconds;
    return Write("read", kReadDone, 0, {});
  }
  /// Installs the "factorize" and "term.<k>" sites and the resume state into
  /// `prone`. `this` must outlive the ProneEmbed call.
  void Wire(embed::ProneOptions* prone);
  /// The "embed" site: checkpoints the final vectors and their perm.
  Status AfterEmbed(const embed::EmbeddingResult& emb);
  /// The restored embedding of a kEmbedDone snapshot.
  embed::EmbeddingResult TakeEmbedding() { return std::move(embedding_); }

 private:
  using Matrices = std::vector<std::pair<std::string, linalg::DenseMatrix>>;

  Status Adopt(durable::CheckpointSnapshot snap);
  /// Writes one snapshot group after `site` (torn when the simulated kill
  /// lands mid-checkpoint), then dies if `site` is the kill site.
  Status Write(const std::string& site, Stage stage, uint64_t next_term,
               Matrices matrices, std::vector<uint64_t> extra_words = {});
  bool KillHere(const std::string& site) const {
    return store_ != nullptr && durability_.crash_after_phase == site;
  }

  const DurabilityOptions& durability_;
  durable::CheckpointStore* store_;
  exec::Context ctx_;
  size_t rows_;
  size_t cols_;
  uint64_t order_;
  Stage stage_ = kNone;
  double read_seconds_ = 0.0;
  double factorize_seconds_ = 0.0;
  double propagate_seconds_ = 0.0;
  double ckpt_seconds_ = 0.0;
  linalg::DenseMatrix resume_r0_;
  embed::ChebyshevResume cheb_resume_;
  embed::EmbeddingResult embedding_;
  embed::ProneDurability hooks_;
};

}  // namespace omega::engine
