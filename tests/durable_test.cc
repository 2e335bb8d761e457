// Durability tests: the checkpoint store's header-dancing torn-write
// detection, the snapshot layer's commit-group fallback, the replicated
// shared log's sequencer/replay/quorum contracts, and the engine-level
// crash matrix — a run killed at every phase boundary (and mid-checkpoint,
// leaving a torn final entry) must restore and finish with an embedding
// bitwise equal to an uninterrupted run, at 1, 2, and 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "durable/checkpoint.h"
#include "durable/shared_log.h"
#include "graph/rmat.h"
#include "memsim/fault.h"
#include "memsim/memory_system.h"
#include "omega/checkpointer.h"
#include "omega/engine.h"
#include "omega/report.h"

namespace omega {
namespace {

using durable::CheckpointOptions;
using durable::CheckpointSnapshot;
using durable::CheckpointStore;
using durable::ReplicatedLog;
using durable::SharedLogOptions;
using memsim::FaultPlan;
using memsim::MemOp;
using memsim::Pattern;
using memsim::Tier;

// ---------------------------------------------------------------------------
// Checkpoint store: header dancing, torn tails, corruption.
// ---------------------------------------------------------------------------

std::string PayloadString(const durable::LogEntry& e) {
  return std::string(e.payload.begin(), e.payload.end());
}

TEST(CheckpointStoreTest, AppendChargesBarriersAndScansInOrder) {
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  const std::string a = "alpha", b = "beta";
  auto c1 = store.Append(1, a.data(), a.size());
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  EXPECT_EQ(c1.value().entries, 1u);
  EXPECT_EQ(c1.value().barriers, 2u);  // payload barrier + header barrier
  EXPECT_GT(c1.value().seconds, 0.0);
  ASSERT_TRUE(store.Append(2, b.data(), b.size()).ok());
  EXPECT_EQ(ms->PersistBarriers(), 4u);
  EXPECT_EQ(store.entry_count(), 2u);

  const auto scan = store.Scan();
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.entries.size(), 2u);
  EXPECT_EQ(scan.entries[0].type, 1u);
  EXPECT_EQ(scan.entries[1].type, 2u);
  EXPECT_LT(scan.entries[0].stamp, scan.entries[1].stamp);
  EXPECT_EQ(PayloadString(scan.entries[0]), "alpha");
  EXPECT_EQ(PayloadString(scan.entries[1]), "beta");
}

TEST(CheckpointStoreTest, TornTailDetectedTruncatedNeverReplayed) {
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  const std::string keep = "kept payload bytes", torn = "half-written bytes";
  ASSERT_TRUE(store.Append(1, keep.data(), keep.size()).ok());
  ASSERT_TRUE(store.AppendTorn(2, torn.data(), torn.size()).ok());

  // The torn entry fails its checksum: the valid prefix stops before it and
  // its bytes are never surfaced as an entry.
  auto scan = store.Scan();
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.entries.size(), 1u);
  EXPECT_EQ(PayloadString(scan.entries[0]), keep);

  // Truncation drops exactly the torn entry and the log is appendable again.
  EXPECT_EQ(store.TruncateToValidPrefix(), 1u);
  const std::string next = "post-crash append";
  ASSERT_TRUE(store.Append(3, next.data(), next.size()).ok());
  scan = store.Scan();
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.entries.size(), 2u);
  EXPECT_EQ(PayloadString(scan.entries[1]), next);
}

TEST(CheckpointStoreTest, CorruptChecksumStopsTheValidPrefix) {
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  for (uint32_t t = 1; t <= 3; ++t) {
    const std::string payload = "entry " + std::to_string(t);
    ASSERT_TRUE(store.Append(t, payload.data(), payload.size()).ok());
  }
  store.CorruptTailChecksum();
  const auto scan = store.Scan();
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.entries.size(), 2u);  // the silently-corrupt tail is refused
  EXPECT_EQ(store.TruncateToValidPrefix(), 1u);
  EXPECT_FALSE(store.Scan().torn_tail);
}

TEST(CheckpointStoreTest, ChargedScanCostsAndFileRoundtrip) {
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  const std::string payload(4096, 'x');
  ASSERT_TRUE(store.Append(7, payload.data(), payload.size()).ok());

  durable::CkptCosts costs;
  const auto scan = store.ChargedScan(&costs);
  ASSERT_EQ(scan.entries.size(), 1u);
  EXPECT_GT(costs.seconds, 0.0);
  EXPECT_GE(costs.bytes, payload.size());

  const std::string path = ::testing::TempDir() + "/ckpt_image.bin";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto ms2 = memsim::MemorySystem::CreateDefault();
  CheckpointStore loaded(ms2.get(), CheckpointOptions{});
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  const auto scan2 = loaded.Scan();
  ASSERT_EQ(scan2.entries.size(), 1u);
  EXPECT_EQ(PayloadString(scan2.entries[0]), payload);
}

// ---------------------------------------------------------------------------
// Snapshot layer: commit groups and mid-checkpoint crashes.
// ---------------------------------------------------------------------------

linalg::DenseMatrix TestMatrix(size_t rows, size_t cols, float base) {
  linalg::DenseMatrix m(rows, cols);
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) m.At(r, c) = base + r * 0.25f + c;
  }
  return m;
}

TEST(SnapshotTest, WriteReadRoundtripBitExact) {
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  CheckpointSnapshot snap;
  snap.stage = 3;
  snap.next_term = 5;
  snap.matrices.emplace_back("t_cur", TestMatrix(17, 4, 1.5f));
  snap.words = {42, 0xDEADBEEFull};
  ASSERT_TRUE(durable::WriteSnapshot(&store, snap).ok());

  auto read = durable::ReadLastSnapshot(&store, nullptr);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().stage, 3u);
  EXPECT_EQ(read.value().next_term, 5u);
  EXPECT_EQ(read.value().words, snap.words);
  ASSERT_EQ(read.value().matrices.size(), 1u);
  EXPECT_EQ(read.value().matrices[0].first, "t_cur");
  const auto& m = read.value().matrices[0].second;
  ASSERT_EQ(m.rows(), 17u);
  ASSERT_EQ(m.cols(), 4u);
  EXPECT_EQ(std::memcmp(m.data(), snap.matrices[0].second.data(), m.bytes()),
            0);
}

TEST(SnapshotTest, TornSnapshotFallsBackToPreviousCommit) {
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  CheckpointSnapshot first;
  first.stage = 1;
  first.words = {1, 2, 3};
  ASSERT_TRUE(durable::WriteSnapshot(&store, first).ok());

  CheckpointSnapshot second;
  second.stage = 2;
  second.words = {9, 9, 9};
  second.matrices.emplace_back("r0", TestMatrix(8, 2, 0.0f));
  ASSERT_TRUE(durable::WriteSnapshotTorn(&store, second).ok());

  // The crashed group has no commit marker and a torn final entry: restore
  // must fall back to the first snapshot, never replay the torn one.
  auto read = durable::ReadLastSnapshot(&store, nullptr);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().stage, 1u);
  EXPECT_EQ(read.value().words, first.words);

  // After truncating the crash debris, a fresh snapshot wins again.
  store.TruncateToValidPrefix();
  CheckpointSnapshot third;
  third.stage = 4;
  third.words = {7, 7, 7};
  ASSERT_TRUE(durable::WriteSnapshot(&store, third).ok());
  read = durable::ReadLastSnapshot(&store, nullptr);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().stage, 4u);
}

TEST(SnapshotTest, TornOnlySnapshotIsNotFound) {
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  CheckpointSnapshot snap;
  snap.stage = 2;
  snap.words = {1, 2, 3};
  ASSERT_TRUE(durable::WriteSnapshotTorn(&store, snap).ok());
  auto read = durable::ReadLastSnapshot(&store, nullptr);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound());
}

// Little-endian field writers for hand-built entry payloads.
void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

// Appends one committed group through the public Append: a meta entry
// declaring `word_count` words (none stored) and `matrices.size()` matrices,
// the given matrix payloads, and the commit marker. Checksums are valid, so
// only the decoder's own checks stand between a lying header and memory.
void AppendCraftedGroup(CheckpointStore* store, uint64_t word_count,
                        const std::vector<std::vector<uint8_t>>& matrices) {
  const uint64_t meta_stamp = store->entry_count();
  std::vector<uint8_t> meta;
  PutU32(&meta, 1);  // stage
  PutU64(&meta, 0);  // next_term
  PutU32(&meta, static_cast<uint32_t>(matrices.size()));
  PutU64(&meta, word_count);
  ASSERT_TRUE(store->Append(static_cast<uint32_t>(durable::EntryType::kMeta),
                            meta.data(), meta.size())
                  .ok());
  for (const std::vector<uint8_t>& m : matrices) {
    ASSERT_TRUE(store->Append(static_cast<uint32_t>(durable::EntryType::kMatrix),
                              m.data(), m.size())
                    .ok());
  }
  std::vector<uint8_t> commit;
  PutU64(&commit, meta_stamp);
  ASSERT_TRUE(store->Append(static_cast<uint32_t>(durable::EntryType::kCommit),
                            commit.data(), commit.size())
                  .ok());
}

// A matrix entry's header declares its shape; the payload must hold
// rows * cols floats. A shape whose byte count wraps to 0 (2^32 x 2^32)
// used to pass the size check over empty storage, and a large one that does
// not wrap used to throw bad_alloc before the check ran.
TEST(SnapshotTest, MatrixShapeBeyondPayloadIsRejectedBeforeAllocating) {
  const std::pair<uint64_t, uint64_t> shapes[] = {
      {1ULL << 32, 1ULL << 32},  // rows * cols * 4 wraps to 0
      {1ULL << 20, 1ULL << 20},  // 4 TiB: no wrap, cannot be allocated
      {3, 2},                    // 24 bytes declared, 20 present
  };
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(std::to_string(rows) + " x " + std::to_string(cols));
    auto ms = memsim::MemorySystem::CreateDefault();
    CheckpointStore store(ms.get(), CheckpointOptions{});
    std::vector<uint8_t> body;
    PutU32(&body, 1);
    body.push_back('A');
    PutU64(&body, rows);
    PutU64(&body, cols);
    body.resize(body.size() + 20, 0);
    AppendCraftedGroup(&store, 0, {body});
    const auto read = durable::ReadLastSnapshot(&store, nullptr);
    ASSERT_FALSE(read.ok());
    EXPECT_TRUE(read.status().IsNotFound()) << read.status().ToString();
  }
}

// A meta entry's word count times 8 must not wrap past its payload check.
TEST(SnapshotTest, WordCountBeyondPayloadIsRejected) {
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  AppendCraftedGroup(&store, 1ULL << 61, {});  // 2^61 * 8 wraps to 0
  const auto read = durable::ReadLastSnapshot(&store, nullptr);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound());
}

// A directory opens as a stream whose tellg() is INT64_MAX; loading one used
// to die in the image allocation.
TEST(CheckpointStoreTest, LoadFromDirectoryIsIoError) {
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  const std::string payload = "kept";
  ASSERT_TRUE(store.Append(1, payload.data(), payload.size()).ok());
  const Status st = store.LoadFromFile(::testing::TempDir());
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(store.entry_count(), 1u);  // the failed load left the store alone
}

// Seeded mutation test for LoadFromFile and the snapshot decoder. A saved
// image of two committed snapshots gets byte flips, truncations, garbage
// tails and header-field edits; every mutant must load as a Status, and a
// loaded one must scan to a prefix of the original entries and decode to a
// Status or a snapshot. A second family re-appends the entries through
// Append with one payload mutated, so the checksums hold and the decoder's
// own bounds checks are what is tested. Run under ASan/UBSan, an
// out-of-bounds read or a header trusted before allocating shows up here.
TEST(CheckpointStoreTest, MutatedImagesLoadAsStatusOrValidPrefix) {
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore original(ms.get(), CheckpointOptions{});
  CheckpointSnapshot snap;
  snap.stage = 1;
  snap.next_term = 2;
  snap.words = {5, 6, 7};
  snap.matrices.emplace_back("emb", TestMatrix(6, 3, 0.5f));
  ASSERT_TRUE(durable::WriteSnapshot(&original, snap).ok());
  snap.stage = 2;
  snap.matrices.emplace_back("term", TestMatrix(4, 2, 1.5f));
  ASSERT_TRUE(durable::WriteSnapshot(&original, snap).ok());
  const std::vector<durable::LogEntry> entries = original.Scan().entries;

  const std::string path = ::testing::TempDir() + "/ckpt_mutant.bin";
  ASSERT_TRUE(original.SaveToFile(path).ok());
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(image.empty());

  Rng rng(20261017);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("raw mutant " + std::to_string(trial));
    std::string mutant = image;
    switch (trial % 4) {
      case 0:  // flip a few random bytes
        for (int i = 0; i < 1 + static_cast<int>(rng.NextBounded(4)); ++i) {
          mutant[rng.NextBounded(mutant.size())] ^=
              static_cast<char>(1 + rng.NextBounded(255));
        }
        break;
      case 1:  // truncate
        mutant.resize(rng.NextBounded(mutant.size()));
        break;
      case 2:  // garbage tail
        for (uint64_t i = 0, n = 1 + rng.NextBounded(64); i < n; ++i) {
          mutant.push_back(static_cast<char>(rng.NextBounded(256)));
        }
        break;
      default: {  // overwrite a header-sized window with 0xFF or 0x00
        const size_t at = rng.NextBounded(mutant.size());
        const char fill = rng.NextBounded(2) ? '\xFF' : '\0';
        for (size_t i = at; i < std::min(mutant.size(), at + 8); ++i) mutant[i] = fill;
      }
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    auto ms2 = memsim::MemorySystem::CreateDefault();
    CheckpointStore loaded(ms2.get(), CheckpointOptions{});
    if (!loaded.LoadFromFile(path).ok()) continue;
    const auto scan = loaded.Scan();
    ASSERT_LE(scan.entries.size(), entries.size());
    for (size_t i = 0; i < scan.entries.size(); ++i) {
      EXPECT_EQ(scan.entries[i].stamp, entries[i].stamp);
      EXPECT_EQ(scan.entries[i].type, entries[i].type);
      EXPECT_EQ(scan.entries[i].payload, entries[i].payload);
    }
    (void)durable::ReadLastSnapshot(&loaded, nullptr);
  }

  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("payload mutant " + std::to_string(trial));
    auto ms2 = memsim::MemorySystem::CreateDefault();
    CheckpointStore rebuilt(ms2.get(), CheckpointOptions{});
    const size_t victim = rng.NextBounded(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      std::vector<uint8_t> payload = entries[i].payload;
      if (i == victim && !payload.empty()) {
        for (int f = 0; f < 1 + static_cast<int>(rng.NextBounded(3)); ++f) {
          payload[rng.NextBounded(payload.size())] ^=
              static_cast<uint8_t>(1 + rng.NextBounded(255));
        }
      }
      ASSERT_TRUE(rebuilt.Append(entries[i].type, payload.data(), payload.size()).ok());
    }
    auto read = durable::ReadLastSnapshot(&rebuilt, nullptr);
    if (read.ok()) {
      for (const auto& [tag, m] : read.value().matrices) {
        EXPECT_LE(m.bytes(), rebuilt.image_bytes());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Replicated shared log: sequencer, replay idempotence, quorum.
// ---------------------------------------------------------------------------

TEST(SharedLogTest, DeterministicScheduleIsAPermutation) {
  const auto slots = durable::DeterministicSchedule(7, 4, 8);
  ASSERT_EQ(slots.size(), 32u);
  std::vector<int> per_machine(4, 0);
  for (int m : slots) per_machine[m]++;
  for (int c : per_machine) EXPECT_EQ(c, 8);
  EXPECT_EQ(durable::DeterministicSchedule(7, 4, 8), slots);
  EXPECT_NE(durable::DeterministicSchedule(8, 4, 8), slots);
}

TEST(SharedLogTest, SequencerGapFreeUnderConcurrentAppends) {
  auto ms = memsim::MemorySystem::CreateDefault();
  ReplicatedLog log(ms.get(), SharedLogOptions{});
  const auto slots = durable::DeterministicSchedule(11, 4, 16);
  std::vector<uint64_t> positions(slots.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= slots.size()) return;
        auto res = log.Append(slots[i], /*bytes=*/1024);
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        positions[i] = res.value().position;
      }
    });
  }
  for (auto& w : workers) w.join();

  // Positions are gap-free: every value in [0, N) assigned exactly once.
  std::vector<bool> seen(slots.size(), false);
  for (uint64_t p : positions) {
    ASSERT_LT(p, slots.size());
    EXPECT_FALSE(seen[p]) << "position " << p << " assigned twice";
    seen[p] = true;
  }
  EXPECT_EQ(log.Tail(), slots.size());
  // The record at each machine's position carries that machine's id.
  const auto records = log.Records();
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(records[positions[i]].machine, slots[i]);
  }
}

TEST(SharedLogTest, SerialScheduleByteIdenticalAcrossRuns) {
  const auto slots = durable::DeterministicSchedule(3, 3, 12);
  auto run = [&](std::vector<durable::LogRecord>* records, uint64_t* digest) {
    auto ms = memsim::MemorySystem::CreateDefault();
    ReplicatedLog log(ms.get(), SharedLogOptions{});
    for (size_t i = 0; i < slots.size(); ++i) {
      ASSERT_TRUE(log.Append(slots[i], 512 + i).ok());
    }
    log.Replay(0, log.Tail());
    *records = log.Records();
    *digest = log.Digest(0);
  };
  std::vector<durable::LogRecord> ra, rb;
  uint64_t da = 0, db = 0;
  run(&ra, &da);
  run(&rb, &db);
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].position, rb[i].position);
    EXPECT_EQ(ra[i].machine, rb[i].machine);
    EXPECT_EQ(ra[i].bytes, rb[i].bytes);
  }
  EXPECT_EQ(da, db);
  EXPECT_NE(da, 0u);
}

TEST(SharedLogTest, ReplayIsIdempotentAndPrefixComposable) {
  auto fill = [](ReplicatedLog* log) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(log->Append(i % 3, 256 * (i + 1)).ok());
    }
  };
  auto ms1 = memsim::MemorySystem::CreateDefault();
  ReplicatedLog once(ms1.get(), SharedLogOptions{});
  fill(&once);
  const auto full = once.Replay(1, once.Tail());
  EXPECT_EQ(full.applied, 10u);
  EXPECT_GT(full.seconds, 0.0);
  const uint64_t digest_once = once.Digest(1);

  // Replaying the same prefix twice applies it once: zero new records, zero
  // charged seconds, identical digest.
  const auto again = once.Replay(1, once.Tail());
  EXPECT_EQ(again.applied, 0u);
  EXPECT_EQ(again.skipped, 10u);
  EXPECT_EQ(again.seconds, 0.0);
  EXPECT_EQ(once.Digest(1), digest_once);

  // Replay in two stages lands on the same digest as one full replay.
  auto ms2 = memsim::MemorySystem::CreateDefault();
  ReplicatedLog staged(ms2.get(), SharedLogOptions{});
  fill(&staged);
  staged.Replay(1, 4);
  staged.Replay(1, staged.Tail());
  EXPECT_EQ(staged.Digest(1), digest_once);
  EXPECT_EQ(staged.Watermark(1), 10u);
}

TEST(SharedLogTest, AdvanceCheckpointSkipsCoveredRecords) {
  auto ms = memsim::MemorySystem::CreateDefault();
  ReplicatedLog log(ms.get(), SharedLogOptions{});
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(log.Append(0, 128).ok());
  log.AdvanceCheckpoint(2, 5);
  EXPECT_EQ(log.Watermark(2), 5u);
  const auto replay = log.Replay(2, log.Tail());
  EXPECT_EQ(replay.applied, 3u);  // only the records past the checkpoint
  EXPECT_EQ(replay.skipped, 5u);

  // Covered-then-replayed equals replayed-straight-through (same digest).
  auto ms2 = memsim::MemorySystem::CreateDefault();
  ReplicatedLog plain(ms2.get(), SharedLogOptions{});
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(plain.Append(0, 128).ok());
  plain.Replay(2, plain.Tail());
  EXPECT_EQ(log.Digest(2), plain.Digest(2));
}

FaultPlan NetTimeoutPlan(double rate, uint64_t seed = 42) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.at(Tier::kNetwork, MemOp::kWrite, Pattern::kSequential).timeout = rate;
  return plan;
}

TEST(SharedLogTest, QuorumLossSurfacesIOError) {
  auto ms = memsim::MemorySystem::CreateDefault();
  ms->SetFaultPlan(NetTimeoutPlan(1.0));
  ReplicatedLog log(ms.get(), SharedLogOptions{});
  auto res = log.Append(0, 4096);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsIOError());
  const auto f = ms->Faults();
  EXPECT_GT(f.surfaced, 0u);
  EXPECT_TRUE(f.Accounted());
  // The failed position is consumed (a CORFU hole), keeping replay indexed.
  EXPECT_EQ(log.Tail(), 1u);
}

TEST(SharedLogTest, PartialReplicaLossKeepsAccountingIdentity) {
  auto run = [](memsim::FaultCounters* out) {
    auto ms = memsim::MemorySystem::CreateDefault();
    // 0.8 per attempt → ~0.41 per replica after bounded retries: some appends
    // lose a replica but keep the quorum (degraded), some lose the quorum.
    ms->SetFaultPlan(NetTimeoutPlan(0.8, /*seed=*/9));
    ReplicatedLog log(ms.get(), SharedLogOptions{});
    int ok_count = 0;
    for (int i = 0; i < 64; ++i) {
      if (log.Append(i % 4, 2048).ok()) ++ok_count;
    }
    EXPECT_GT(ok_count, 0);
    EXPECT_LT(ok_count, 64);
    *out = ms->Faults();
  };
  memsim::FaultCounters a, b;
  run(&a);
  run(&b);
  EXPECT_GT(a.timeouts, 0u);
  EXPECT_GT(a.degraded, 0u);  // lost replicas under a surviving quorum
  EXPECT_TRUE(a.Accounted());
  EXPECT_EQ(a, b);  // same seed, same fault report
}

// ---------------------------------------------------------------------------
// Engine crash matrix: kill at every phase boundary and mid-checkpoint,
// restore, finish, and land on bitwise-identical embeddings.
// ---------------------------------------------------------------------------

graph::Graph SmallGraph() {
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 1 << 13;
  params.seed = 5;
  return graph::GenerateRmat(params).value();
}

engine::EngineOptions BaseOptions(int threads) {
  engine::EngineOptions options;
  options.system = engine::SystemKind::kOmega;
  options.num_threads = threads;
  options.prone.dim = 16;
  options.prone.oversample = 4;
  options.prone.chebyshev_order = 4;
  return options;
}

engine::RunReport MustRun(const graph::Graph& g, memsim::MemorySystem* ms,
                          const engine::EngineOptions& options, int threads) {
  ThreadPool pool(static_cast<size_t>(threads));
  auto report = engine::RunEmbedding(
      g, "rmat", options, exec::Context(ms, &pool, threads));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? std::move(report).value() : engine::RunReport{};
}

class CrashMatrixTest : public ::testing::Test {
 protected:
  const graph::Graph g_ = SmallGraph();
};

TEST_F(CrashMatrixTest, KillRestoreFinishBitwiseIdentical) {
  // "term.1" and "term.3" are cadence checkpoints inside the Chebyshev
  // recurrence (checkpoint_every = 1); the others are stage boundaries.
  const std::vector<std::string> sites = {"read", "factorize", "term.1",
                                          "term.3", "embed"};
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    auto baseline_ms = memsim::MemorySystem::CreateDefault();
    const engine::RunReport baseline =
        MustRun(g_, baseline_ms.get(), BaseOptions(threads), threads);
    ASSERT_GT(baseline.embedding.bytes(), 0u);

    for (const std::string& site : sites) {
      for (bool torn : {false, true}) {
        SCOPED_TRACE(site + (torn ? " (torn checkpoint)" : ""));
        auto ms = memsim::MemorySystem::CreateDefault();
        CheckpointStore store(ms.get(), CheckpointOptions{});

        engine::EngineOptions crash = BaseOptions(threads);
        crash.durability.store = &store;
        crash.durability.checkpoint_every = 1;
        crash.durability.crash_after_phase = site;
        crash.durability.crash_tear_checkpoint = torn;
        {
          ThreadPool pool(static_cast<size_t>(threads));
          auto killed = engine::RunEmbedding(
              g_, "rmat", crash, exec::Context(ms.get(), &pool, threads));
          ASSERT_FALSE(killed.ok()) << "the kill site never fired";
          EXPECT_TRUE(durable::IsKilledError(killed.status()))
              << killed.status().ToString();
        }

        engine::EngineOptions resume = BaseOptions(threads);
        resume.durability.store = &store;
        resume.durability.checkpoint_every = 1;
        resume.durability.restore = true;
        const engine::RunReport resumed =
            MustRun(g_, ms.get(), resume, threads);
        ASSERT_EQ(resumed.embedding.bytes(), baseline.embedding.bytes());
        EXPECT_EQ(std::memcmp(resumed.embedding.data(),
                              baseline.embedding.data(),
                              baseline.embedding.bytes()),
                  0)
            << "restored run's embedding drifted from the uninterrupted run";
        // The restore scan is a charged PM read of the surviving image.
        EXPECT_GT(resumed.recovery_seconds, 0.0);
        // Resuming from the final "embed" snapshot re-writes nothing; every
        // other resume point checkpoints the stages it still runs.
        if (site == "embed" && !torn) {
          EXPECT_EQ(resumed.ckpt_seconds, 0.0);
        } else {
          EXPECT_GT(resumed.ckpt_seconds, 0.0);
        }
        EXPECT_GT(resumed.total_seconds, 0.0);
      }
    }
  }
}

TEST_F(CrashMatrixTest, KillBetweenCadenceCheckpointsReplaysFromLastCommit) {
  // checkpoint_every = 2 checkpoints terms 2 and 4; the kill at term.3 has no
  // checkpoint of its own, so restore falls back to the term-2 snapshot and
  // recomputes the lost term.
  const int threads = 2;
  auto baseline_ms = memsim::MemorySystem::CreateDefault();
  const engine::RunReport baseline =
      MustRun(g_, baseline_ms.get(), BaseOptions(threads), threads);

  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  engine::EngineOptions crash = BaseOptions(threads);
  crash.durability.store = &store;
  crash.durability.checkpoint_every = 2;
  crash.durability.crash_after_phase = "term.3";
  {
    ThreadPool pool(threads);
    auto killed = engine::RunEmbedding(g_, "rmat", crash,
                                       exec::Context(ms.get(), &pool, threads));
    ASSERT_FALSE(killed.ok());
    EXPECT_TRUE(durable::IsKilledError(killed.status()));
  }

  engine::EngineOptions resume = BaseOptions(threads);
  resume.durability.store = &store;
  resume.durability.checkpoint_every = 2;
  resume.durability.restore = true;
  const engine::RunReport resumed = MustRun(g_, ms.get(), resume, threads);
  ASSERT_EQ(resumed.embedding.bytes(), baseline.embedding.bytes());
  EXPECT_EQ(std::memcmp(resumed.embedding.data(), baseline.embedding.data(),
                        baseline.embedding.bytes()),
            0);
  EXPECT_GT(resumed.recovery_seconds, 0.0);
}

TEST_F(CrashMatrixTest, RestoreWithEmptyStoreRunsFromScratch) {
  const int threads = 2;
  auto baseline_ms = memsim::MemorySystem::CreateDefault();
  const engine::RunReport baseline =
      MustRun(g_, baseline_ms.get(), BaseOptions(threads), threads);

  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  engine::EngineOptions resume = BaseOptions(threads);
  resume.durability.store = &store;
  resume.durability.checkpoint_every = 1;
  resume.durability.restore = true;  // nothing committed: full re-run
  const engine::RunReport resumed = MustRun(g_, ms.get(), resume, threads);
  ASSERT_EQ(resumed.embedding.bytes(), baseline.embedding.bytes());
  EXPECT_EQ(std::memcmp(resumed.embedding.data(), baseline.embedding.data(),
                        baseline.embedding.bytes()),
            0);
}

TEST_F(CrashMatrixTest, CheckpointPhasesLandInTraceAndJson) {
  const int threads = 2;
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  engine::EngineOptions options = BaseOptions(threads);
  options.durability.store = &store;
  options.durability.checkpoint_every = 1;
  const engine::RunReport report = MustRun(g_, ms.get(), options, threads);

  bool saw_ckpt_write = false;
  for (const auto& phase : report.phases) {
    if (phase.name == "ckpt.write") {
      saw_ckpt_write = true;
      EXPECT_GT(phase.ckpt_entries, 0u);
      EXPECT_GT(phase.ckpt_bytes, 0u);
      EXPECT_GT(phase.persist_barriers, 0u);
    }
  }
  EXPECT_TRUE(saw_ckpt_write);
  EXPECT_GT(report.ckpt_seconds, 0.0);

  const std::string json = engine::ReportToJson(report);
  EXPECT_NE(json.find("\"ckpt_seconds\": "), std::string::npos);
  EXPECT_NE(json.find("\"ckpt\": {\"entries\": "), std::string::npos);

  // Durability off: the conditional keys stay out of the report entirely.
  auto plain_ms = memsim::MemorySystem::CreateDefault();
  const engine::RunReport plain =
      MustRun(g_, plain_ms.get(), BaseOptions(threads), threads);
  const std::string plain_json = engine::ReportToJson(plain);
  EXPECT_EQ(plain_json.find("\"ckpt_seconds\": "), std::string::npos);
  EXPECT_EQ(plain_json.find("\"ckpt\": {"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Checkpointer: restored snapshots are input from outside the program
// (--restore-from files), so every malformed one is an IOError, never an
// out-of-bounds read or write.
// ---------------------------------------------------------------------------

class CheckpointerRestoreTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 32;
  static constexpr size_t kDim = 4;
  static constexpr int kOrder = 4;
  using Stage = engine::Checkpointer::Stage;

  static CheckpointSnapshot Valid(Stage stage) {
    CheckpointSnapshot snap;
    snap.stage = stage;
    snap.words = {0, 0, 0};
    const linalg::DenseMatrix block(kRows, kDim);
    switch (stage) {
      case Stage::kFactorizeDone:
        snap.matrices = {{"r0", block}};
        break;
      case Stage::kPropagate:
        snap.next_term = 3;
        snap.matrices = {{"t_prev", block}, {"t_cur", block}, {"partial", block}};
        break;
      case Stage::kEmbedDone:
        snap.matrices = {{"vectors", block}};
        snap.words.push_back(kRows);
        for (uint64_t r = 0; r < kRows; ++r) snap.words.push_back(kRows - 1 - r);
        break;
      default:
        break;
    }
    return snap;
  }

  // Commits `snap` to a fresh store and restores it through a Checkpointer
  // sized for a kRows-node graph.
  static Status Restore(const CheckpointSnapshot& snap) {
    auto ms = memsim::MemorySystem::CreateDefault();
    CheckpointStore store(ms.get(), CheckpointOptions{});
    EXPECT_TRUE(durable::WriteSnapshot(&store, snap).ok());
    engine::DurabilityOptions durability;
    durability.store = &store;
    durability.restore = true;
    embed::ProneOptions prone;
    prone.dim = kDim;
    prone.chebyshev_order = kOrder;
    engine::Checkpointer ckpt(durability, exec::Context(ms.get()), kRows, prone);
    double recovery_seconds = 0.0;
    return ckpt.Restore(&recovery_seconds);
  }

  static void ExpectIoError(const CheckpointSnapshot& snap, const std::string& why) {
    const Status st = Restore(snap);
    EXPECT_TRUE(st.IsIOError()) << why << ": " << st.ToString();
  }
};

TEST_F(CheckpointerRestoreTest, WellFormedSnapshotsRestore) {
  for (Stage stage : {Stage::kReadDone, Stage::kFactorizeDone, Stage::kPropagate,
                      Stage::kEmbedDone}) {
    EXPECT_TRUE(Restore(Valid(stage)).ok()) << "stage " << stage;
  }
}

TEST_F(CheckpointerRestoreTest, MissingStateIsIoError) {
  CheckpointSnapshot snap = Valid(Stage::kReadDone);
  snap.words = {0, 0};
  ExpectIoError(snap, "missing timing words");

  snap = Valid(Stage::kFactorizeDone);
  snap.matrices.clear();
  ExpectIoError(snap, "missing r0");

  snap = Valid(Stage::kPropagate);
  snap.matrices.pop_back();
  ExpectIoError(snap, "missing recurrence state");

  snap = Valid(Stage::kEmbedDone);
  snap.matrices.clear();
  ExpectIoError(snap, "missing embedding");

  snap = Valid(Stage::kEmbedDone);
  snap.words.resize(3);
  ExpectIoError(snap, "missing permutation");
}

TEST_F(CheckpointerRestoreTest, UnknownStageIsIoError) {
  for (uint32_t stage : {0u, 5u, 0xffffffffu}) {
    CheckpointSnapshot snap = Valid(Stage::kReadDone);
    snap.stage = stage;
    ExpectIoError(snap, "stage " + std::to_string(stage));
  }
}

TEST_F(CheckpointerRestoreTest, WrongMatrixShapeIsIoError) {
  const linalg::DenseMatrix wide(kRows, kDim + 1);
  const linalg::DenseMatrix tall(kRows + 1, kDim);
  for (Stage stage : {Stage::kFactorizeDone, Stage::kPropagate, Stage::kEmbedDone}) {
    for (size_t i = 0; i < Valid(stage).matrices.size(); ++i) {
      for (const linalg::DenseMatrix* bad : {&wide, &tall}) {
        CheckpointSnapshot snap = Valid(stage);
        snap.matrices[i].second = *bad;
        ExpectIoError(snap, snap.matrices[i].first + " reshaped");
      }
    }
  }
}

TEST_F(CheckpointerRestoreTest, ChebyshevTermOutOfRangeIsIoError) {
  for (uint64_t next_term : {uint64_t{0}, uint64_t{1}, uint64_t{kOrder + 1}, ~uint64_t{0}}) {
    CheckpointSnapshot snap = Valid(Stage::kPropagate);
    snap.next_term = next_term;
    ExpectIoError(snap, "next_term " + std::to_string(next_term));
  }
}

TEST_F(CheckpointerRestoreTest, MalformedPermutationIsIoError) {
  // A perm length whose 4 + length wraps past 2^64.
  CheckpointSnapshot snap = Valid(Stage::kEmbedDone);
  snap.words[3] = ~uint64_t{0} - 2;
  ExpectIoError(snap, "wrapping perm length");

  // Lengths that disagree with the embedding rows or the stored words.
  snap = Valid(Stage::kEmbedDone);
  snap.words[3] = kRows - 1;
  snap.words.pop_back();
  ExpectIoError(snap, "short perm");
  snap = Valid(Stage::kEmbedDone);
  snap.words.push_back(0);
  ExpectIoError(snap, "trailing words");

  // Entries that are not a permutation of the rows.
  snap = Valid(Stage::kEmbedDone);
  snap.words[4] = kRows;
  ExpectIoError(snap, "row out of range");
  snap = Valid(Stage::kEmbedDone);
  snap.words[5] = snap.words[4];
  ExpectIoError(snap, "repeated row");
}

TEST_F(CrashMatrixTest, MalformedSnapshotFailsTheRunWithIoError) {
  auto ms = memsim::MemorySystem::CreateDefault();
  CheckpointStore store(ms.get(), CheckpointOptions{});
  CheckpointSnapshot snap;
  snap.stage = engine::Checkpointer::kEmbedDone;
  snap.words = {0, 0, 0, ~uint64_t{0}};
  snap.matrices = {{"vectors", linalg::DenseMatrix(g_.num_nodes(), 16)}};
  ASSERT_TRUE(durable::WriteSnapshot(&store, snap).ok());
  engine::EngineOptions resume = BaseOptions(2);
  resume.durability.store = &store;
  resume.durability.restore = true;
  ThreadPool pool(2);
  auto run = engine::RunEmbedding(g_, "rmat", resume, exec::Context(ms.get(), &pool, 2));
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsIOError()) << run.status().ToString();
}

}  // namespace
}  // namespace omega
