// Unit tests for the common runtime: Status/Result, RNG, string utilities,
// and the thread pool.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <set>
#include <thread>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/topk.h"

namespace omega {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::CapacityExceeded("x").IsCapacityExceeded());
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.ValueOr(7), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

Result<int> Doubled(Result<int> in) {
  OMEGA_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_TRUE(Doubled(Status::Internal("boom")).status().code() ==
              StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoundedIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBounded(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RngTest, GaussianHasReasonableMoments) {
  Rng rng(99);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

// Test-side model of the xoshiro256 state, independent of Rng::Jump.
using State = std::array<uint64_t, 4>;

// The state Rng::Seed(seed) sets.
State SeededState(uint64_t seed) {
  State s;
  for (uint64_t& w : s) w = seed = SplitMix64(seed);
  return s;
}

// One step of the xoshiro256 transition (Blackman and Vigna's reference).
State Step(State s) {
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = std::rotl(s[3], 45);
  return s;
}

// The next four outputs of a stream standing at `s`.
std::array<uint64_t, 4> OutputsFrom(State s) {
  std::array<uint64_t, 4> out;
  for (uint64_t& o : out) {
    o = std::rotl(s[1] * 5, 7) * 9;
    s = Step(s);
  }
  return out;
}

std::array<uint64_t, 4> NextFour(Rng& rng) {
  return {rng.Next(), rng.Next(), rng.Next(), rng.Next()};
}

// A linear map on states, as the images of the 256 unit states (row i is the
// image of bit i % 64 of word i / 64).
using BitMatrix = std::array<State, 256>;

State Apply(const BitMatrix& m, const State& v) {
  State out{};
  for (int i = 0; i < 256; ++i) {
    if ((v[i / 64] >> (i % 64)) & 1) {
      for (int w = 0; w < 4; ++w) out[w] ^= m[i][w];
    }
  }
  return out;
}

TEST(RngTest, JumpMatchesStepping) {
  Rng draws(20261017);
  // Small and word-boundary k, and one FR-sized generation chunk, stepped
  // with Next().
  for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{63}, uint64_t{64},
                     uint64_t{65}, uint64_t{255}, uint64_t{256}, uint64_t{257},
                     uint64_t{5} * 16 * 65536}) {
    const uint64_t seed = draws.Next();
    Rng stepped(seed);
    Rng jumped(seed);
    for (uint64_t i = 0; i < k; ++i) stepped.Next();
    jumped.Jump(k);
    EXPECT_EQ(NextFour(jumped), NextFour(stepped)) << "k=" << k;
  }

  // Random k < 2^32: stepping that far takes seconds per k, so k steps are
  // taken as T^k, from the one-step matrix T squared 31 times.
  std::vector<BitMatrix> powers(32);  // powers[j] = T^(2^j)
  for (int i = 0; i < 256; ++i) {
    State unit{};
    unit[i / 64] = uint64_t{1} << (i % 64);
    powers[0][i] = Step(unit);
  }
  for (int j = 1; j < 32; ++j) {
    for (int i = 0; i < 256; ++i) powers[j][i] = Apply(powers[j - 1], powers[j - 1][i]);
  }
  for (int trial = 0; trial < 8; ++trial) {
    const uint64_t seed = draws.Next();
    const uint64_t k = draws.Next() >> 32;
    State s = SeededState(seed);
    for (int j = 0; j < 32; ++j) {
      if ((k >> j) & 1) s = Apply(powers[j], s);
    }
    Rng jumped(seed);
    jumped.Jump(k);
    EXPECT_EQ(NextFour(jumped), OutputsFrom(s)) << "k=" << k;
  }

  // Jump moves only the Next() stream: a cached Gaussian survives it.
  Rng with_cache(7);
  Rng reference(7);
  with_cache.NextGaussian();
  reference.NextGaussian();
  with_cache.Jump(1000);
  EXPECT_EQ(with_cache.NextGaussian(), reference.NextGaussian());
  for (int i = 0; i < 1000; ++i) reference.Next();
  EXPECT_EQ(NextFour(with_cache), NextFour(reference));
}

// Rng::kCharPoly is re-derived by Berlekamp-Massey from the low bit of s1,
// which every output exposes: Next() returns rotl(s1 * 5, 7) * 9, and 5 and
// 9 are invertible modulo 2^64.
TEST(RngTest, CharPolyMatchesBerlekampMassey) {
  auto inverse = [](uint64_t a) {  // Newton's iteration for a^-1 mod 2^64
    uint64_t x = a;
    for (int i = 0; i < 6; ++i) x *= 2 - a * x;
    return x;
  };
  const uint64_t inv5 = inverse(5);
  const uint64_t inv9 = inverse(9);
  Rng rng(12345);
  std::vector<int> bits(600);
  for (int& bit : bits) bit = (inv5 * std::rotr(rng.Next() * inv9, 7)) & 1;

  // Berlekamp-Massey over GF(2): the shortest recurrence
  // bits[n] = sum_{i=1..len} conn[i] * bits[n - i].
  std::vector<int> conn(bits.size() + 1, 0);
  std::vector<int> prev = conn;
  conn[0] = prev[0] = 1;
  int len = 0;
  int shift = 1;
  for (size_t n = 0; n < bits.size(); ++n) {
    int discrepancy = bits[n];
    for (int i = 1; i <= len; ++i) discrepancy ^= conn[i] & bits[n - i];
    if (discrepancy == 0) {
      ++shift;
      continue;
    }
    const std::vector<int> saved = conn;
    for (size_t i = 0; i + shift < conn.size(); ++i) conn[i + shift] ^= prev[i];
    if (2 * len <= static_cast<int>(n)) {
      len = static_cast<int>(n) + 1 - len;
      prev = saved;
      shift = 1;
    } else {
      ++shift;
    }
  }
  ASSERT_EQ(len, 256);
  // The characteristic polynomial is the reversed connection polynomial:
  // x^256 + sum conn[i] x^(256 - i).
  uint64_t poly[4] = {0, 0, 0, 0};
  for (int i = 1; i <= len; ++i) {
    if (conn[i]) poly[(len - i) / 64] |= uint64_t{1} << ((len - i) % 64);
  }
  for (int w = 0; w < 4; ++w) EXPECT_EQ(poly[w], Rng::kCharPoly[w]) << "word " << w;
}

TEST(SplitMixTest, HashesDistinctInputsApart) {
  EXPECT_NE(SplitMix64(1), SplitMix64(2));
  EXPECT_NE(SplitMix64(0), 0u);
}

TEST(StringUtilTest, SplitTokens) {
  const auto tokens = SplitTokens("a b\tc  d", " \t");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[3], "d");
  EXPECT_TRUE(SplitTokens("", " ").empty());
  EXPECT_TRUE(SplitTokens("   ", " ").empty());
}

TEST(StringUtilTest, HumanCountMatchesPaperStyle) {
  EXPECT_EQ(HumanCount(803), "803");
  EXPECT_EQ(HumanCount(1630000), "1.63 M");
  EXPECT_EQ(HumanCount(2410000000ULL), "2.41 B");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1024), "1.00 KiB");
  EXPECT_EQ(HumanBytes(96ULL << 20), "96.00 MiB");
}

TEST(StringUtilTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(12.345), "12.35 s");
  EXPECT_EQ(HumanSeconds(0.01234), "12.34 ms");
  EXPECT_EQ(HumanSeconds(0.0000123), "12.30 us");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("omega", "om"));
  EXPECT_FALSE(StartsWith("om", "omega"));
}

TEST(ThreadPoolTest, RunsOnEveryWorkerExactlyOnce) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.size(), 8u);
  std::vector<std::atomic<int>> hits(8);
  pool.RunOnAll([&](size_t w) { hits[w]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RepeatedPhases) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.RunOnAll([&](size_t) { counter++; });
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ParallelForCoversRangeDisjointly) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(100);
  pool.ParallelFor(100, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) touched[i]++;
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSmallerThanPool) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.ParallelFor(3, [&](size_t, size_t begin, size_t end) {
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPoolTest, ParallelForDynamicCoversRangeDisjointly) {
  ThreadPool pool(4);
  for (const size_t chunk : {1, 7, 64, 1000}) {
    std::vector<std::atomic<int>> touched(257);
    pool.ParallelForDynamic(257, chunk, [&](size_t, size_t begin, size_t end) {
      EXPECT_LT(begin, end);
      for (size_t i = begin; i < end; ++i) touched[i]++;
    });
    for (const auto& t : touched) EXPECT_EQ(t.load(), 1) << "chunk=" << chunk;
  }
}

TEST(ThreadPoolTest, ParallelForDynamicEmptyAndAlignedRanges) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.ParallelForDynamic(0, 16, [&](size_t, size_t, size_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
  // n an exact multiple of the chunk size: every chunk is full-width.
  pool.ParallelForDynamic(48, 16, [&](size_t, size_t begin, size_t end) {
    EXPECT_EQ(end - begin, 16u);
    calls++;
  });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPoolTest, ParallelForDynamicWorkerIndicesAreStable) {
  // Worker w must only ever run on pool thread w: record the thread id the
  // pool reports for each worker index and check consistency across chunks.
  ThreadPool pool(4);
  std::vector<std::atomic<const void*>> seen(4);
  for (auto& s : seen) s.store(nullptr);
  std::atomic<bool> mismatch{false};
  for (int round = 0; round < 8; ++round) {
    pool.ParallelForDynamic(64, 1, [&](size_t w, size_t, size_t) {
      ASSERT_LT(w, 4u);
      thread_local int marker = 0;
      const void* self = &marker;  // distinct per OS thread
      const void* expected = nullptr;
      if (!seen[w].compare_exchange_strong(expected, self) && expected != self) {
        mismatch = true;
      }
    });
  }
  EXPECT_FALSE(mismatch.load());
}

TEST(TopKTest, SelectsBestCandidatesBestFirst) {
  TopK top(3);
  const float scores[] = {0.1f, 0.9f, 0.5f, 0.7f, 0.3f, 0.8f};
  for (uint32_t i = 0; i < 6; ++i) top.Offer(i, scores[i]);
  EXPECT_EQ(top.size(), 3u);
  const std::vector<ScoredId> winners = top.Take();
  ASSERT_EQ(winners.size(), 3u);
  EXPECT_EQ(winners[0].id, 1u);  // 0.9
  EXPECT_EQ(winners[1].id, 5u);  // 0.8
  EXPECT_EQ(winners[2].id, 3u);  // 0.7
  EXPECT_EQ(top.size(), 0u);  // Take() drains the selector
}

TEST(TopKTest, TiesBreakTowardSmallerId) {
  TopK top(2);
  top.Offer(7, 1.0f);
  top.Offer(3, 1.0f);
  top.Offer(5, 1.0f);
  const std::vector<ScoredId> winners = top.Take();
  ASSERT_EQ(winners.size(), 2u);
  EXPECT_EQ(winners[0].id, 3u);
  EXPECT_EQ(winners[1].id, 5u);
}

TEST(TopKTest, OrderIndependentOfOfferOrder) {
  std::vector<ScoredId> candidates;
  Rng rng(77);
  for (uint32_t i = 0; i < 200; ++i) {
    candidates.push_back({i, static_cast<float>(rng.NextBounded(50))});
  }
  TopK forward(10);
  for (const ScoredId& c : candidates) forward.Offer(c);
  TopK backward(10);
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    backward.Offer(*it);
  }
  EXPECT_EQ(forward.Take(), backward.Take());
}

TEST(TopKTest, ZeroKKeepsNothing) {
  TopK top(0);
  top.Offer(1, 5.0f);
  EXPECT_EQ(top.size(), 0u);
  EXPECT_TRUE(top.Take().empty());
}

TEST(PercentileTest, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({4.0}, 99.0), 4.0);
  const std::vector<double> v = {30.0, 10.0, 20.0, 40.0};  // unsorted input
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 75.0), 32.5);
}

TEST(StdDevTest, PopulationStdDev) {
  EXPECT_DOUBLE_EQ(StdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({5.0, 5.0, 5.0}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.0);
}

TEST(StringUtilTest, JsonQuotedEscapes) {
  EXPECT_EQ(JsonQuoted("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuoted("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(JsonQuoted("line\nbreak\ttab\rcr"),
            "\"line\\nbreak\\ttab\\rcr\"");
  EXPECT_EQ(JsonQuoted(std::string("nul\x01" "byte")), "\"nul\\u0001byte\"");
  EXPECT_EQ(JsonQuoted(""), "\"\"");
}

TEST(ThreadPoolTest, ParallelForDynamicSkewedWorkIsShared) {
  // With single-index chunks and one slow index, the fast indices must still
  // all be processed (dynamic draining), regardless of which worker is stuck.
  ThreadPool pool(4);
  std::atomic<int> processed{0};
  pool.ParallelForDynamic(100, 1, [&](size_t, size_t begin, size_t) {
    if (begin == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    processed++;
  });
  EXPECT_EQ(processed.load(), 100);
}

}  // namespace
}  // namespace omega
