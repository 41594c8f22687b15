// Unit tests for vps::support — RNG determinism, CRC vectors, statistics,
// string parsing, and table rendering.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "vps/support/crc.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/rng.hpp"
#include "vps/support/stats.hpp"
#include "vps/support/strings.hpp"
#include "vps/support/table.hpp"

namespace {

using namespace vps::support;

TEST(Ensure, ThrowsWithLocation) {
  EXPECT_NO_THROW(ensure(true, "fine"));
  try {
    ensure(false, "boom");
    FAIL() << "ensure did not throw";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("support_test"), std::string::npos);
  }
}

TEST(Ensure, FailReportsTheCallersLineAndComposedMessage) {
  const std::string name = "cpu.isock";
  const int line = __LINE__ + 2;
  try {
    fail("unbound socket " + name);
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("support_test.cpp:" + std::to_string(line) +
                                         ": unbound socket cpu.isock"),
              std::string::npos)
        << e.what();
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Xorshift a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xorshift a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsRemapped) {
  Xorshift z(0);
  EXPECT_NE(z.next(), 0u);
}

TEST(Rng, UniformRespectsBounds) {
  Xorshift rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_u64(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double d = rng.uniform(-1.0, 1.0);
    EXPECT_GE(d, -1.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, IndexZeroAndOneElement) {
  Xorshift rng(7);
  EXPECT_EQ(rng.index(0), 0u);
  EXPECT_EQ(rng.index(1), 0u);
}

TEST(Rng, ChanceExtremes) {
  Xorshift rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Xorshift rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Xorshift rng(13);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.exponential(2.0));
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Xorshift rng(17);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(NormalTape, IsXorshiftNormalBitForBit) {
  // The twins' sensor scales (BMS cell voltage, cell temperature, pack
  // current; ACC radar gap) and a few nonzero means, cycled per draw.
  constexpr std::array<std::array<double, 2>, 7> kScales{{{0.0, 0.003},
                                                          {0.0, 0.1},
                                                          {0.0, 0.3},
                                                          {0.0, 0.05},
                                                          {3.7, 0.003},
                                                          {-20.0, 0.1},
                                                          {120.0, 2.5}}};
  constexpr std::size_t kDraws = 100'000;
  constexpr std::uint64_t kSeed = 2026;
  Xorshift rng(kSeed);
  std::vector<std::uint64_t> want(kDraws);
  for (std::size_t k = 0; k < kDraws; ++k) {
    const auto [mean, stddev] = kScales[k % kScales.size()];
    want[k] = std::bit_cast<std::uint64_t>(rng.normal(mean, stddev));
  }
  const auto mismatches = [&](NormalTape& tape, std::size_t from, std::size_t to) {
    std::size_t bad = 0;
    for (std::size_t k = from; k < to; ++k) {
      const auto [mean, stddev] = kScales[k % kScales.size()];
      if (std::bit_cast<std::uint64_t>(tape.draw(k, mean, stddev)) != want[k]) ++bad;
    }
    return bad;
  };

  NormalTape tape(kSeed);
  EXPECT_EQ(mismatches(tape, 0, kDraws), 0u) << "front to back";
  EXPECT_EQ(mismatches(tape, 0, kDraws), 0u) << "second pass over the filled tape";

  // A first read mid-stream, at an even and at an odd cursor (a restored
  // epoch's cursor can sit mid-pair), fills a fresh tape up to it.
  for (const std::size_t start : {std::size_t{40'000}, std::size_t{40'001}}) {
    NormalTape fresh(kSeed);
    EXPECT_EQ(mismatches(fresh, start, kDraws), 0u) << "first read at " << start;
  }

  // A copied cursor resumes where its original stopped, mid-pair included.
  NormalTape shared(kSeed);
  std::size_t cursor = 0;
  while (cursor < 12'345) {
    const auto [mean, stddev] = kScales[cursor % kScales.size()];
    const double got = shared.draw(cursor, mean, stddev);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got), want[cursor]) << "draw " << cursor;
    ++cursor;
  }
  const std::size_t copy = cursor;
  EXPECT_EQ(mismatches(shared, copy, kDraws), 0u) << "resumed at " << copy;

  // reset() puts a tape that holds another seed's stream back on this one.
  NormalTape reused(kSeed + 1);
  (void)reused.draw(999, 0.0, 1.0);
  reused.reset(kSeed);
  EXPECT_EQ(mismatches(reused, 0, kDraws), 0u) << "after reset";
}

TEST(Rng, WeightedFollowsWeights) {
  Xorshift rng(19);
  const std::array<double, 3> w{1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, ForkDecorrelates) {
  Xorshift a(42);
  Xorshift b = a.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Crc8, SaeJ1850KnownVectors) {
  // CRC over a single 0x00 byte (reference value from an independent
  // bitwise implementation of poly 0x1D, init 0xFF, xorout 0xFF).
  const std::array<std::uint8_t, 4> msg{0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(crc8_sae_j1850(std::span(msg).first(1)), 0x3B);
  const std::array<std::uint8_t, 9> digits{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc8_sae_j1850(digits), 0x4B);  // standard check value for CRC-8/SAE-J1850
}

TEST(Crc8, DetectsSingleBitErrors) {
  Xorshift rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> msg(8);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    const auto crc = crc8_sae_j1850(msg);
    const std::size_t byte = rng.index(msg.size());
    const int bit = static_cast<int>(rng.index(8));
    msg[byte] ^= static_cast<std::uint8_t>(1u << bit);
    EXPECT_NE(crc8_sae_j1850(msg), crc) << "single-bit error escaped CRC-8";
  }
}

TEST(Crc15, ZeroBitsGiveZero) {
  std::vector<bool> bits(20, false);
  EXPECT_EQ(crc15_can(bits), 0u);
}

TEST(Crc15, DetectsBurstErrorsUpTo15Bits) {
  Xorshift rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<bool> bits(64);
    for (auto&& b : bits) b = rng.chance(0.5);
    const auto crc = crc15_can(bits);
    const std::size_t burst_len = 1 + rng.index(15);
    const std::size_t start = rng.index(bits.size() - burst_len);
    // Flip the boundary bits so the burst is exactly burst_len long.
    bits[start] = !bits[start];
    if (burst_len > 1) bits[start + burst_len - 1] = !bits[start + burst_len - 1];
    EXPECT_NE(crc15_can(bits), crc) << "burst of length " << burst_len << " escaped CRC-15";
  }
}

TEST(Crc32, KnownCheckValue) {
  const std::array<std::uint8_t, 9> digits{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32_ieee(digits), 0xCBF43926u);
}

/// CRC-32 one bit at a time, from the reflected polynomial alone.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..300 cover no full eight-byte step, many, and every tail;
  // offsets 0..7 cover every alignment of the eight-byte loads.
  Xorshift rng(32);
  std::vector<std::uint8_t> buf(300 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const auto data = std::span<const std::uint8_t>(buf).subspan(offset, len);
      ASSERT_EQ(crc32_ieee(data), crc32_bitwise(data)) << "offset " << offset << " len " << len;
    }
  }
  // update_u64 folds the value's bytes least significant first.
  Crc32 words;
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t v : {0x0ull, 0x0123456789ABCDEFull, ~0ull, 0x8000000000000001ull}) {
    words.update_u64(v);
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  EXPECT_EQ(words.value(), crc32_bitwise(bytes));
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Xorshift rng(31);
  std::vector<std::uint8_t> msg(128);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  Crc32 inc;
  inc.update(std::span(msg).first(50));
  inc.update(std::span(msg).subspan(50));
  EXPECT_EQ(inc.value(), crc32_ieee(msg));
}

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  acc.add(1.0);
  acc.add(2.0);
  acc.add(3.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 1.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 3.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 6.0);
}

TEST(Stats, HistogramClampsOutOfRange) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  h.add(5.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(4), 1u);
  EXPECT_EQ(h.count_in_bin(2), 1u);
}

TEST(Stats, HistogramDropsAndCountsNonFiniteSamples) {
  // Regression: NaN/Inf used to reach the bin-index cast, which is
  // undefined behaviour for values outside the target integer's range.
  Histogram h(0.0, 10.0, 5);
  h.add(std::nan(""));
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.dropped_non_finite(), 3u);
  // Finite but huge samples clamp into the edge bins instead of
  // overflowing the cast.
  h.add(1e300);
  h.add(-1e300);
  h.add(5.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.dropped_non_finite(), 3u);
  EXPECT_EQ(h.count_in_bin(4), 1u);
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(2), 1u);
}

TEST(Stats, HistogramRejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 10.0, 0), InvariantError);
  EXPECT_THROW(Histogram(5.0, 5.0, 4), InvariantError);
}

TEST(Stats, HistogramPercentilesInterpolateWithinBins) {
  // One sample per unit-wide bin: the pXX estimate must land inside the
  // XXth bin (resolution is bounded by the bin width, not the sample count).
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.percentile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 1.0);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 1.0);
  // p=0 clamps to the first sample, p=1 to the last.
  EXPECT_NEAR(h.percentile(0.0), 0.5, 1.0);
  EXPECT_NEAR(h.percentile(1.0), 99.5, 1.0);
  // Empty histogram reports its lower bound instead of dividing by zero.
  EXPECT_EQ(Histogram(2.5, 9.0, 4).percentile(0.5), 2.5);
}

TEST(Stats, HistogramPercentileIsOrderAndMergeIndependent) {
  Xorshift rng(123);
  std::vector<double> samples;
  samples.reserve(1000);
  for (int i = 0; i < 1000; ++i) samples.push_back(rng.uniform(0.0, 1000.0));

  Histogram forward(0.0, 1000.0, 256);
  for (const double s : samples) forward.add(s);
  Histogram reversed(0.0, 1000.0, 256);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) reversed.add(*it);
  // Three shards filled round-robin, merged in an arbitrary order — the
  // shard-merge path campaign latency aggregation relies on.
  Histogram a(0.0, 1000.0, 256);
  Histogram b(0.0, 1000.0, 256);
  Histogram merged(0.0, 1000.0, 256);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : merged).add(samples[i]);
  }
  merged.merge(b);
  merged.merge(a);
  EXPECT_EQ(merged.total(), forward.total());
  for (const double p : {0.5, 0.9, 0.95, 0.99}) {
    // Bitwise equality, not NEAR: the estimate depends only on bin counts.
    EXPECT_EQ(forward.percentile(p), reversed.percentile(p)) << p;
    EXPECT_EQ(forward.percentile(p), merged.percentile(p)) << p;
  }
}

TEST(Stats, HistogramMergeRejectsShapeMismatch) {
  Histogram a(0.0, 10.0, 5);
  EXPECT_THROW(a.merge(Histogram(0.0, 10.0, 6)), InvariantError);
  EXPECT_THROW(a.merge(Histogram(0.0, 9.0, 5)), InvariantError);
  Histogram same(0.0, 10.0, 5);
  same.add(1.0);
  EXPECT_NO_THROW(a.merge(same));
  EXPECT_EQ(a.total(), 1u);
}

TEST(Stats, WilsonIntervalBracketsTruth) {
  // 3 failures in 1000 trials: interval must contain 0.003 and stay in [0,1].
  const auto p = wilson_interval(3, 1000);
  EXPECT_GT(p.hi, p.estimate);
  EXPECT_LT(p.lo, p.estimate);
  EXPECT_GE(p.lo, 0.0);
  EXPECT_LE(p.hi, 1.0);
  EXPECT_NEAR(p.estimate, 0.003, 1e-12);
}

TEST(Stats, WilsonIntervalZeroTrials) {
  const auto p = wilson_interval(0, 0);
  EXPECT_EQ(p.estimate, 0.0);
  EXPECT_EQ(p.lo, 0.0);
  EXPECT_EQ(p.hi, 0.0);
}

TEST(Stats, WilsonZeroSuccessesStillHasUpperBound) {
  const auto p = wilson_interval(0, 100);
  EXPECT_EQ(p.estimate, 0.0);
  EXPECT_GT(p.hi, 0.0) << "zero observed failures must not imply zero risk";
}

TEST(Strings, SplitAndTrim) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, Tokenize) {
  const auto toks = tokenize("  mov  r1, r2 \n");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "mov");
  EXPECT_EQ(toks[1], "r1,");
}

TEST(Strings, ParseIntVariants) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int("0xFF"), 255);
  EXPECT_EQ(parse_int("  7 "), 7);
  EXPECT_THROW((void)parse_int("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_int("12junk"), std::invalid_argument);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e-3"), -1e-3);
  EXPECT_THROW((void)parse_double("zz"), std::invalid_argument);
}

TEST(Strings, FormatSi) {
  EXPECT_EQ(format_si(1.5e6), "1.5M");
  EXPECT_EQ(format_si(2.0e3), "2k");
  EXPECT_EQ(format_si(0.002), "2m");
}

TEST(Strings, PrefixSuffix) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_TRUE(ends_with("kernel.cpp", ".cpp"));
  EXPECT_EQ(to_lower("AbC"), "abc");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"metric", "value"});
  t.add_row({"speedup", "12.5"});
  t.add_row_numeric("events/s", {1.0e6});
  const auto s = t.render();
  EXPECT_NE(s.find("| metric"), std::string::npos);
  EXPECT_NE(s.find("speedup"), std::string::npos);
  EXPECT_NE(s.find("1e+06"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.render().find("only"), std::string::npos);
}

}  // namespace
