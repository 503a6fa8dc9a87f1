// Unit tests for src/common: rng (incl. Zipf), ring buffer, config, clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/clock.h"
#include "common/config.h"
#include "common/ring_buffer.h"
#include "common/rng.h"

namespace volley {
namespace {

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(7);
  std::map<std::int64_t, int> seen;
  for (int i = 0; i < 5000; ++i) ++seen[rng.uniform_int(1, 6)];
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen.begin()->first, 1);
  EXPECT_EQ(seen.rbegin()->first, 6);
}

TEST(Rng, NormalMatchesMoments) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(7.5));
  EXPECT_NEAR(sum / n, 7.5, 0.1);
}

TEST(Rng, BernoulliFrequencyMatches) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.fork();
  // The child stream should not replay the parent's.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == child.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(5, -0.1), std::invalid_argument);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution zipf(100, 1.2);
  double sum = 0;
  for (std::size_t r = 1; r <= 100; ++r) sum += zipf.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Zipf, ZeroSkewIsUniform) {
  ZipfDistribution zipf(10, 0.0);
  for (std::size_t r = 1; r <= 10; ++r) EXPECT_NEAR(zipf.pmf(r), 0.1, 1e-12);
}

TEST(Zipf, MassDecreasesWithRank) {
  ZipfDistribution zipf(50, 1.0);
  for (std::size_t r = 2; r <= 50; ++r) {
    EXPECT_LT(zipf.pmf(r), zipf.pmf(r - 1));
  }
}

TEST(Zipf, SampleFrequenciesTrackPmf) {
  ZipfDistribution zipf(20, 1.0);
  Rng rng(5);
  std::vector<int> counts(21, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 1; r <= 20; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, zipf.pmf(r), 0.01);
  }
}

TEST(Zipf, PmfRejectsOutOfRange) {
  ZipfDistribution zipf(5, 1.0);
  EXPECT_THROW(zipf.pmf(0), std::out_of_range);
  EXPECT_THROW(zipf.pmf(6), std::out_of_range);
}

TEST(RingBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

TEST(RingBuffer, FillsThenOverwritesOldest) {
  RingBuffer<int> buf(3);
  EXPECT_TRUE(buf.empty());
  buf.push(1);
  buf.push(2);
  buf.push(3);
  EXPECT_TRUE(buf.full());
  EXPECT_EQ(buf.front(), 1);
  buf.push(4);
  EXPECT_EQ(buf.front(), 2);
  EXPECT_EQ(buf.back(), 4);
  EXPECT_EQ(buf.size(), 3u);
}

TEST(RingBuffer, IndexIsOldestFirst) {
  RingBuffer<int> buf(4);
  for (int i = 0; i < 10; ++i) buf.push(i);
  EXPECT_EQ(buf[0], 6);
  EXPECT_EQ(buf[1], 7);
  EXPECT_EQ(buf[2], 8);
  EXPECT_EQ(buf[3], 9);
}

TEST(RingBuffer, ToVectorPreservesOrder) {
  RingBuffer<int> buf(3);
  for (int i = 0; i < 5; ++i) buf.push(i);
  const std::vector<int> expected{2, 3, 4};
  EXPECT_EQ(buf.to_vector(), expected);
}

TEST(RingBuffer, WrapMatchesModuloIndexingAcrossWraps) {
  // Reference: the same ring indexed with `%`, as RingBuffer once was.
  struct ModuloRing {
    std::vector<std::size_t> buf;
    std::size_t head{0}, size{0};
    void push(std::size_t v) {
      buf[(head + size) % buf.size()] = v;
      if (size == buf.size()) {
        head = (head + 1) % buf.size();
      } else {
        ++size;
      }
    }
    std::size_t at(std::size_t i) const { return buf[(head + i) % buf.size()]; }
  };
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3},
                                     std::size_t{4096}}) {
    RingBuffer<std::size_t> buf(capacity);
    ModuloRing ref{std::vector<std::size_t>(capacity)};
    const std::size_t pushes = 5 * capacity + 2;  // several full wraps
    for (std::size_t n = 0; n < pushes; ++n) {
      buf.push(n * 7 + 1);
      ref.push(n * 7 + 1);
      ASSERT_EQ(buf.size(), ref.size);
      // Every slot near the wrap points; a sparse sample elsewhere keeps
      // the 4096 case quick.
      const std::size_t phase = n % capacity;
      const bool every = capacity < 64 || phase < 2 || phase + 2 >= capacity;
      for (std::size_t i = 0; i < ref.size; i += every ? 1 : 97) {
        ASSERT_EQ(buf[i], ref.at(i))
            << "capacity " << capacity << " push " << n << " index " << i;
      }
      ASSERT_EQ(buf.back(), ref.at(ref.size - 1));
    }
    EXPECT_EQ(buf.front(), (pushes - capacity) * 7 + 1);
  }
}

TEST(RingBuffer, ClearEmpties) {
  RingBuffer<int> buf(3);
  buf.push(1);
  buf.clear();
  EXPECT_TRUE(buf.empty());
  buf.push(9);
  EXPECT_EQ(buf.front(), 9);
}

TEST(Config, ParsesArgsAndTypes) {
  const auto cfg = Config::from_args({"port=8080", "rate=2.5", "on=true"});
  EXPECT_EQ(cfg.get_int("port", 0), 8080);
  EXPECT_DOUBLE_EQ(cfg.get_double("rate", 0.0), 2.5);
  EXPECT_TRUE(cfg.get_bool("on", false));
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
}

TEST(Config, LaterDuplicatesWin) {
  const auto cfg = Config::from_args({"a=1", "a=2"});
  EXPECT_EQ(cfg.get_int("a", 0), 2);
}

TEST(Config, RejectsMalformedToken) {
  EXPECT_THROW(Config::from_args({"noequals"}), std::invalid_argument);
}

TEST(Config, RejectsBadTypedValues) {
  const auto cfg = Config::from_args({"x=abc", "b=maybe"});
  EXPECT_THROW(cfg.get_int("x", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_bool("b", false), std::invalid_argument);
}

TEST(Config, ParsesTextWithCommentsAndBlanks) {
  const auto cfg = Config::from_args({"a=1", "# comment", "", "b=two", "c=3"});
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_string("b", ""), "two");
  EXPECT_EQ(cfg.get_int("c", 0), 3);
  EXPECT_FALSE(cfg.has("# comment"));
}

}  // namespace
}  // namespace volley
