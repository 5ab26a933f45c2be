// Unit tests for the util module: RNG determinism and distributions,
// statistics, tables, and the CLI parser.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace isoee::util;

// --- RNG -------------------------------------------------------------------

TEST(Xoshiro, DeterministicFromSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Xoshiro, UniformInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, UniformMeanNearHalf) {
  Xoshiro256 rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro, BelowIsBounded) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Xoshiro, NormalMoments) {
  Xoshiro256 rng(17);
  const int n = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Xoshiro, JitterMeanNearOne) {
  Xoshiro256 rng(23);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.jitter(0.05);
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

// --- NPB randlc --------------------------------------------------------------

// NPB's randlc, the reference every integer path of NpbRandom is checked
// against: x = a*x mod 2^46 through the double-double decomposition of the
// NPB reference implementation; returns x * 2^-46.
double randlc(double& x, double a) {
  constexpr double r23 = 0x1.0p-23, t23 = 0x1.0p23;
  constexpr double r46 = 0x1.0p-46, t46 = 0x1.0p46;
  const double a1 = static_cast<double>(static_cast<long long>(r23 * a));
  const double a2 = a - t23 * a1;
  const double x1 = static_cast<double>(static_cast<long long>(r23 * x));
  const double x2 = x - t23 * x1;
  const double t1 = a1 * x2 + a2 * x1;
  const double t2 = static_cast<double>(static_cast<long long>(r23 * t1));
  const double z = t1 - t23 * t2;
  const double t3 = t23 * z + a2 * x2;
  const double t4 = static_cast<double>(static_cast<long long>(r46 * t3));
  x = t3 - t46 * t4;
  return r46 * x;
}

constexpr double kRandlcA = 1220703125.0;  // 5^13
constexpr std::uint64_t kLongSkip = (std::uint64_t{1} << 45) + 3;

// Advances x by n steps through randlc, squaring the multiplier.
void randlc_skip(double& x, std::uint64_t n) {
  double t = kRandlcA;
  while (n != 0) {
    if (n & 1ULL) (void)randlc(x, t);
    double tt = t;
    (void)randlc(t, tt);
    n >>= 1;
  }
}

// Both ends of the state range [1, 2^46) and a state a long skip away.
std::array<double, 3> state_range_seeds() {
  double far = 314159265.0;
  randlc_skip(far, kLongSkip);
  return {1.0, 0x1.0p46 - 1.0, far};
}

TEST(NpbRandom, NextAndSkipMatchTheRandlcReference) {
  for (const double seed : state_range_seeds()) {
    NpbRandom rng(seed);
    double x = seed;
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(rng.next(), randlc(x, kRandlcA)) << "seed=" << seed << " step=" << i;
      ASSERT_EQ(rng.seed(), x) << "seed=" << seed << " step=" << i;
    }
    const std::uint64_t skips[] = {0, 1, kLongSkip, (std::uint64_t{1} << 46) - 1};
    for (const std::uint64_t n : skips) {
      NpbRandom skipped(seed);
      double want = seed;
      skipped.skip(n);
      randlc_skip(want, n);
      EXPECT_EQ(skipped.seed(), want) << "seed=" << seed << " n=" << n;
      EXPECT_EQ(skipped.next(), randlc(want, kRandlcA)) << "seed=" << seed << " n=" << n;
    }
  }
  // The third state is 2^45+3 steps into the stream from 314159265.
  NpbRandom far(314159265.0);
  far.skip(kLongSkip);
  EXPECT_EQ(far.seed(), state_range_seeds()[2]);
}

TEST(NpbRandom, RejectsSeedsOutsideTheIntegerRange) {
  for (const double seed :
       {-1.0, 0.5, 0x1.0p46, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(NpbRandom{seed}, std::invalid_argument) << "seed=" << seed;
  }
  EXPECT_EQ(NpbRandom(0.0).seed(), 0.0);
  EXPECT_EQ(NpbRandom(0x1.0p46 - 1.0).seed(), 0x1.0p46 - 1.0);
}

TEST(NpbRandom, KnownFirstValue) {
  // randlc(314159265, 5^13) first step is a fixed, well-known stream.
  NpbRandom r(314159265.0);
  const double v = r.next();
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, 1.0);
  // Deterministic: same again from a fresh instance.
  NpbRandom r2(314159265.0);
  EXPECT_DOUBLE_EQ(v, r2.next());
}

TEST(NpbRandom, SkipMatchesSequentialAdvance) {
  NpbRandom a(314159265.0), b(314159265.0);
  for (int i = 0; i < 1000; ++i) (void)a.next();
  b.skip(1000);
  EXPECT_DOUBLE_EQ(a.seed(), b.seed());
  EXPECT_DOUBLE_EQ(a.next(), b.next());
}

TEST(NpbRandom, FillMatchesStepping) {
  // Every seed an NPB kernel in src/npb starts its stream from.
  for (const double seed : {314159265.0, 271828183.0}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
                                std::size_t{9}, std::size_t{4097}, std::size_t{2 * 32 * 32 * 32},
                                std::size_t{2 * 64 * 64 * 64}}) {
      NpbRandom stepped(seed), filled(seed);
      stepped.skip(12345);  // start mid-stream, as ranks do
      filled.skip(12345);
      std::vector<double> want(n), got(n);
      for (double& v : want) v = stepped.next();
      filled.fill(got);
      EXPECT_TRUE(n == 0 || std::memcmp(want.data(), got.data(), n * sizeof(double)) == 0)
          << "seed=" << seed << " n=" << n;
      EXPECT_EQ(filled.seed(), stepped.seed()) << "seed=" << seed << " n=" << n;
      EXPECT_EQ(filled.next(), stepped.next());
    }
  }
  // Kernels draw their streams in small back-to-back blocks, so each fill()
  // must leave the state exactly where the next one starts: sizes 1..17
  // cover every remainder of the 8 interleaved chains, 256 a full block,
  // and an empty fill leaves the state alone.
  for (const double seed : {314159265.0, 271828183.0}) {
    NpbRandom stepped(seed), filled(seed);
    stepped.skip(12345);
    filled.skip(12345);
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 17; ++n) sizes.push_back(n);
    sizes.push_back(256);
    sizes.push_back(0);
    sizes.push_back(256);
    for (const std::size_t n : sizes) {
      std::vector<double> want(n), got(n);
      for (double& v : want) v = stepped.next();
      filled.fill(got);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], want[i]) << "seed=" << seed << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(filled.seed(), stepped.seed()) << "seed=" << seed << " n=" << n;
    }
    EXPECT_EQ(filled.next(), stepped.next());
  }
}

TEST(NpbRandom, FillMatchesSteppingAcrossTheStateRange) {
  // fill() steps the state in 64-bit integers, so check it at both ends of
  // [1, 2^46) and at a state a long skip away, in blocks of one, one whole
  // round of the interleaved chains, a round and a tail, and many rounds.
  NpbRandom far(314159265.0);
  far.skip((1ULL << 45) + 3);
  for (const double seed : {1.0, 0x1.0p46 - 1.0, far.seed()}) {
    NpbRandom stepped(seed), filled(seed);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{8}, std::size_t{13}, std::size_t{4099}}) {
      std::vector<double> want(n), got(n);
      for (double& v : want) v = stepped.next();
      filled.fill(got);
      EXPECT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(double)), 0)
          << "seed=" << seed << " n=" << n;
      EXPECT_EQ(filled.seed(), stepped.seed()) << "seed=" << seed << " n=" << n;
    }
  }
}

// fill() into a fixed-size array. Once fill is inlined with the size known
// at compile time, GCC -O3 checks the tail loop against the 8 chains; a tail
// bounded only by the array size draws -Waggressive-loop-optimizations
// ("iteration 8 invokes undefined behavior") and breaks the -Werror build.
// flatten inlines fill here as a small fixed-size caller would; in this
// file it has too many callers to be inlined otherwise. 512 is a whole
// number of chain rounds; 13 leaves a tail of 5.
template <std::size_t N>
[[gnu::flatten]] std::array<double, N> fill_array(NpbRandom& rng) {
  std::array<double, N> out{};
  rng.fill(out);
  return out;
}

TEST(NpbRandom, FillIntoFixedSizeArraysMatchesStepping) {
  for (const double seed : {314159265.0, 271828183.0}) {
    NpbRandom stepped(seed), filled(seed);
    stepped.skip(777);
    filled.skip(777);
    for (const double v : fill_array<512>(filled)) EXPECT_EQ(v, stepped.next());
    EXPECT_EQ(filled.seed(), stepped.seed()) << "seed=" << seed;
    for (const double v : fill_array<13>(filled)) EXPECT_EQ(v, stepped.next());
    EXPECT_EQ(filled.seed(), stepped.seed()) << "seed=" << seed;
  }
}

TEST(NpbPairStream, MatchesStepping) {
  for (const double seed : {314159265.0, 271828183.0}) {
    NpbRandom stepped(seed), start(seed);
    stepped.skip(12345);  // start mid-stream, as EP's ranks do
    start.skip(12345);
    const double before = start.seed();
    NpbPairStream pairs(start);
    for (int i = 0; i < 10000; ++i) {
      const double first = stepped.next();
      const double second = stepped.next();
      const auto [u, v] = pairs.next();
      ASSERT_EQ(u, first) << "seed=" << seed << " pair=" << i;
      ASSERT_EQ(v, second) << "seed=" << seed << " pair=" << i;
    }
    EXPECT_EQ(start.seed(), before);  // the source stream does not advance
  }
}

TEST(NpbPairStream, MatchesSteppingAcrossTheStateRange) {
  for (const double seed : state_range_seeds()) {
    double x = seed;
    NpbPairStream pairs{NpbRandom(seed)};
    for (int i = 0; i < 10000; ++i) {
      const double first = randlc(x, kRandlcA);
      const double second = randlc(x, kRandlcA);
      const auto [u, v] = pairs.next();
      ASSERT_EQ(u, first) << "seed=" << seed << " pair=" << i;
      ASSERT_EQ(v, second) << "seed=" << seed << " pair=" << i;
    }
  }
}

TEST(NpbRandom, SkipZeroIsIdentity) {
  NpbRandom a(271828183.0);
  const double before = a.seed();
  a.skip(0);
  EXPECT_DOUBLE_EQ(a.seed(), before);
}

TEST(NpbRandom, UniformCoverage) {
  NpbRandom r(314159265.0);
  int buckets[10] = {0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = r.next();
    buckets[static_cast<int>(v * 10)]++;
  }
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(buckets[b], n / 10, n / 50) << "bucket " << b;
  }
}

// --- stats -------------------------------------------------------------------

TEST(Stats, SummarizeBasics) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stdev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummarizeEmpty) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, FitLineExact) {
  const std::vector<double> xs = {0, 1, 2, 3, 4};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(2.5 + 1.5 * x);
  const LinearFit f = fit_line(xs, ys);
  EXPECT_NEAR(f.intercept, 2.5, 1e-12);
  EXPECT_NEAR(f.slope, 1.5, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, FitLineDegenerateX) {
  const std::vector<double> xs = {2, 2, 2};
  const std::vector<double> ys = {1, 2, 3};
  const LinearFit f = fit_line(xs, ys);
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_DOUBLE_EQ(f.intercept, 2.0);
}

TEST(Stats, Ape) {
  EXPECT_DOUBLE_EQ(ape(100.0, 105.0), 5.0);
  EXPECT_DOUBLE_EQ(ape(100.0, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(ape(0.0, 5.0), 0.0);
}

TEST(Stats, Percentile) {
  const std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

// --- table -------------------------------------------------------------------

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.add_row({"alpha", num(0.5, 2)});
  t.add_row({"longer-name", num(12.0, 1)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("0.50"), std::string::npos);
  EXPECT_NE(s.find("12.0"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, RowPadding) {
  Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_EQ(t.rows(), 1u);
  // CSV row must still have 3 fields (2 commas).
  const std::string csv = t.to_csv();
  const auto last_line = csv.substr(csv.find('\n') + 1);
  EXPECT_EQ(std::count(last_line.begin(), last_line.end(), ','), 2);
}

TEST(Table, Formatters) {
  EXPECT_EQ(num(3.14159, 2), "3.14");
  EXPECT_EQ(num(42LL), "42");
  EXPECT_EQ(pct(4.99), "4.99%");
  EXPECT_EQ(sci(12345.0, 2), "1.23e+04");
}

// num17 goes through std::to_chars; every serializer that prints a
// round-trip double (service replies, model texts, traces, metrics) relies
// on it printing exactly what snprintf("%.17g") did.
TEST(Table, Num17MatchesPrintfG17ByteForByte) {
  const auto printf_g17 = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double named[] = {0.0,
                          -0.0,
                          inf,
                          -inf,
                          nan,
                          -nan,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::epsilon(),
                          1e-6,
                          2.8,
                          3.0,
                          1e22,
                          1e17,
                          1e16,
                          123456789012345678.0,
                          0.1,
                          -1.5e-300};
  for (double v : named) EXPECT_EQ(num17(v), printf_g17(v)) << printf_g17(v);

  std::string appended = "x=";
  append_num17(appended, 2.8);
  EXPECT_EQ(appended, "x=2.7999999999999998");

  // Random bit patterns reach every exponent, subnormals and NaN payloads.
  Xoshiro256 rng(17);
  int differ = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (num17(v) != printf_g17(v) && ++differ <= 5) {
      ADD_FAILURE() << "num17 " << num17(v) << " vs %.17g " << printf_g17(v);
    }
  }
  EXPECT_EQ(differ, 0);
}

// --- cli ---------------------------------------------------------------------

TEST(Cli, ParsesFlagsAndDefaults) {
  Cli cli("test");
  cli.flag("p", "4", "ranks").flag("size", "1000", "n").flag("verbose", "false", "log");
  const char* argv[] = {"prog", "--p=8", "--verbose"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("p"), 8);
  EXPECT_EQ(cli.get_int("size"), 1000);  // default
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, SpaceSeparatedValue) {
  Cli cli("test");
  cli.flag("freq", "2.8", "GHz");
  const char* argv[] = {"prog", "--freq", "2.0"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("freq"), 2.0);
}

TEST(Cli, MalformedNumbersThrowNamingTheFlag) {
  Cli cli("test");
  cli.flag("seed", "", "seed").flag("jobs", "1", "budget").flag("cap", "1.5", "watts");
  const char* argv[] = {"prog", "--seed", "--jobs", "two", "--cap=3e2"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("cap"), 300.0);
  try {
    (void)cli.get_int("jobs");
    ADD_FAILURE() << "--jobs two parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--jobs: 'two' is not a whole number");
  }
  EXPECT_THROW((void)cli.get_int("seed"), std::invalid_argument);  // bare: "true"
  for (const char* bad : {"", "abc", "12abc", "2.5", " 7", "99999999999999999999"}) {
    Cli one("test");
    one.flag("n", bad, "n");
    EXPECT_THROW((void)one.get_int("n"), std::invalid_argument) << "'" << bad << "'";
  }
  for (const char* bad : {"", "1.5W", "x", "1e999"}) {
    Cli one("test");
    one.flag("x", bad, "x");
    EXPECT_THROW((void)one.get_double("x"), std::invalid_argument) << "'" << bad << "'";
  }
  Cli negative("test");
  negative.flag("n", "-3", "n");
  EXPECT_EQ(negative.get_int("n"), -3);
}

TEST(Cli, OutOfRangeNumbersThrowNamingTheFlag) {
  Cli cli("test");
  cli.flag("port", "70000", "port").flag("jobs", "-1", "budget").flag("queue", "1", "cap");
  try {
    (void)cli.get_int("port", 0, 65535);
    ADD_FAILURE() << "--port 70000 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--port: 70000 is above the maximum 65535");
  }
  try {
    (void)cli.get_int("jobs", 0);
    ADD_FAILURE() << "--jobs -1 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--jobs: -1 is below the minimum 0");
  }
  EXPECT_EQ(cli.get_int("queue", 1, 1), 1);  // bounds are inclusive
  EXPECT_THROW((void)cli.get_int("queue", 2), std::invalid_argument);
}

TEST(Cli, RejectsUnknownFlag) {
  Cli cli("test");
  cli.flag("p", "4", "ranks");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, PositionalArguments) {
  Cli cli("test");
  cli.flag("p", "4", "ranks");
  const char* argv[] = {"prog", "input.txt", "--p=2", "more"};
  ASSERT_TRUE(cli.parse(4, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "more");
}

TEST(Cli, NoPositionalRejectsStrayArguments) {
  // A mistyped `--flag value` (for a flag spelled `--flag=value`) must fail
  // loudly instead of being silently ignored as a positional.
  Cli cli("test");
  cli.no_positional().flag("p", "4", "ranks");
  const char* argv[] = {"prog", "--p=2", "stray"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(Cli, NoPositionalStillAcceptsFlags) {
  Cli cli("test");
  cli.no_positional().flag("p", "4", "ranks").flag("verbose", "false", "log");
  const char* argv[] = {"prog", "--p=8", "--verbose"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("p"), 8);
  EXPECT_TRUE(cli.get_bool("verbose"));
}

}  // namespace

// --- log ----------------------------------------------------------------------

TEST(Log, LevelParsing) {
  using isoee::util::LogLevel;
  using isoee::util::parse_log_level;
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kInfo);
}

TEST(Log, SinkCapturesMessagesAboveLevel) {
  using namespace isoee::util;
  const LogLevel prev = log_level();
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  set_log_sink(tmp);
  set_log_level(LogLevel::kWarn);
  ISOEE_INFO("should be suppressed %d", 1);
  ISOEE_WARN("should appear %d", 42);
  set_log_sink(nullptr);
  set_log_level(prev);

  std::rewind(tmp);
  char buf[512] = {0};
  const size_t got = std::fread(buf, 1, sizeof(buf) - 1, tmp);
  std::fclose(tmp);
  const std::string text(buf, got);
  EXPECT_EQ(text.find("suppressed"), std::string::npos);
  EXPECT_NE(text.find("should appear 42"), std::string::npos);
  EXPECT_NE(text.find("WARN"), std::string::npos);
}
