// Unit tests for src/util: RNG determinism and distribution sanity, the
// dynamic bitset, thread pool / parallel_for, table formatting and CLI
// parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <sstream>

#include "util/bitset.hpp"
#include "util/cli.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spgcmp::util;

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntHitsAllValues) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntSingleton) {
  Rng r(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(42, 42), 42);
}

TEST(Rng, CanonicalInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.canonical();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRealRespectsBounds) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform_real(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Rng, BernoulliProbability) {
  Rng r(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += r.bernoulli(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // Child stream should not replicate the parent stream.
  Rng b(21);
  (void)b.next();  // advance like the split did
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(DynBitset, SetTestReset) {
  DynBitset b(130);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(DynBitset, SetOperations) {
  DynBitset a(100), b(100);
  a.set(1);
  a.set(50);
  b.set(50);
  b.set(99);
  const auto u = a | b;
  EXPECT_EQ(u.count(), 3u);
  const auto i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(50));
  const auto d = a - b;
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
}

TEST(DynBitset, SubsetAndIntersects) {
  DynBitset a(70), b(70);
  a.set(3);
  b.set(3);
  b.set(69);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  DynBitset c(70);
  c.set(5);
  EXPECT_FALSE(a.intersects(c));
}

TEST(DynBitset, ForEachVisitsInOrder) {
  DynBitset b(200);
  const std::vector<std::size_t> bits = {0, 63, 64, 127, 199};
  for (auto i : bits) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, bits);
}

TEST(DynBitset, HashDiffersOnContent) {
  DynBitset a(64), b(64);
  a.set(1);
  b.set(2);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_FALSE(a == b);
  b.reset(2);
  b.set(1);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  parallel_for(5, 5, [&](std::size_t) { FAIL(); });
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   },
                   4),
      std::runtime_error);
}

TEST(Table, AlignedOutputContainsCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvQuoting) {
  Table t({"a"});
  t.add_row({"x,y\"z"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\"\"z\""), std::string::npos);
}

TEST(FmtDouble, StableFormatting) {
  EXPECT_EQ(fmt_double(1.5), "1.5");
  EXPECT_EQ(fmt_double(0.125, 3), "0.125");
}

TEST(Args, ParsesKeyValues) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "positional"};
  Args args(4, argv, {"alpha", "flag", "positional", "missing"});
  EXPECT_EQ(args.get("alpha"), "3");
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("positional"));
  EXPECT_EQ(args.get_int("alpha", "NO_SUCH_ENV", 7), 3);
  EXPECT_EQ(args.get_int("missing", "NO_SUCH_ENV", 7), 7);
}

TEST(Args, RejectsUnknownFlagsByName) {
  // Regression: unknown flags used to be ignored, so `bench_run_all --help`
  // or `--thread=4` ran the whole default grid.
  const char* typo[] = {"prog", "run", "--threads=4", "--thread=4"};
  try {
    const Args args(4, typo, {"threads", "out"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "unknown flag '--thread' (expected --threads, --out)");
  }
  // Known keys, with or without a value, and positionals are accepted.
  const char* ok[] = {"prog", "run", "--threads=4", "--out", "more"};
  const Args args(5, ok, {"threads", "out"});
  EXPECT_EQ(args.get("threads"), "4");
  EXPECT_EQ(args.get("out"), "");
}

TEST(Args, EnvFallback) {
  ::setenv("SPGCMP_TEST_ENV", "19", 1);
  const char* argv[] = {"prog"};
  Args args(1, argv, {"missing"});
  EXPECT_EQ(args.get_int("missing", "SPGCMP_TEST_ENV", 7), 19);
  ::unsetenv("SPGCMP_TEST_ENV");
}

TEST(Args, RejectsGarbageNumbersNamingTheFlag) {
  // Regression: a typo'd numeric flag used to escape as a bare stoll
  // exception ("what(): stoll"), aborting unattended bench runs with no
  // hint of which flag was wrong.
  const char* argv[] = {"prog", "--threads=abc", "--apps=3x"};
  Args args(3, argv, {"threads", "apps"});
  try {
    (void)args.get_int("threads", "NO_SUCH_ENV", 0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads=abc"), std::string::npos)
        << e.what();
  }
  // Trailing garbage after a valid prefix is rejected too.
  EXPECT_THROW((void)args.get_int("apps", "NO_SUCH_ENV", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("apps", "NO_SUCH_ENV", 0.0),
               std::invalid_argument);
}

// One strict grammar for every numeric surface (flags, spec values, solver
// options) — regression tests for the hand-rolled stoll/stod parsers that
// used to disagree on whitespace, '+' signs, hex and non-finite spellings.

TEST(ParseNumber, IntegerGrammar) {
  std::int64_t v = 0;
  EXPECT_EQ(parse_number("42", v), ParseStatus::Ok);
  EXPECT_EQ(v, 42);
  EXPECT_EQ(parse_number("-42", v), ParseStatus::Ok);
  EXPECT_EQ(v, -42);
  EXPECT_EQ(parse_number("0", v), ParseStatus::Ok);
  // stoll used to accept all of these:
  EXPECT_EQ(parse_number("+42", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number(" 42", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("42 ", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("0x10", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("4.2", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("9223372036854775807", v), ParseStatus::Ok);
  EXPECT_EQ(parse_number("9223372036854775808", v), ParseStatus::OutOfRange);
}

TEST(ParseNumber, DoubleGrammarIsFiniteDecimalOnly) {
  double v = 0.0;
  EXPECT_EQ(parse_number("1.5", v), ParseStatus::Ok);
  EXPECT_EQ(v, 1.5);
  EXPECT_EQ(parse_number("-2e-3", v), ParseStatus::Ok);
  EXPECT_EQ(v, -2e-3);
  EXPECT_EQ(parse_number("1e3", v), ParseStatus::Ok);
  // stod used to accept all of these:
  EXPECT_EQ(parse_number("nan", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("NaN", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("inf", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("-infinity", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("0x1p-3", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("+1.5", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number(" 1.5", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("1.5 ", v), ParseStatus::Malformed);
  EXPECT_EQ(parse_number("1e999", v), ParseStatus::OutOfRange);
}

TEST(Args, SharedGrammarRejectsSignedWhitespaceAndNonFinite) {
  const char* argv[] = {"prog", "--a=+5", "--b= 5", "--c=nan", "--d=0x10"};
  Args args(5, argv, {"a", "b", "c", "d"});
  EXPECT_THROW((void)args.get_int("a", "NO_SUCH_ENV", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("b", "NO_SUCH_ENV", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("c", "NO_SUCH_ENV", 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_int("d", "NO_SUCH_ENV", 0), std::invalid_argument);
  try {
    (void)args.get_double("c", "NO_SUCH_ENV", 0.0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("a finite number"), std::string::npos)
        << e.what();
  }
}

}  // namespace
