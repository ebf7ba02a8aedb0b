#include "util/add_repeated.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/rng.hpp"

namespace anor::util {
namespace {

double plain_loop(double s, double v, std::int64_t k) {
  for (std::int64_t i = 0; i < k; ++i) s += v;
  return s;
}

std::uint64_t bits_of(double d) { return std::bit_cast<std::uint64_t>(d); }

/// ulp of a normal double: 2^(exponent - 52).
double ulp_of(double s) { return std::ldexp(1.0, std::ilogb(s) - 52); }

double random_sign(Rng& rng, double d) { return rng.uniform_int(0, 1) == 0 ? d : -d; }

/// A normal double of random significand in [2^lo, 2^hi).
double random_normal(Rng& rng, int lo, int hi) {
  return std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(rng.uniform_int(lo, hi - 1)));
}

/// Repetitions from 1 to 300,000: mostly short (log-uniform up to 1,000),
/// one case in a hundred long, so the loop oracle stays cheap.
std::int64_t random_count(Rng& rng) {
  const double top = rng.uniform_int(0, 99) == 0 ? 300'000.0 : 1'000.0;
  const double k = std::exp(rng.uniform(0.0, std::log(top)));
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(k));
}

struct Case {
  double s;
  double v;
  std::int64_t k;
};

Case random_case(Rng& rng, int kind) {
  std::int64_t k = random_count(rng);
  double s = 0.0;
  double v = 0.0;
  switch (kind) {
    case 0: {  // v an exact odd multiple of half an ulp of s: a tie
      s = random_sign(rng, random_normal(rng, -200, 200));
      const auto odd = static_cast<double>(2 * rng.uniform_int(0, 1 << 20) + 1);
      v = random_sign(rng, odd * ulp_of(s) / 2.0);
      break;
    }
    case 1: {  // same-sign adds that climb binades
      s = random_normal(rng, -60, 60);
      v = s * std::ldexp(rng.uniform(0.5, 1.0), -static_cast<int>(rng.uniform_int(0, 52)));
      if (rng.uniform_int(0, 1) == 0) {
        s = -s;
        v = -v;
      }
      break;
    }
    case 2: {  // adds against s that descend binades, some through zero
      s = random_sign(rng, random_normal(rng, -60, 60));
      v = -s * std::ldexp(rng.uniform(0.5, 1.0), -static_cast<int>(rng.uniform_int(0, 30)));
      break;
    }
    case 3: {  // ±0 starts
      s = random_sign(rng, 0.0);
      v = rng.uniform_int(0, 3) == 0
              ? std::bit_cast<double>(rng.next_u64() & 0x800fffffffffffffULL)
              : random_sign(rng, random_normal(rng, -80, 80));
      break;
    }
    case 4: {  // subnormal starts, with subnormal or tiny normal addends
      s = std::bit_cast<double>(rng.next_u64() & 0x800fffffffffffffULL);
      v = rng.uniform_int(0, 1) == 0
              ? std::bit_cast<double>(rng.next_u64() & 0x800fffffffffffffULL)
              : random_sign(rng, random_normal(rng, -1022, -1000));
      break;
    }
    case 5: {  // v == 0, from zero and nonzero starts
      s = rng.uniform_int(0, 3) == 0 ? random_sign(rng, 0.0)
                                      : random_sign(rng, random_normal(rng, -80, 80));
      v = random_sign(rng, 0.0);
      break;
    }
    case 6: {  // a sign change inside the run: s + k * v crosses zero
      s = random_sign(rng, random_normal(rng, -40, 40));
      v = -s / static_cast<double>(k) * rng.uniform(1.0, 4.0);
      break;
    }
    case 7: {  // the simulator's shapes: power runs and the busy floor
      if (rng.uniform_int(0, 1) == 0) {
        s = rng.uniform(0.0, 1e8);
        v = rng.uniform(50.0, 400.0);
      } else {
        v = rng.uniform(50.0, 200.0);
        s = plain_loop(rng.uniform(0.0, 1e6), v, k);
        v = -v;  // the finish that undoes a start
      }
      break;
    }
    case 8: {  // a few ulps from a binade edge, steps of a few ulps across it
      const int e = static_cast<int>(rng.uniform_int(-100, 100));
      const double edge = std::ldexp(1.0, e);
      const double ulp = std::ldexp(1.0, e - 52);  // above the edge; half that below
      const double j = static_cast<double>(rng.uniform_int(0, 64));
      // Whole ulps plus a fraction in 1/256ths: ties, quarters and the rest.
      const double ulps = static_cast<double>(rng.uniform_int(0, 8)) +
                          std::ldexp(static_cast<double>(rng.uniform_int(0, 255)), -8);
      if (rng.uniform_int(0, 1) == 0) {
        s = edge + j * ulp;  // down across the edge
        v = -ulps * ulp;
      } else {
        s = edge - j * ulp / 2;  // up across it
        v = ulps * ulp / 2;
      }
      if (rng.uniform_int(0, 1) == 0) {
        s = -s;
        v = -v;
      }
      break;
    }
    default: {  // arbitrary finite bit patterns
      do {
        s = std::bit_cast<double>(rng.next_u64());
      } while (!std::isfinite(s));
      do {
        v = std::bit_cast<double>(rng.next_u64());
      } while (!std::isfinite(v));
      if (rng.uniform_int(0, 1) == 0) {
        v = std::ldexp(v, -std::max(0, std::ilogb(v) - std::ilogb(s == 0.0 ? 1.0 : s) + 30));
      }
      break;
    }
  }
  return {s, v, k};
}

TEST(AddRepeated, MatchesThePlainLoopBitForBit) {
  Rng rng(20261018);
  constexpr int kCases = 220'000;  // 22,000 per kind
  int mismatches = 0;
  std::int64_t longest = 0;
  for (int i = 0; i < kCases; ++i) {
    const Case c = random_case(rng, i % 10);
    longest = std::max(longest, c.k);
    const double want = plain_loop(c.s, c.v, c.k);
    const double got = add_repeated(c.s, c.v, c.k);
    if (bits_of(got) != bits_of(want) && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << "kind " << i % 10 << ": s=" << c.s << " v=" << c.v
                    << " k=" << c.k << " got " << got << " want " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(longest, 100'000);
}

TEST(AddRepeated, EdgeCasesMatchThePlainLoop) {
  const double tiny = DBL_TRUE_MIN;
  const double big_subnormal = std::nextafter(DBL_MIN, 0.0);
  const Case cases[] = {
      {1.0, 1.0, 300'000},  // integers: every binade up to 2^18
      {300'000.0, -1.0, 300'000},  // down through every binade to exactly zero
      {1.0, 0x1p-53, 300'000},     // half an ulp of 1.0: a tie at every add
      {1.5, 0x1p-53, 1'000},       // ...which rounds up from an odd significand
      {1.0, 0x1.8p-53, 1'000},     // more than half an ulp: a step of 1
      {1.0, 0x1p-54, 1'000},       // under half an ulp: a fixed point
      {0.0, 0.1, 300'000},         {-0.0, 0.0, 100},  {-0.0, -0.0, 100},
      {0.0, -0.0, 100},            {-0.0, 0.1, 100},  {tiny, tiny, 300'000},
      {big_subnormal, tiny, 1'000},  // the subnormal range into the normals
      {DBL_MIN, -tiny, 1'000},       // the normals down into the subnormals
      {-1e-300, 3e-301, 1'000},      // a sign change near the bottom
      {DBL_MAX, DBL_MAX / 8, 100},   // overflow to infinity
      {1e308, 1e300, 300'000},       {5.0, -0.1, 300'000},
      {123.456, 0.0, 300'000},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(bits_of(add_repeated(c.s, c.v, c.k)), bits_of(plain_loop(c.s, c.v, c.k)))
        << std::hexfloat << "s=" << c.s << " v=" << c.v << " k=" << c.k;
  }
}

TEST(AddRepeated, NonFiniteAndEmptyInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(add_repeated(2.5, 1.0, 0), 2.5);
  EXPECT_EQ(add_repeated(2.5, 1.0, -7), 2.5);
  EXPECT_EQ(add_repeated(inf, 1.0, 1'000), inf);
  EXPECT_EQ(add_repeated(1.0, -inf, 1'000), -inf);
  EXPECT_TRUE(std::isnan(add_repeated(inf, -inf, 1'000)));
  EXPECT_TRUE(std::isnan(add_repeated(std::nan(""), 1.0, 1'000)));
}

}  // namespace
}  // namespace anor::util
