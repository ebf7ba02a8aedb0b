// Repeated floating-point addition in O(binade crossings).
//
// `for (k times) s += v;` rounds after every add, so its result is not
// s + k * v in general, and sums whose bits are pinned (the simulator's
// power series) must reproduce the loop exactly.  While s stays inside
// one binade [2^e, 2^(e+1)), every double there is a multiple of ulp(s),
// and s + v rounds to s + round(v / ulp(s)) * ulp(s): the same integer
// step on the significand each time.  add_repeated takes a whole stretch
// of such steps at once and one plain add at each binade crossing.
#pragma once

#include <cstdint>

namespace anor::util {

/// Exactly the bits `for (std::int64_t i = 0; i < k; ++i) s += v;`
/// returns (round-to-nearest-even, the default environment), for any
/// s and v.  Costs O(binade crossings) instead of O(k).  It adds one by
/// one where the integer step does not apply: below a small k, while s is
/// zero or subnormal, within a binade where v is an exact half-ulp tie
/// (the rounding then depends on the parity of each sum), and for
/// non-finite inputs.  k <= 0 returns s.
double add_repeated(double s, double v, std::int64_t k);

}  // namespace anor::util
