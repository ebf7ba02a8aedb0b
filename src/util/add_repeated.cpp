#include "util/add_repeated.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace anor::util {
namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
constexpr std::uint64_t kHiddenBit = std::uint64_t{1} << 52;
constexpr std::uint64_t kFractionMask = kHiddenBit - 1;
constexpr int kMaxBiasedExponent = 0x7ff;  // inf and NaN

/// Fewer adds than this go one by one: splitting them costs about as much.
constexpr std::int64_t kPlainBelow = 32;

/// Take as many of the next `k` adds as keep s inside its binade, as one
/// integer step on the significand; returns how many it took (0 when the
/// step does not apply, and the caller adds once).
std::int64_t add_within_binade(double& s, double v, std::int64_t k) {
  const auto bits = std::bit_cast<std::uint64_t>(s);
  const auto biased_exponent = static_cast<int>(bits >> 52 & 0x7ff);
  if (biased_exponent == 0 || biased_exponent == kMaxBiasedExponent) return 0;
  // Round-to-nearest-even is symmetric under negation, so a negative s
  // is its magnitude plus -v, mirrored back at the end.
  const std::uint64_t sign = bits & kSignBit;
  const double w = sign != 0 ? -v : v;
  // ulp(s) = 2^(biased_exponent - 1075); built from bits, since it is
  // subnormal for the lowest 52 binades.
  const double ulp = std::bit_cast<double>(
      biased_exponent > 52 ? static_cast<std::uint64_t>(biased_exponent - 52) << 52
                           : std::uint64_t{1} << (biased_exponent - 1));
  // w in ulps: exact (a power-of-two scaling) unless it is below 2^-1022,
  // where it rounds to a step of 0 either way.
  const double x = w / ulp;
  if (!(std::abs(x) < 0x1p52)) return 0;  // leaves the binade in one add
  const double whole = std::floor(x);
  const double fraction = x - whole;  // exact below 2^52
  if (fraction == 0.5) return 0;      // a half-ulp tie
  const auto step = static_cast<std::int64_t>(fraction < 0.5 ? whole : whole + 1.0);
  if (step == 0) return 0;  // s + v == s: the caller's add finds the fixed point

  // Each add lands on m + step exactly when the exact sum m + x stays in
  // the binade [2^52, 2^53); |x - step| < 1/2, so keeping every result in
  // [2^52 + 1, 2^53 - 1] is enough.
  constexpr std::int64_t kLowest = (std::int64_t{1} << 52) + 1;
  constexpr std::int64_t kHighest = (std::int64_t{1} << 53) - 1;
  const auto m = static_cast<std::int64_t>((bits & kFractionMask) | kHiddenBit);
  const std::int64_t room = step > 0 ? (kHighest - m) / step : (m - kLowest) / -step;
  if (room <= 0) return 0;
  const std::int64_t taken = std::min(room, k);
  const auto result = static_cast<std::uint64_t>(m + taken * step);
  s = std::bit_cast<double>(sign | static_cast<std::uint64_t>(biased_exponent) << 52 |
                            (result & kFractionMask));
  return taken;
}

}  // namespace

double add_repeated(double s, double v, std::int64_t k) {
  if (k < kPlainBelow || !std::isfinite(s) || !std::isfinite(v)) {
    for (; k > 0; --k) s += v;
    return s;
  }
  while (k > 0) {
    k -= add_within_binade(s, v, k);
    if (k == 0) break;
    // One plain add: a binade crossing, a tie, a zero or subnormal s.
    const double next = s + v;
    --k;
    // s + v == s repeats forever; for ±0 the add settles the sign of
    // zero, and the next add keeps it.
    if (next == s) return next;
    s = next;
  }
  return s;
}

}  // namespace anor::util
