// FNV-1a 64: the one byte hash behind child-stream tags, result-cache
// keys, expression-policy identities and the recorded result and trace
// hashes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace anor::util {

/// The published FNV-1a 64 offset basis (child-stream tags start here).
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;
/// The basis the cache keys, the policy identities and every recorded
/// result and trace hash start from: the published one without its last
/// decimal digit.  Changing it would change all of them.
inline constexpr std::uint64_t kFnv1aRecordBasis = 1469598103934665603ULL;

inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// FNV-1a 64 of `bytes`, continuing from state `h`.
constexpr std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnv1aBasis) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// Same, over `size` raw bytes (the object representation of PODs).
inline std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  return fnv1a(std::string_view(static_cast<const char*>(data), size), h);
}

/// Sixteen lower-case hex digits, zero-padded: how hashes are printed.
inline std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace anor::util
