// FNV-1a over raw bytes: the decision fingerprints of the scale world, the
// scenario grid and its fig7 witness. Doubles hash by bit pattern, so a
// fingerprint catches sub-ulp drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mfhttp {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const unsigned char* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i32(std::int32_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
};

}  // namespace mfhttp
