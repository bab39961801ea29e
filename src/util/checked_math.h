// Overflow-checked int64 arithmetic for untrusted inputs (job fields that
// arrive over the wire or from trace files), where signed overflow would be
// undefined behaviour rather than a rejected request.
#pragma once

#include <cstdint>
#include <optional>

namespace hs {

/// a * b + c, or nullopt when the product or the sum overflows int64.
inline std::optional<std::int64_t> CheckedMulAdd(std::int64_t a, std::int64_t b,
                                                 std::int64_t c) {
  std::int64_t product = 0;
  std::int64_t sum = 0;
  if (__builtin_mul_overflow(a, b, &product) ||
      __builtin_add_overflow(product, c, &sum)) {
    return std::nullopt;
  }
  return sum;
}

}  // namespace hs
