#include "common/crc32.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#define AMUSE_CRC32_CLMUL 1
#endif

namespace amuse {
namespace {

// Slicing-by-8 (Kounavis & Berry): kTables[0] is the classic reflected
// byte table; kTables[k][i] is the CRC of byte i followed by k zero bytes,
// so eight table lookups fold eight input bytes per step.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian load assembled from bytes, so the result does not depend
// on host byte order or alignment (compilers fold it into one load).
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Advances the raw (non-inverted) register `c` over `n` bytes at `p`.
std::uint32_t table_step(std::uint32_t c, const std::uint8_t* p,
                         std::size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = load_le32(p) ^ c;
    std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#ifdef AMUSE_CRC32_CLMUL

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of 0xEDB88320. Each constant is x^k mod P(x) for the
// fold distance k, reflected; the last pair is P(x) itself and the Barrett
// quotient floor(x^64 / P(x)).
//   k1, k2: fold 512 bits (four lanes of 128) forward;
//   k3, k4: fold 128 bits forward;
//   k5:     fold 64 bits down to 32 (plus 32 zero bits);
//   P, mu:  Barrett reduction of the remaining 64 bits to the CRC.
constexpr std::uint64_t kK1 = 0x0154442bd4;
constexpr std::uint64_t kK2 = 0x01c6e41596;
constexpr std::uint64_t kK3 = 0x01751997d0;
constexpr std::uint64_t kK4 = 0x00ccaa009e;
constexpr std::uint64_t kK5 = 0x0163cd6124;
constexpr std::uint64_t kPoly = 0x01db710641;
constexpr std::uint64_t kMu = 0x01f7011641;

inline __m128i pair(std::uint64_t lo, std::uint64_t hi) {
  return _mm_set_epi64x(static_cast<long long>(hi), static_cast<long long>(lo));
}

inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Its low half times k's low half plus its high half times k's high half:
// `x` carried 512 bits (k1/k2) or 128 bits (k3/k4) forward, ready to xor
// onto the block that far ahead.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Advances the raw register `c` over `n` >= 16 bytes; returns the register
/// after the last whole 16-byte block, leaving `n % 16` bytes to the caller.
__attribute__((target("pclmul"))) std::uint32_t clmul_step(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  __m128i x1 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  p += 16;
  n -= 16;
  if (n >= 48) {
    // Four lanes, each folded 512 bits forward per 64-byte step.
    __m128i x2 = load128(p);
    __m128i x3 = load128(p + 16);
    __m128i x4 = load128(p + 32);
    p += 48;
    n -= 48;
    const __m128i k12 = pair(kK1, kK2);
    for (; n >= 64; p += 64, n -= 64) {
      x1 = _mm_xor_si128(fold(x1, k12), load128(p));
      x2 = _mm_xor_si128(fold(x2, k12), load128(p + 16));
      x3 = _mm_xor_si128(fold(x3, k12), load128(p + 32));
      x4 = _mm_xor_si128(fold(x4, k12), load128(p + 48));
    }
    const __m128i k34 = pair(kK3, kK4);
    x1 = _mm_xor_si128(fold(x1, k34), x2);
    x1 = _mm_xor_si128(fold(x1, k34), x3);
    x1 = _mm_xor_si128(fold(x1, k34), x4);
  }
  const __m128i k34 = pair(kK3, kK4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = _mm_xor_si128(fold(x1, k34), load128(p));
  }

  // 128 → 64 bits: the low half times k4, onto the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k34, 0x10));
  // 64 → 32 bits (appending 32 zero bits): the low word times k5.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32),
                                          pair(kK5, 0), 0x00));
  // Barrett: q = (low32(x) · mu) mod x^32, crc = x xor (q · P).
  const __m128i pmu = pair(kPoly, kMu);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), pmu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pmu, 0x00);
  x1 = _mm_xor_si128(x1, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

bool detect_clmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul");
}

#endif  // AMUSE_CRC32_CLMUL

// Below one 16-byte block the folding kernel has nothing to fold.
constexpr std::size_t kClmulMin = 16;

}  // namespace

namespace detail {

std::uint32_t crc32_update_table(std::uint32_t crc, BytesView data) {
  return table_step(crc ^ 0xFFFFFFFFU, data.data(), data.size()) ^ 0xFFFFFFFFU;
}

std::uint32_t crc32_update_clmul(std::uint32_t crc, BytesView data) {
  std::uint32_t c = crc ^ 0xFFFFFFFFU;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#ifdef AMUSE_CRC32_CLMUL
  if (n >= kClmulMin) {
    c = clmul_step(c, p, n);
    p += n & ~std::size_t{15};
    n &= 15;
  }
#endif
  return table_step(c, p, n) ^ 0xFFFFFFFFU;
}

bool crc32_has_clmul() {
#ifdef AMUSE_CRC32_CLMUL
  static const bool has = detect_clmul();
  return has;
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t crc32_update(std::uint32_t crc, BytesView data) {
  if (data.size() >= kClmulMin && detail::crc32_has_clmul()) {
    return detail::crc32_update_clmul(crc, data);
  }
  return detail::crc32_update_table(crc, data);
}

std::uint32_t crc32(BytesView data) { return crc32_update(0, data); }

}  // namespace amuse
