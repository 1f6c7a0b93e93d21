// CRC-32 (IEEE 802.3 polynomial, reflected) used to detect corrupted
// datagrams at the wire layer. Corruption on lossy wireless links is one of
// the failure modes the event bus reliability protocol must survive.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace amuse {

/// One-shot CRC-32 of a buffer.
[[nodiscard]] std::uint32_t crc32(BytesView data);

/// Incremental form: feed `crc` from a previous call (start with 0).
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc, BytesView data);

namespace detail {

/// The two kernels crc32_update() chooses between, for the tests that hold
/// each to the bitwise reference. Both take and return the same values as
/// crc32_update().
[[nodiscard]] std::uint32_t crc32_update_table(std::uint32_t crc,
                                               BytesView data);
/// Carry-less-multiply folding; only callable when crc32_has_clmul().
[[nodiscard]] std::uint32_t crc32_update_clmul(std::uint32_t crc,
                                               BytesView data);
/// True when this CPU has PCLMULQDQ (decided once, from CPUID).
[[nodiscard]] bool crc32_has_clmul();

}  // namespace detail
}  // namespace amuse
