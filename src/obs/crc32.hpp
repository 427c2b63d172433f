// CRC-32 (IEEE 802.3: reflected polynomial 0xedb88320, initial value and
// final xor 0xffffffff) — the one checksum of every LORE byte format that
// leaves a process: LORECKP1 checkpoint frames (src/common/campaign.cpp) and
// `lore.flight.v1` ring records (flight.cpp).
//
// Slice-by-8: eight bytes per step through eight compile-time tables, so no
// table is built at run time — the flight recorder's fatal-signal path may
// call it before anything else has run. Like netutil, it carries no
// observability state and does not compile out under -DLORE_OBS=OFF.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lore::obs {

/// CRC-32 of `n` bytes at `data` (any alignment). crc32("123456789") is
/// 0xcbf43926.
std::uint32_t crc32(const void* data, std::size_t n);

}  // namespace lore::obs
