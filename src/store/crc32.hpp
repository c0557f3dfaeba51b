/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, reflected) used by the archive
 * containers to detect corruption. Every compressed blob of a segment
 * record carries the CRC of its *compressed* bytes, so a bit flip is
 * caught before the LZ77 decoder or the deserializer ever see it.
 */

#ifndef DELOREAN_STORE_CRC32_HPP_
#define DELOREAN_STORE_CRC32_HPP_

#include <array>
#include <cstddef>
#include <cstdint>

namespace delorean
{

namespace crc32_detail
{

constexpr std::array<std::uint32_t, 256>
makeTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

inline constexpr std::array<std::uint32_t, 256> kTable = makeTable();

} // namespace crc32_detail

/** CRC-32 of @p size bytes at @p data. */
inline std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = crc32_detail::kTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace delorean

#endif // DELOREAN_STORE_CRC32_HPP_
