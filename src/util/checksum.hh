/**
 * @file
 * Data-integrity checksums for persisted artifacts. The serving tier
 * writes every model stream under a CRC64 (ECMA-182 polynomial,
 * reflected, the xz/GNU variant) so a torn write, a truncated file,
 * or a flipped bit is detected at load time as a recoverable error
 * instead of being parsed into a silently-wrong model. The
 * implementation is a standard 256-entry table computed at first use;
 * incremental updates let callers checksum streams without buffering
 * them twice. The file also holds mix64, the one 64-bit hash mixer
 * every non-cryptographic key hash in the tree uses.
 */

#ifndef HETEROMAP_UTIL_CHECKSUM_HH
#define HETEROMAP_UTIL_CHECKSUM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace heteromap {

/**
 * Incremental CRC64 (ECMA-182, reflected; CRC-64/XZ parameters:
 * init and xorout all-ones). Feed bytes with update(), read the
 * digest with value(); value() may be read mid-stream and feeding
 * may continue afterwards.
 */
class Crc64
{
  public:
    Crc64() = default;

    /** Fold @p size bytes at @p data into the running checksum. */
    void update(const void *data, std::size_t size);

    /** Convenience overload for string payloads. */
    void
    update(std::string_view text)
    {
        update(text.data(), text.size());
    }

    /** The checksum of everything fed so far. */
    uint64_t value() const { return state_ ^ kXorOut; }

    /** Reset to the empty-input state. */
    void reset() { state_ = kXorOut; }

  private:
    static constexpr uint64_t kXorOut = ~0ull;
    uint64_t state_ = kXorOut;
};

/**
 * SplitMix64 finalizer: the repo's standard cheap 64-bit mixer (hash
 * keys, fingerprints, shard routing, temp-file suffixes).
 */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One-shot CRC64 of @p text. */
uint64_t crc64(std::string_view text);

/** Render @p checksum as fixed-width lowercase hex (16 digits). */
std::string checksumToHex(uint64_t checksum);

/**
 * Parse a checksumToHex() rendering. @return false (leaving @p out
 * untouched) when @p text is not exactly 16 hex digits.
 */
bool checksumFromHex(std::string_view text, uint64_t &out);

} // namespace heteromap

#endif // HETEROMAP_UTIL_CHECKSUM_HH
