/**
 * @file
 * Cache geometry: the static dimensions of a cache and its division
 * into SRAM subarrays.
 *
 * Modern high-performance caches split the tag and data arrays into
 * subarrays of SRAM rows (Wilson & Jouppi, WRL TR 93/5). Resizable
 * caches enable/disable whole subarrays, so all resizing arithmetic in
 * this project is expressed against this geometry: a cache of
 * @c size bytes and associativity @c assoc has @c assoc ways of
 * <tt>size/assoc</tt> bytes, each way divided into subarrays of
 * @c subarraySize bytes holding <tt>subarraySize/blockSize</tt> sets.
 */

#ifndef RCACHE_CACHE_GEOMETRY_HH
#define RCACHE_CACHE_GEOMETRY_HH

#include <cstdint>
#include <string>

#include "util/bitops.hh"

namespace rcache
{

/** Static dimensions of a (possibly resizable) cache. */
struct CacheGeometry
{
    /** Total capacity in bytes at full size. */
    std::uint64_t size = 32 * 1024;
    /** Associativity at full size. */
    unsigned assoc = 2;
    /** Cache block (line) size in bytes. */
    unsigned blockSize = 32;
    /** SRAM subarray size in bytes (paper: 1K for L1). */
    unsigned subarraySize = 1024;

    /** Bytes per way. */
    std::uint64_t waySize() const { return size / assoc; }
    /** Number of sets at full size. */
    std::uint64_t numSets() const { return size / (assoc * blockSize); }
    /** Subarrays in one way. */
    unsigned subarraysPerWay() const
    {
        return static_cast<unsigned>(waySize() / subarraySize);
    }
    /** Sets resident in one subarray. */
    unsigned setsPerSubarray() const { return subarraySize / blockSize; }
    /** Total subarrays in the data array. */
    unsigned totalSubarrays() const
    {
        return assoc * subarraysPerWay();
    }
    /**
     * Minimum number of enabled sets: one subarray per way (the paper's
     * floor for selective-sets resizing).
     */
    std::uint64_t minSets() const { return setsPerSubarray(); }

    /** log2(blockSize): number of block-offset address bits. */
    unsigned blockBits() const { return floorLog2(blockSize); }

    bool operator==(const CacheGeometry &o) const = default;

    /**
     * Check internal consistency (powers of two, subarray divides way,
     * block divides subarray). @return empty string if valid, else
     * every violation, joined by "; ".
     */
    std::string validate() const;
};

} // namespace rcache

#endif // RCACHE_CACHE_GEOMETRY_HH
