/**
 * @file
 * Set-associative caches and the two-level memory hierarchy of §4.2:
 * banked L1 I/D caches (1-cycle hit), a shared L2 (12-cycle hit), and
 * main memory (58 cycles). Bank conflicts are modeled with per-bank
 * next-free-cycle counters; caches are lock-up free in the sense that
 * independent accesses to distinct banks proceed in parallel.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/config.h"

namespace msc {
namespace arch {

/**
 * LRU set-associative cache model (tags only). Block and set are
 * selected with shifts and masks, so the block size and the set count
 * must be powers of two. The bank count need not be: paperConfig
 * interleaves as many banks as PUs, and any PU count is valid, so the
 * bank is the block number's remainder.
 */
class Cache
{
  public:
    /** @throws std::invalid_argument when the block size or the set
     *  count (size / (block x assoc)) is not a power of two, or the
     *  way or bank count is zero. */
    explicit Cache(const CacheConfig &cfg);

    /**
     * Looks up @p addr; fills the line on miss.
     * @return true on hit.
     */
    bool access(uint64_t addr);

    /** Looks up without filling. */
    bool probe(uint64_t addr) const;

    unsigned hitLatency() const { return _cfg.hitLatency; }
    unsigned banks() const { return _cfg.banks; }
    unsigned blockBytes() const { return _cfg.blockBytes; }
    unsigned blockShift() const { return _blockShift; }

    uint64_t accesses() const { return _accesses; }
    uint64_t misses() const { return _misses; }

    unsigned
    bankOf(uint64_t addr) const
    {
        return unsigned((addr >> _blockShift) % _cfg.banks);
    }

  private:
    struct Line
    {
        uint64_t tag = ~0ull;
        uint64_t lru = 0;
        bool valid = false;
    };

    CacheConfig _cfg;
    unsigned _blockShift = 0;   ///< log2(blockBytes).
    unsigned _setShift = 0;     ///< log2(number of sets).
    uint64_t _setMask = 0;      ///< Number of sets - 1.
    std::vector<Line> _lines;   ///< numSets * assoc.
    uint64_t _tick = 0;
    uint64_t _accesses = 0;
    uint64_t _misses = 0;
};

/**
 * The shared data-side hierarchy: L1D -> L2 -> memory, with L1 bank
 * conflict modeling. Instruction fetch uses a separate L1I in front of
 * the same L2.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const SimConfig &cfg);

    /**
     * Performs a data access at byte address @p addr starting at
     * @p cycle.
     * @return cycle at which the value is available.
     */
    uint64_t dataAccess(uint64_t addr, uint64_t cycle);

    /**
     * Performs an instruction fetch of the line containing @p addr.
     * @return cycle at which the line is available.
     */
    uint64_t fetchAccess(uint64_t addr, uint64_t cycle);

    const Cache &l1i() const { return _l1i; }
    const Cache &l1d() const { return _l1d; }

  private:
    SimConfig _cfg;
    Cache _l1i, _l1d, _l2;
    std::vector<uint64_t> _l1dBankFree;
};

} // namespace arch
} // namespace msc
