#include "arch/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace msc {
namespace arch {

Cache::Cache(const CacheConfig &cfg) : _cfg(cfg)
{
    if (cfg.assoc == 0 || cfg.banks == 0)
        throw std::invalid_argument("cache with zero ways or banks");
    if (!std::has_single_bit(cfg.blockBytes))
        throw std::invalid_argument(
            "cache block size " + std::to_string(cfg.blockBytes) +
            " is not a power of two");
    uint64_t sets = std::max<uint64_t>(
        1, cfg.sizeBytes / (uint64_t(cfg.blockBytes) * cfg.assoc));
    if (!std::has_single_bit(sets))
        throw std::invalid_argument(
            "cache set count " + std::to_string(sets) +
            " is not a power of two");
    _blockShift = unsigned(std::countr_zero(cfg.blockBytes));
    _setShift = unsigned(std::countr_zero(sets));
    _setMask = sets - 1;
    _lines.resize(size_t(sets) * cfg.assoc);
}

bool
Cache::access(uint64_t addr)
{
    ++_accesses;
    uint64_t block = addr >> _blockShift;
    size_t set = size_t(block & _setMask);
    uint64_t tag = block >> _setShift;
    Line *base = &_lines[set * _cfg.assoc];

    ++_tick;
    for (unsigned w = 0; w < _cfg.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lru = _tick;
            return true;
        }
    }
    ++_misses;

    // Fill the LRU way.
    Line *victim = base;
    for (unsigned w = 1; w < _cfg.assoc; ++w)
        if (!base[w].valid || base[w].lru < victim->lru)
            victim = &base[w];
    victim->valid = true;
    victim->tag = tag;
    victim->lru = _tick;
    return false;
}

bool
Cache::probe(uint64_t addr) const
{
    uint64_t block = addr >> _blockShift;
    size_t set = size_t(block & _setMask);
    uint64_t tag = block >> _setShift;
    const Line *base = &_lines[set * _cfg.assoc];
    for (unsigned w = 0; w < _cfg.assoc; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

MemoryHierarchy::MemoryHierarchy(const SimConfig &cfg)
    : _cfg(cfg), _l1i(cfg.l1i), _l1d(cfg.l1d), _l2(cfg.l2),
      _l1dBankFree(cfg.l1d.banks, 0)
{
}

uint64_t
MemoryHierarchy::dataAccess(uint64_t addr, uint64_t cycle)
{
    // Bank arbitration: one access per bank per cycle.
    unsigned bank = _l1d.bankOf(addr);
    uint64_t start = std::max(cycle, _l1dBankFree[bank]);
    _l1dBankFree[bank] = start + 1;

    uint64_t t = start + _l1d.hitLatency();
    if (!_l1d.access(addr)) {
        if (_l2.access(addr))
            t += _cfg.l2.hitLatency;
        else
            t += _cfg.l2.hitLatency + _cfg.memLatency;
    }
    return t;
}

uint64_t
MemoryHierarchy::fetchAccess(uint64_t addr, uint64_t cycle)
{
    uint64_t t = cycle + _l1i.hitLatency();
    if (!_l1i.access(addr)) {
        if (_l2.access(addr))
            t += _cfg.l2.hitLatency;
        else
            t += _cfg.l2.hitLatency + _cfg.memLatency;
    }
    return t;
}

} // namespace arch
} // namespace msc
