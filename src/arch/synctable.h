/**
 * @file
 * The memory-dependence synchronization table (Moshovos et al. [11]):
 * it remembers offending (store PC, load PC) pairs of ARB violations
 * (arch/arb.h) so subsequent instances of the load wait instead of
 * speculating (§3.4).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

namespace msc {
namespace arch {

/** Memory-dependence synchronization table. */
class SyncTable
{
  public:
    explicit SyncTable(unsigned capacity) : _capacity(capacity) {}

    /** Records that the load at @p load_pc violated against the store
     *  at @p store_pc. */
    void
    insert(uint64_t load_pc, uint64_t store_pc)
    {
        if (_map.size() >= _capacity && !_map.count(load_pc))
            _map.erase(_map.begin());  // Capacity eviction.
        _map[load_pc] = store_pc;
    }

    /** Store PC the load must synchronize with; 0 when unsynced. */
    uint64_t
    producerOf(uint64_t load_pc) const
    {
        auto it = _map.find(load_pc);
        return it == _map.end() ? 0 : it->second;
    }

    size_t size() const { return _map.size(); }

  private:
    unsigned _capacity;
    std::unordered_map<uint64_t, uint64_t> _map;
};

} // namespace arch
} // namespace msc
