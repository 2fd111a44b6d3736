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
#include <vector>

namespace msc {
namespace arch {

/**
 * Memory-dependence synchronization table: at most `capacity` rows,
 * one per load PC. Replacement is least-recently used, where a use is
 * an insert (new row or an update of the load's row) or a
 * `producerOf` hit; a miss uses nothing. Inserting a new load PC into
 * a full table evicts the row whose last use is oldest.
 *
 * The rows are a flat array searched linearly: the table stays tiny
 * in practice (at most 2 rows in use over the Figure-5 and ablation
 * grids).
 */
class SyncTable
{
  public:
    explicit SyncTable(unsigned capacity) : _capacity(capacity) {}

    /** Records that the load at @p load_pc violated against the store
     *  at @p store_pc. */
    void
    insert(uint64_t load_pc, uint64_t store_pc)
    {
        if (Row *r = find(load_pc)) {
            r->storePc = store_pc;
            r->lastUse = ++_clock;
            return;
        }
        if (_capacity == 0)
            return;
        if (_rows.size() < _capacity) {
            _rows.push_back({load_pc, store_pc, ++_clock});
            return;
        }
        Row *victim = &_rows.front();
        for (Row &r : _rows)
            if (r.lastUse < victim->lastUse)
                victim = &r;
        *victim = {load_pc, store_pc, ++_clock};
    }

    /** Store PC the load must synchronize with; 0 when unsynced. A hit
     *  counts as a use. */
    uint64_t
    producerOf(uint64_t load_pc)
    {
        Row *r = find(load_pc);
        if (!r)
            return 0;
        r->lastUse = ++_clock;
        return r->storePc;
    }

    size_t size() const { return _rows.size(); }

  private:
    struct Row
    {
        uint64_t loadPc;
        uint64_t storePc;
        uint64_t lastUse;  ///< _clock at the row's latest use.
    };

    Row *
    find(uint64_t load_pc)
    {
        for (Row &r : _rows)
            if (r.loadPc == load_pc)
                return &r;
        return nullptr;
    }

    unsigned _capacity;
    uint64_t _clock = 0;
    std::vector<Row> _rows;
};

} // namespace arch
} // namespace msc
