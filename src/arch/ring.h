/**
 * @file
 * The unidirectional register-communication ring (§4.2): each link
 * carries a bounded number of values per cycle; a value forwarded by
 * PU p reaches the adjacent PU p+1 in the same cycle (bypass) and each
 * further hop adds one cycle, subject to per-link bandwidth.
 */

#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace msc {
namespace arch {

/** Bandwidth-modeled forwarding ring. */
class Ring
{
  public:
    /**
     * How far before the current cycle a broadcast may start. The
     * simulator's broadcasts start at or after the current cycle, so
     * any claim older than this is dead and its slot reusable.
     */
    static constexpr uint64_t HORIZON = 1024;

    Ring(unsigned num_pus, unsigned bandwidth)
        : _numPUs(num_pus), _bandwidth(bandwidth),
          _cells(size_t(num_pus) * INITIAL_WINDOW), _mask(INITIAL_WINDOW - 1)
    {}

    /**
     * Sends one value from PU @p from at cycle @p when and computes
     * its arrival time at every PU (consuming link slots on the way
     * around the ring).
     *
     * @param now the current cycle; @p when must be >= now - HORIZON.
     * @param arrivals numPUs entries, filled with the arrival cycle per
     *        PU; the sender's own slot holds @p when.
     */
    void
    broadcast(unsigned from, uint64_t when, uint64_t now,
              uint64_t *arrivals)
    {
        assert(when + HORIZON >= now && "ring claim behind the horizon");
        const uint64_t floor = now > HORIZON ? now - HORIZON : 0;
        arrivals[from] = when;
        uint64_t t = when;
        unsigned p = from;
        for (unsigned hop = 1; hop < _numPUs; ++hop) {
            // Slot on link p -> p+1, adjacent bypass in the same cycle.
            t = claimSlot(p, t, floor);
            p = p + 1 == _numPUs ? 0 : p + 1;
            arrivals[p] = t;
            ++t;  // Each further hop costs a cycle.
        }
    }

  private:
    static constexpr uint64_t INITIAL_WINDOW = 2 * HORIZON;
    static constexpr uint64_t NO_CYCLE = ~0ull;

    /** Claims on one link in one cycle. */
    struct Cell
    {
        uint64_t cycle = NO_CYCLE;
        unsigned used = 0;
    };

    /**
     * Per-link slot usage as a fixed window: cycle t of link l lives
     * in cell l * window + (t & mask), tagged with t, so a cell left
     * by an earlier lap reads as zero claims. A cell is reused only
     * when its claims are dead (before @p floor); a live collision
     * doubles the window instead, so no claim is ever lost.
     */
    Cell &
    cell(unsigned link, uint64_t t, uint64_t floor)
    {
        for (;;) {
            Cell &c = _cells[size_t(link) * (_mask + 1) + (t & _mask)];
            if (c.cycle == t)
                return c;
            if (c.cycle == NO_CYCLE || c.cycle < floor) {
                c.cycle = t;
                c.used = 0;
                return c;
            }
            grow(floor);
        }
    }

    void
    grow(uint64_t floor)
    {
        const uint64_t window = 2 * (_mask + 1);
        std::vector<Cell> cells(size_t(_numPUs) * window);
        for (unsigned l = 0; l < _numPUs; ++l)
            for (uint64_t i = 0; i <= _mask; ++i) {
                const Cell &c = _cells[size_t(l) * (_mask + 1) + i];
                if (c.cycle != NO_CYCLE && c.cycle >= floor)
                    cells[size_t(l) * window + (c.cycle & (window - 1))] = c;
            }
        _cells.swap(cells);
        _mask = window - 1;
    }

    /** Earliest cycle >= @p t with a free slot on link @p link. */
    uint64_t
    claimSlot(unsigned link, uint64_t t, uint64_t floor)
    {
        for (;; ++t) {
            Cell &c = cell(link, t, floor);
            if (c.used < _bandwidth) {
                ++c.used;
                return t;
            }
        }
    }

    unsigned _numPUs;
    unsigned _bandwidth;
    std::vector<Cell> _cells;   ///< numPUs links x window cells.
    uint64_t _mask;             ///< window - 1 (window a power of two).
};

} // namespace arch
} // namespace msc
