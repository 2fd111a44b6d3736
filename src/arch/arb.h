/**
 * @file
 * The Address Resolution Buffer (ARB, Franklin & Sohi [7]) and the
 * memory-dependence synchronization table (Moshovos et al. [11],
 * arch/synctable.h).
 *
 * Tasks speculate that their loads do not depend on stores of earlier
 * in-flight tasks. The ARB tracks the speculative memory accesses of
 * every in-flight task; when a store from an older task hits an
 * address that a younger task already loaded (and the younger task's
 * load did not get its value from a task at least as young as the
 * storer), a memory-dependence violation squashes the younger task and
 * its successors.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace msc {
namespace arch {

/** Sequence number of a dynamic task instance (program order). */
using TaskSeq = uint64_t;
constexpr TaskSeq NO_TASK = ~0ull;

/**
 * ARB model over word addresses.
 *
 * The host structures are flat and, once warm, allocation-free: an
 * open-addressed index (power-of-two, linear probing, tombstones)
 * maps each tracked address to an entry of a slab whose freed entries
 * keep their access lists' capacity, and a ring indexed by
 * `task & (size - 1)` holds the entries each in-flight task first
 * touched. The ring covers the live task span (the simulator's is at
 * most its PU count) and doubles whenever a caller's span exceeds it.
 */
class Arb
{
  public:
    /**
     * @param total_entries total tracked addresses (entries/PU x PUs).
     */
    explicit Arb(unsigned total_entries);

    /** True when no free entry remains for a new address. */
    bool full() const { return _live >= _capacity; }

    /** True when @p addr is already tracked (no new entry needed). */
    bool tracked(uint64_t addr) const { return find(addr) != EMPTY; }

    /**
     * Records a load by @p task to @p addr. The version the load
     * observes is the youngest store to @p addr by a task <= @p task,
     * or "architectural" when none is in flight. @p pc identifies the
     * load instruction for sync-table training on violation.
     */
    void recordLoad(TaskSeq task, uint64_t addr, uint64_t pc);

    /** Outcome of a store: the violating task (if any) and the PC of
     *  its stale load. */
    struct StoreResult
    {
        TaskSeq victim = NO_TASK;
        uint64_t loadPc = 0;
    };

    /**
     * Records a store by @p task to @p addr.
     * @return the oldest younger task whose earlier load is now stale
     *         (a violation), with the offending load's PC.
     */
    StoreResult recordStore(TaskSeq task, uint64_t addr);

    /** Discards all accesses of tasks >= @p task (squash). */
    void squashFrom(TaskSeq task);

    /** Discards all accesses of tasks <= @p task (retire commit). */
    void retireUpTo(TaskSeq task);

    size_t entriesInUse() const { return _live; }

  private:
    struct Access
    {
        TaskSeq task;
        bool loaded = false;
        bool stored = false;
        /** Version the first load observed: youngest storing task
         *  <= task at load time; NO_TASK means architectural. */
        TaskSeq loadSrc = NO_TASK;
        /** PC of the first load (for sync-table training). */
        uint64_t loadPc = 0;
    };

    /** Slab entry: one tracked address's accesses, one per task. An
     *  empty list marks a free entry. */
    struct Entry
    {
        uint64_t addr = 0;
        std::vector<Access> list;
    };

    /** Index slot: an address and its slab entry (or a marker). */
    struct Slot
    {
        uint64_t addr = 0;
        uint32_t entry = EMPTY;
    };

    static constexpr uint32_t EMPTY = ~0u;
    static constexpr uint32_t TOMB = ~0u - 1;

    /** Home slot of @p addr (Fibonacci hashing). */
    size_t
    home(uint64_t addr) const
    {
        return size_t((addr * 0x9e3779b97f4a7c15ull) >> _shift);
    }

    /** Slab entry tracking @p addr, or EMPTY when untracked. */
    uint32_t find(uint64_t addr) const;

    /** Slab entry tracking @p addr, allocated when untracked. */
    uint32_t entryFor(uint64_t addr);

    /** Rebuilds the index at @p slots slots, dropping tombstones. */
    void rehash(size_t slots);

    /** Records that @p task first touched slab entry @p e. */
    void noteFirstTouch(TaskSeq task, uint32_t e);

    /** Removes every access with task <=/>= @p task (per @p retire)
     *  from the lists of the slab entries @p entries, freeing emptied
     *  entries. */
    void filterLists(const std::vector<uint32_t> &entries, TaskSeq task,
                     bool retire);

    unsigned _capacity;

    std::vector<Slot> _index;   ///< Power-of-two open-addressed table.
    unsigned _shift = 0;        ///< 64 - log2(_index.size()).
    size_t _tombs = 0;
    std::vector<Entry> _slab;
    std::vector<uint32_t> _free;    ///< Free slab entries.
    size_t _live = 0;               ///< Tracked addresses.

    /**
     * First-touch lists by task: slot `t & (size - 1)` belongs to task
     * t for every t in [_lo, _hi], the live span (none when _lo is
     * NO_TASK). Every other slot is empty. Pure lookup acceleration
     * for retireUpTo/squashFrom: the slab evolves identically without
     * it.
     */
    std::vector<std::vector<uint32_t>> _byTask;
    TaskSeq _lo = NO_TASK;
    TaskSeq _hi = NO_TASK;
};

} // namespace arch
} // namespace msc
