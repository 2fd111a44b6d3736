#include "arch/arb.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace msc {
namespace arch {

Arb::Arb(unsigned total_entries) : _capacity(total_entries)
{
    // Live entries rarely pass the capacity (only the head task may
    // overflow it), so 4 slots per entry keep probes short; rehash()
    // doubles the index if a caller tracks more.
    rehash(std::bit_ceil(std::max<size_t>(16, size_t(total_entries) * 4)));
    _byTask.resize(16);
}

void
Arb::rehash(size_t slots)
{
    std::vector<Slot> old = std::move(_index);
    _index.assign(slots, Slot{});
    _shift = unsigned(64 - std::countr_zero(slots));
    _tombs = 0;
    const size_t mask = slots - 1;
    for (const Slot &s : old) {
        if (s.entry == EMPTY || s.entry == TOMB)
            continue;
        size_t i = home(s.addr);
        while (_index[i].entry != EMPTY)
            i = (i + 1) & mask;
        _index[i] = s;
    }
}

uint32_t
Arb::find(uint64_t addr) const
{
    const size_t mask = _index.size() - 1;
    for (size_t i = home(addr);; i = (i + 1) & mask) {
        const Slot &s = _index[i];
        if (s.entry == EMPTY)
            return EMPTY;
        if (s.entry != TOMB && s.addr == addr)
            return s.entry;
    }
}

uint32_t
Arb::entryFor(uint64_t addr)
{
    uint32_t found = find(addr);
    if (found != EMPTY)
        return found;

    // Keep at least half the index EMPTY so probes terminate quickly;
    // grow when live entries alone fill a quarter, else just sweep
    // out the tombstones.
    if ((_live + _tombs + 1) * 2 > _index.size())
        rehash((_live + 1) * 4 > _index.size() ? _index.size() * 2
                                               : _index.size());

    uint32_t e;
    if (!_free.empty()) {
        e = _free.back();
        _free.pop_back();
    } else {
        e = uint32_t(_slab.size());
        _slab.emplace_back();
    }
    _slab[e].addr = addr;
    ++_live;

    // Reuse the first tombstone on the probe path, else the EMPTY end.
    const size_t mask = _index.size() - 1;
    size_t i = home(addr);
    while (_index[i].entry != EMPTY && _index[i].entry != TOMB)
        i = (i + 1) & mask;
    if (_index[i].entry == TOMB)
        --_tombs;
    _index[i] = Slot{addr, e};
    return e;
}

void
Arb::noteFirstTouch(TaskSeq task, uint32_t e)
{
    if (_lo == NO_TASK) {
        _lo = _hi = task;
    } else {
        TaskSeq lo = std::min(_lo, task), hi = std::max(_hi, task);
        assert(hi - lo < (TaskSeq(1) << 32) && "live task span too wide");
        if (hi - lo >= _byTask.size()) {
            // Span outgrew the ring: move each live task's list to its
            // slot in a ring large enough for the new span.
            std::vector<std::vector<uint32_t>> ring(
                std::bit_ceil(size_t(hi - lo + 1)));
            const size_t old_mask = _byTask.size() - 1;
            const size_t new_mask = ring.size() - 1;
            for (TaskSeq t = _lo; t <= _hi; ++t)
                ring[t & new_mask].swap(_byTask[t & old_mask]);
            _byTask.swap(ring);
        }
        _lo = lo;
        _hi = hi;
    }
    _byTask[task & (_byTask.size() - 1)].push_back(e);
}

void
Arb::recordLoad(TaskSeq task, uint64_t addr, uint64_t pc)
{
    uint32_t e = entryFor(addr);
    auto &list = _slab[e].list;

    // The version observed: youngest store by a task <= this one.
    TaskSeq src = NO_TASK;
    for (const Access &a : list)
        if (a.stored && a.task <= task &&
            (src == NO_TASK || a.task > src)) {
            src = a.task;
        }

    for (Access &a : list) {
        if (a.task == task) {
            if (!a.loaded && !a.stored) {
                a.loaded = true;
                a.loadSrc = src;
                a.loadPc = pc;
            } else if (!a.loaded) {
                // First access was a store: the load reads the task's
                // own value; no upstream exposure.
                a.loaded = true;
                a.loadSrc = task;
                a.loadPc = pc;
            }
            return;
        }
    }
    Access a;
    a.task = task;
    a.loaded = true;
    a.loadSrc = src;
    a.loadPc = pc;
    list.push_back(a);
    noteFirstTouch(task, e);
}

Arb::StoreResult
Arb::recordStore(TaskSeq task, uint64_t addr)
{
    uint32_t e = entryFor(addr);
    auto &list = _slab[e].list;

    StoreResult res;
    for (const Access &a : list) {
        // A younger task read a version older than this store: its
        // load missed this store's value.
        if (a.task > task && a.loaded &&
            (a.loadSrc == NO_TASK || a.loadSrc < task)) {
            if (res.victim == NO_TASK || a.task < res.victim) {
                res.victim = a.task;
                res.loadPc = a.loadPc;
            }
        }
    }

    for (Access &a : list) {
        if (a.task == task) {
            a.stored = true;
            return res;
        }
    }
    Access a;
    a.task = task;
    a.stored = true;
    list.push_back(a);
    noteFirstTouch(task, e);
    return res;
}

void
Arb::filterLists(const std::vector<uint32_t> &entries, TaskSeq task,
                 bool retire)
{
    for (uint32_t e : entries) {
        auto &list = _slab[e].list;
        if (list.empty())
            continue;  // Already freed via another listed task.
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [&](const Access &a) {
                                      return retire ? a.task <= task
                                                    : a.task >= task;
                                  }),
                   list.end());
        if (!list.empty())
            continue;
        // Free the entry: tombstone its index slot.
        const uint64_t addr = _slab[e].addr;
        const size_t mask = _index.size() - 1;
        size_t i = home(addr);
        while (_index[i].entry != e)
            i = (i + 1) & mask;
        _index[i].entry = TOMB;
        ++_tombs;
        --_live;
        _free.push_back(e);
    }
}

void
Arb::squashFrom(TaskSeq task)
{
    if (_lo == NO_TASK || task > _hi)
        return;
    const size_t mask = _byTask.size() - 1;
    const TaskSeq first = std::max(task, _lo);
    for (TaskSeq t = first; t <= _hi; ++t) {
        auto &touched = _byTask[t & mask];
        filterLists(touched, task, /*retire=*/false);
        touched.clear();
    }
    if (first == _lo)
        _lo = _hi = NO_TASK;
    else
        _hi = first - 1;
}

void
Arb::retireUpTo(TaskSeq task)
{
    if (_lo == NO_TASK || task < _lo)
        return;
    const size_t mask = _byTask.size() - 1;
    const TaskSeq last = std::min(task, _hi);
    for (TaskSeq t = _lo; t <= last; ++t) {
        auto &touched = _byTask[t & mask];
        filterLists(touched, task, /*retire=*/true);
        touched.clear();
    }
    if (last == _hi)
        _lo = _hi = NO_TASK;
    else
        _lo = last + 1;
    assert(_lo == NO_TASK || _lo <= _hi);
}

} // namespace arch
} // namespace msc
