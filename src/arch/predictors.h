/**
 * @file
 * Control-flow speculation hardware: the gshare intra-task branch
 * predictor, the path-based inter-task predictor (Jacobson et al.
 * [9]: 16-bit path history, 64K-entry table of 2-bit counters with
 * 2-bit target numbers), and a return-address stack for Return-kind
 * task targets.
 */

#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "ir/types.h"

namespace msc {
namespace arch {

/** Classic gshare: XOR of global history and PC indexing a table of
 *  2-bit saturating counters. */
class Gshare
{
  public:
    Gshare(unsigned hist_bits, size_t table_size)
        : _histMask((1u << hist_bits) - 1), _table(table_size, 1)
    {}

    bool
    predict(uint64_t pc) const
    {
        return _table[index(pc)] >= 2;
    }

    void
    update(uint64_t pc, bool taken)
    {
        uint8_t &c = _table[index(pc)];
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
        _history = ((_history << 1) | (taken ? 1 : 0)) & _histMask;
    }

  private:
    size_t
    index(uint64_t pc) const
    {
        return ((pc >> 2) ^ _history) % _table.size();
    }

    uint32_t _history = 0;
    uint32_t _histMask;
    std::vector<uint8_t> _table;
};

/**
 * Path-based inter-task target predictor. Each entry holds a 2-bit
 * confidence counter and a 2-bit target number; the index hashes the
 * path history of recent task entry addresses.
 */
class TaskPredictor
{
  public:
    TaskPredictor(unsigned hist_bits, size_t table_size,
                  unsigned max_targets)
        : _histMask((1u << hist_bits) - 1), _maxTargets(max_targets),
          _entries(table_size)
    {}

    /** Predicts the successor target number of the task whose entry
     *  code address is @p task_addr. */
    unsigned
    predict(uint64_t task_addr) const
    {
        const Entry &e = _entries[index(task_addr)];
        return e.target;
    }

    /**
     * Trains on the resolved outcome and rolls the path history.
     *
     * @param task_addr entry address of the resolved task.
     * @param actual actual target number taken, < max_targets (pass 0
     *        when the actual target was untracked; the misprediction
     *        is recorded by the caller).
     */
    void
    update(uint64_t task_addr, unsigned actual)
    {
        assert(actual < _maxTargets && "untracked targets train as 0");
        Entry &e = _entries[index(task_addr)];
        if (e.target == actual) {
            if (e.counter < 3)
                ++e.counter;
        } else if (e.counter > 0) {
            --e.counter;
        } else {
            e.target = uint8_t(actual);
            e.counter = 1;
        }
        // Path history: fold in the task address and the taken target.
        _history = ((_history << 3) ^ uint32_t(task_addr >> 2)
                    ^ actual) & _histMask;
    }

  private:
    struct Entry
    {
        uint8_t counter = 0;
        uint8_t target = 0;
    };

    size_t
    index(uint64_t task_addr) const
    {
        return ((task_addr >> 2) ^ _history) % _entries.size();
    }

    uint32_t _history = 0;
    uint32_t _histMask;
    unsigned _maxTargets;
    std::vector<Entry> _entries;
};

/** Bounded return-address stack for Return-kind targets. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned depth) : _depth(depth) {}

    void
    push(ir::BlockRef return_site)
    {
        if (_stack.size() >= _depth)
            _stack.erase(_stack.begin());  // Overflow loses the oldest.
        _stack.push_back(return_site);
    }

    /** Pops the predicted return site; invalid ref when empty. */
    ir::BlockRef
    pop()
    {
        if (_stack.empty())
            return {};
        ir::BlockRef r = _stack.back();
        _stack.pop_back();
        return r;
    }

    void clear() { _stack.clear(); }
    size_t size() const { return _stack.size(); }

  private:
    unsigned _depth;
    std::vector<ir::BlockRef> _stack;
};

} // namespace arch
} // namespace msc
