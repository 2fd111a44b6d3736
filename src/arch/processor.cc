#include "arch/processor.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <utility>

#include "arch/arb.h"
#include "arch/cache.h"
#include "arch/predictors.h"
#include "arch/ring.h"
#include "arch/synctable.h"
#include "cfg/liveness.h"
#include "obs/tracesink.h"

namespace msc {
namespace arch {

namespace {

using namespace ir;
using namespace tasksel;
using cfg::RegSet;

constexpr uint64_t INF = ~0ull;

/** Pipeline state of one dynamic instruction of an instance. */
struct Slot
{
    uint64_t readyTime = 0;
    uint64_t doneCycle = 0;
    RegSet extMask = 0;         ///< External registers still awaited.
    int deps = 0;               ///< Local producers not yet done.
    uint8_t issued = 0;
    uint8_t done = 0;
};

/** One task instance occupying a PU. */
struct Instance
{
    uint64_t seq = 0;           ///< Dispatch order (unique).
    uint64_t dynIdx = 0;        ///< Index into the dynamic task stream.
    unsigned pu = 0;
    const DynTask *task = nullptr;  ///< Null for bogus instances.
    const DynInst *insts = nullptr; ///< The task's instructions.
    bool bogus = false;

    uint64_t assignCycle = 0;
    uint64_t fetchStart = 0;

    /// @name Pipeline state.
    /// @{
    uint32_t dispatched = 0;    ///< Instructions fetched so far.
    uint32_t doneCount = 0;
    uint32_t retPtr = 0;        ///< Contiguous done prefix (ROB free).
    uint32_t firstUnissued = 0;
    std::vector<Slot> slots;            ///< One per instruction.
    std::vector<std::vector<uint32_t>> waiters;
    std::vector<uint32_t> inFlight;     ///< Issued, not yet done.
    std::array<int, NUM_REGS> lastWriter;
    std::array<uint64_t, NUM_REGS> regAvail;
    std::array<std::vector<uint32_t>, NUM_REGS> extWaiters;
    RegSet extWaitRegs = 0;     ///< Registers whose extWaiters filled.
    uint64_t icacheBlockedUntil = 0;
    int branchBlockedOn = -1;
    uint64_t curFetchLine = INF;
    /// @}

    /// @name Forwarding.
    /// @{
    RegSet createMask = 0;
    RegSet forwardedRegs = 0;
    RegSet pendingRelease = 0;
    std::array<std::vector<uint64_t>, NUM_REGS> fwdArr;
    std::array<std::vector<uint64_t>, NUM_REGS> subs;  ///< Consumer seqs.
    RegSet subsRegs = 0;        ///< Registers whose subs filled.
    /// @}

    /// @name Status.
    /// @{
    bool completed = false;
    uint64_t completionCycle = INF;
    bool mispredictedSuccessor = false;
    bool successorDecided = false;  ///< Prediction/known-path consumed.
    bool rasDone = false;
    bool predUpdated = false;
    uint64_t retireStart = INF;
    /// @}

    CycleBuckets buckets;

    /**
     * Attribution bucket of this instance's most recent exec'd cycle.
     * A quiescent cycle's classification is a pure function of frozen
     * machine state, so the event core's skip replays this kind for
     * every skipped cycle instead of capturing a per-cycle signature
     * vector on the (busy) common path.
     */
    CycleKind lastKind = CycleKind::Useful;

    /**
     * Outstanding stores per code address, sorted by PC (the per-task
     * lists are tiny, so a flat sorted vector beats a hash map: the
     * per-assignment fill is one vector copy and the sync-gating scan
     * in tryIssue is a binary search). Seeded from the simulator's
     * per-dynIdx precomputation at assignment.
     */
    std::vector<std::pair<uint64_t, int>> pendingStorePc;

    /** Pointer to the count for @p pc, or nullptr when absent. */
    int *
    findStorePc(uint64_t pc)
    {
        auto it = std::lower_bound(
            pendingStorePc.begin(), pendingStorePc.end(), pc,
            [](const std::pair<uint64_t, int> &p, uint64_t v) {
                return p.first < v;
            });
        if (it == pendingStorePc.end() || it->first != pc)
            return nullptr;
        return &it->second;
    }

    size_t numInsts() const { return task ? task->count : 0; }

    /**
     * Restores a pooled instance to freshly-constructed state while
     * keeping container capacities (the event core's allocation-free
     * reuse path). Every field above must be covered here — a missed
     * one diverges the cores, which test_eventcore catches.
     */
    void
    resetForReuse()
    {
        seq = dynIdx = 0;
        pu = 0;
        task = nullptr;
        insts = nullptr;
        bogus = false;
        assignCycle = fetchStart = 0;
        dispatched = doneCount = retPtr = firstUnissued = 0;
        // slots/waiters and lastWriter/regAvail are (re)assigned at
        // instance creation for non-bogus instances and never read
        // for bogus ones. Only the per-register lists the masks name
        // can be non-empty.
        inFlight.clear();
        for (RegSet m = extWaitRegs; m; m &= m - 1)
            extWaiters[__builtin_ctzll(m)].clear();
        for (RegSet m = forwardedRegs; m; m &= m - 1)
            fwdArr[__builtin_ctzll(m)].clear();
        for (RegSet m = subsRegs; m; m &= m - 1)
            subs[__builtin_ctzll(m)].clear();
        extWaitRegs = subsRegs = 0;
        for (unsigned r = 0; r < NUM_REGS; ++r)
            assert(extWaiters[r].empty() && fwdArr[r].empty() &&
                   subs[r].empty() && "a register mask missed a list");
        icacheBlockedUntil = 0;
        branchBlockedOn = -1;
        curFetchLine = ~0ull;
        createMask = forwardedRegs = pendingRelease = 0;
        completed = false;
        completionCycle = ~0ull;
        mispredictedSuccessor = successorDecided = false;
        rasDone = predUpdated = false;
        retireStart = ~0ull;
        buckets.counts.fill(0);
        lastKind = CycleKind::Useful;
        pendingStorePc.clear();
    }
};

/** A pending memory-dependence violation found during the cycle. */
struct Violation
{
    uint64_t victimDynIdx;
    uint64_t loadPc;
    uint64_t storePc;
};

template <bool EV>
class Simulator
{
  public:
    Simulator(const TaskPartition &part, const TaskStream &stream,
              const SimConfig &cfg, obs::TraceSink *sink,
              runtime::Governor *gov)
        : _part(part), _stream(stream), _tasks(stream.tasks), _cfg(cfg),
          _gov(gov),
          _hier(cfg),
          _arb(cfg.arbEntriesPerPU * cfg.numPUs),
          _sync(cfg.syncTableSize),
          _ring(cfg.numPUs, cfg.ringBandwidth),
          _gshare(cfg.gshareHistBits, cfg.gshareTableSize),
          _taskPred(cfg.taskPredHistBits, cfg.taskPredTableSize,
                    cfg.maxTargets),
          _ras(cfg.rasDepth),
          _puBusy(cfg.numPUs, false),
          _sink(sink),
          _arbStallMark(cfg.numPUs, 0)
    {
        _stats.puOccupiedCycles.assign(cfg.numPUs, 0);
    }

    SimStats run();

  private:
    uint64_t taskEntryAddr(TaskId t) const;
    void trainTaskPredictor(Instance &pred);
    void assignPhase();
    void retirePhase();
    void execPhase();
    void execInstance(Instance &in);
    void dispatchInsts(Instance &in);
    bool tryIssue(Instance &in, uint32_t i,
                  std::array<unsigned, 5> &fu_free, bool &sync_wait);
    void writebacks(Instance &in);
    void broadcastReg(Instance &in, RegId r, uint64_t when);
    void deliver(Instance &in, RegId r, uint64_t when);
    void initRegAvail(Instance &in);
    void squashFrom(uint64_t seq, CycleKind kind);
    void resolveControl();
    void processViolations();
    Instance *bySeq(uint64_t seq);
    void emitCounters();
    void noteArbStall(unsigned pu);
    uint64_t nextEventCycle() const;
    void skipTo(uint64_t target);

    const TaskPartition &_part;
    const TaskStream &_stream;
    const std::vector<DynTask> &_tasks;     ///< _stream.tasks.
    const SimConfig &_cfg;
    runtime::Governor *_gov;  ///< Optional budget/cancel governor.

    MemoryHierarchy _hier;
    Arb _arb;
    SyncTable _sync;
    Ring _ring;
    Gshare _gshare;
    TaskPredictor _taskPred;
    ReturnAddressStack _ras;

    /** In-flight instances, oldest first (at most numPUs, so a
     *  retire's pop-front moves a handful of pointers). */
    std::vector<std::unique_ptr<Instance>> _window;
    std::vector<bool> _puBusy;
    uint64_t _now = 0;
    uint64_t _nextSeq = 0;
    uint64_t _nextDyn = 0;      ///< Next dynamic task to dispatch.
    std::vector<Violation> _violations;
    std::vector<uint64_t> _violationLoadPcScratch;

    /**
     * Per-dynIdx sorted (store pc, count) lists for Instance::
     * pendingStorePc, computed on first assignment of each dynamic
     * task and reused on re-assignment after squashes.
     */
    std::vector<std::vector<std::pair<uint64_t, int>>> _storePcs;
    std::vector<char> _storePcsDone;

    const std::vector<std::pair<uint64_t, int>> &
    storePcsOf(uint64_t dyn_idx)
    {
        if (_storePcsDone.empty()) {
            _storePcs.resize(_tasks.size());
            _storePcsDone.assign(_tasks.size(), 0);
        }
        if (!_storePcsDone[dyn_idx]) {
            auto &list = _storePcs[dyn_idx];
            for (const DynInst &di : _stream.instsOf(_tasks[dyn_idx])) {
                const StaticInst &si = _stream.stat(di);
                if (si.isStore) {
                    auto it = std::lower_bound(
                        list.begin(), list.end(),
                        std::make_pair(si.pc, 0));
                    if (it != list.end() && it->first == si.pc)
                        it->second++;
                    else
                        list.insert(it, {si.pc, 1});
                }
            }
            _storePcsDone[dyn_idx] = 1;
        }
        return _storePcs[dyn_idx];
    }

    /// @name Observation (null sink == tracing disabled).
    /// @{
    obs::TraceSink *_sink;
    std::vector<uint64_t> _arbStallMark;  ///< Last instant, per PU, +1.
    /// @}

    SimStats _stats;
    uint64_t _spanSum = 0;
    uint64_t _spanCycles = 0;

    /// @name Event core (CoreMode::Event; docs/PERFORMANCE.md).
    ///
    /// The event core runs every cycle through the normal phases but
    /// watches a progress flag that every state mutation sets. A cycle
    /// that mutated nothing is *quiescent*: its per-cycle accounting is
    /// a pure function of frozen machine state, so the same accounting
    /// repeats verbatim until the next component event. The core
    /// computes the earliest cycle any component can act, bulk-replays
    /// the probe cycle's accounting (per-instance kinds from lastKind,
    /// stall-counter increments, ARB-overflow instants) across the
    /// gap, and jumps _now there. Results are byte-identical to the
    /// cycle core by construction.
    /// @{
    bool _progress = false;     ///< Any state mutated this cycle.
    std::vector<unsigned> _arbPuCap;    ///< ARB-stall instants, per PU.
    uint64_t _syncCap = 0;              ///< syncStallCycles increments.
    uint64_t _arbCap = 0;               ///< arbOverflowStalls increments.

    /// Allocation-free busy path: retired/squashed instances return to
    /// the pool and are reused (resetForReuse).
    std::vector<std::unique_ptr<Instance>> _pool;
    /// @}

    /**
     * Set when an instance completes or mispredicts its successor,
     * the only transitions that can create resolveControl's squash
     * condition; resolveControl scans the window only when it is set.
     */
    bool _ctrlDirty = false;
};

template <bool EV>
uint64_t
Simulator<EV>::taskEntryAddr(TaskId t) const
{
    const Task &st = _part.tasks[t];
    return _part.prog->instAddr(st.func, st.entry, 0);
}

template <bool EV>
void
Simulator<EV>::trainTaskPredictor(Instance &pred)
{
    // Trained exactly once per dynamic transition, at the moment the
    // sequencer consumes it, so the path history rolls in program
    // order and predict-time and train-time indices agree.
    if (pred.predUpdated || pred.task->last)
        return;
    // A successor outside the task's first maxTargets targets has no
    // target number the predictor could hold: it trains as 0, like an
    // untracked one (assignPhase never counts either as correct).
    int actual = pred.task->actualTargetIdx;
    bool tracked = actual >= 0 && unsigned(actual) < _cfg.maxTargets;
    _taskPred.update(taskEntryAddr(pred.task->staticTask),
                     tracked ? unsigned(actual) : 0);
    pred.predUpdated = true;
}

template <bool EV>
Instance *
Simulator<EV>::bySeq(uint64_t seq)
{
    for (auto &up : _window)
        if (up->seq == seq)
            return up.get();
    return nullptr;
}

/** Samples the window-occupancy counters after a window change
 *  (assignment, retire, squash). Only called with a sink attached. */
template <bool EV>
void
Simulator<EV>::emitCounters()
{
    unsigned in_flight = 0;
    uint64_t span = 0;
    for (auto &up : _window) {
        if (up->bogus)
            continue;
        in_flight++;
        span += up->task->count;
    }
    _sink->counters(obs::CounterEvent{_now, in_flight, span});
}

/** Emits at most one ARB-overflow instant per PU per cycle, however
 *  many issue attempts stalled. */
template <bool EV>
void
Simulator<EV>::noteArbStall(unsigned pu)
{
    if (_arbStallMark[pu] == _now + 1)
        return;
    _arbStallMark[pu] = _now + 1;
    if constexpr (EV)
        _arbPuCap.push_back(pu);
    _sink->instant(obs::InstantKind::ArbOverflow, pu, _now);
}

template <bool EV>
void
Simulator<EV>::initRegAvail(Instance &in)
{
    for (unsigned r = 0; r < NUM_REGS; ++r)
        in.regAvail[r] = 0;
    if (_window.empty())
        return;
    // Youngest older in-flight producer per register.
    RegSet resolved = 0;
    for (auto it = _window.rbegin(); it != _window.rend(); ++it) {
        Instance &p = **it;
        RegSet mask = p.createMask & ~resolved;
        if (!mask)
            continue;
        for (RegSet m = mask; m; m &= m - 1) {
            unsigned r = unsigned(__builtin_ctzll(m));
            if (!p.fwdArr[r].empty()) {
                in.regAvail[r] = p.fwdArr[r][in.pu];
            } else {
                in.regAvail[r] = INF;
                p.subs[r].push_back(in.seq);
                p.subsRegs |= cfg::regBit(RegId(r));
            }
        }
        resolved |= mask;
    }
}

template <bool EV>
void
Simulator<EV>::broadcastReg(Instance &in, RegId r, uint64_t when)
{
    if (in.forwardedRegs & cfg::regBit(r))
        return;
    _progress = true;
    in.forwardedRegs |= cfg::regBit(r);
    // deliver() can re-enter broadcastReg (chained release), but
    // never for this (instance, reg) pair again, so arrivals stays
    // valid across the loop.
    std::vector<uint64_t> &arrivals = in.fwdArr[r];
    arrivals.resize(_cfg.numPUs);
    _ring.broadcast(in.pu, when, _now, arrivals.data());
    for (uint64_t cseq : in.subs[r]) {
        Instance *c = bySeq(cseq);
        if (c)
            deliver(*c, r, arrivals[c->pu]);
    }
    in.subs[r].clear();
}

template <bool EV>
void
Simulator<EV>::deliver(Instance &in, RegId r, uint64_t when)
{
    if (in.regAvail[r] != INF)
        return;
    _progress = true;
    in.regAvail[r] = when;
    for (uint32_t idx : in.extWaiters[r]) {
        Slot &s = in.slots[idx];
        if (!s.issued) {
            s.readyTime = std::max(s.readyTime, when);
            s.extMask &= ~cfg::regBit(r);
        }
    }
    in.extWaiters[r].clear();
    // Chained release: a completed task passing the value through.
    if ((in.pendingRelease & cfg::regBit(r)) && in.completed) {
        in.pendingRelease &= ~cfg::regBit(r);
        broadcastReg(in, r, std::max(when, in.completionCycle));
    }
}

template <bool EV>
void
Simulator<EV>::dispatchInsts(Instance &in)
{
    unsigned fetched = 0;
    while (fetched < _cfg.fetchWidth && in.dispatched < in.task->count) {
        if (_now < in.icacheBlockedUntil)
            break;
        if (in.branchBlockedOn >= 0 && !in.slots[in.branchBlockedOn].done)
            break;
        // ROB capacity.
        if (in.dispatched - in.retPtr >= _cfg.robSize)
            break;

        uint32_t i = in.dispatched;
        const DynInst &di = in.insts[i];
        const StaticInst &si = _stream.stat(di);

        // I-cache: one line lookup per new line.
        uint64_t line = si.pc >> _hier.l1i().blockShift();
        if (line != in.curFetchLine) {
            // The lookup itself mutates cache state (LRU, counters)
            // even when it blocks fetch, so it counts as progress.
            _progress = true;
            uint64_t avail = _hier.fetchAccess(si.pc, _now);
            if (avail > _now + _cfg.l1i.hitLatency) {
                in.icacheBlockedUntil = avail;
                break;
            }
            in.curFetchLine = line;
        }

        // Intra-task conditional branches consult gshare; a
        // misprediction stalls fetch until the branch executes.
        if (si.isCondBranch) {
            bool pred = _gshare.predict(si.pc);
            _stats.branchPredictions++;
            if (pred != di.taken) {
                _stats.branchMispredictions++;
                in.branchBlockedOn = int(i);
            }
            _gshare.update(si.pc, di.taken);
        }

        // Dependence setup from the decoded register sets (a register
        // read twice is one dependence, as each wake-up is idempotent).
        Slot &slot = in.slots[i];
        uint64_t ready = _now + 1;
        for (RegSet m = si.srcs; m; m &= m - 1) {
            RegId r = RegId(__builtin_ctzll(m));
            int w = in.lastWriter[r];
            if (w >= 0) {
                if (!in.slots[w].done) {
                    in.waiters[w].push_back(i);
                    slot.deps++;
                } else {
                    ready = std::max(ready, in.slots[w].doneCycle);
                }
            } else if (in.regAvail[r] == INF) {
                slot.extMask |= cfg::regBit(r);
                in.extWaiters[r].push_back(i);
                in.extWaitRegs |= cfg::regBit(r);
            } else {
                ready = std::max(ready, in.regAvail[r]);
            }
        }
        slot.readyTime = ready;

        for (RegSet m = si.dsts; m; m &= m - 1)
            in.lastWriter[__builtin_ctzll(m)] = int(i);

        in.dispatched++;
        ++fetched;
        _progress = true;
    }
}

template <bool EV>
bool
Simulator<EV>::tryIssue(Instance &in, uint32_t i,
                        std::array<unsigned, 5> &fu_free, bool &sync_wait)
{
    const DynInst &di = in.insts[i];
    const StaticInst &si = _stream.stat(di);

    unsigned fu = unsigned(si.fu);
    if (fu != unsigned(FuClass::None)) {
        if (fu_free[fu] == 0)
            return false;
    }

    bool is_head = (_window.front().get() == &in);
    uint64_t wb;

    if (si.isLoad) {
        // Synchronization-table gating (Moshovos et al. [11]).
        uint64_t producer_pc = _sync.producerOf(si.pc);
        if (producer_pc && !is_head) {
            for (auto &up : _window) {
                Instance &older = *up;
                if (&older == &in)
                    break;
                if (older.bogus || older.completed)
                    continue;
                const int *cnt = older.findStorePc(producer_pc);
                if (cnt && *cnt > 0) {
                    sync_wait = true;
                    _stats.syncStallCycles++;
                    if constexpr (EV)
                        _syncCap++;
                    return false;
                }
            }
        }
        // ARB capacity: speculative accesses to untracked addresses
        // stall when the ARB is full.
        if (!is_head && _arb.full() && !_arb.tracked(di.addr)) {
            _stats.arbOverflowStalls++;
            if constexpr (EV)
                _arbCap++;
            if (_sink)
                noteArbStall(in.pu);
            return false;
        }
        uint64_t avail = _hier.dataAccess(di.addr * 8, _now);
        wb = avail + _cfg.arbHitLatency;
        _arb.recordLoad(in.dynIdx, di.addr, si.pc);
    } else if (si.isStore) {
        if (!is_head && _arb.full() && !_arb.tracked(di.addr)) {
            _stats.arbOverflowStalls++;
            if constexpr (EV)
                _arbCap++;
            if (_sink)
                noteArbStall(in.pu);
            return false;
        }
        wb = _now + 1 + _cfg.arbHitLatency;
        auto hit = _arb.recordStore(in.dynIdx, di.addr);
        if (hit.victim != NO_TASK) {
            _stats.memViolations++;
            _violations.push_back({hit.victim, hit.loadPc, si.pc});
        }
        int *cnt = in.findStorePc(si.pc);
        if (cnt && *cnt > 0)
            (*cnt)--;
    } else {
        wb = _now + si.latency;
    }

    if (fu != unsigned(FuClass::None))
        fu_free[fu]--;
    in.slots[i].issued = 1;
    in.slots[i].doneCycle = wb;
    in.inFlight.push_back(i);
    _progress = true;
    return true;
}

template <bool EV>
void
Simulator<EV>::writebacks(Instance &in)
{
    for (size_t k = 0; k < in.inFlight.size();) {
        uint32_t i = in.inFlight[k];
        const uint64_t done_cycle = in.slots[i].doneCycle;
        if (done_cycle > _now) {
            ++k;
            continue;
        }
        in.inFlight[k] = in.inFlight.back();
        in.inFlight.pop_back();

        _progress = true;
        in.slots[i].done = 1;
        in.doneCount++;

        // Wake local dependents.
        for (uint32_t w : in.waiters[i]) {
            Slot &s = in.slots[w];
            s.deps--;
            s.readyTime = std::max(s.readyTime, done_cycle);
        }
        in.waiters[i].clear();

        // Safe forward points: send on the ring.
        RegSet fwd = _stream.fwdMask(in.insts[i]) & in.createMask &
            ~in.forwardedRegs;
        for (unsigned r = 0; fwd && r < NUM_REGS; ++r) {
            if (fwd & cfg::regBit(RegId(r))) {
                broadcastReg(in, RegId(r), done_cycle);
                fwd &= ~cfg::regBit(RegId(r));
            }
        }
    }

    while (in.retPtr < in.numInsts() && in.slots[in.retPtr].done)
        in.retPtr++;

    // Completion.
    if (!in.completed && in.dispatched == in.numInsts() &&
        in.doneCount == in.numInsts()) {
        _progress = true;
        _ctrlDirty = true;
        in.completed = true;
        in.completionCycle = _now;

        // Release the remaining create-mask registers.
        RegSet rel = in.createMask & ~in.forwardedRegs;
        for (unsigned r = 0; rel && r < NUM_REGS; ++r) {
            RegSet bit = cfg::regBit(RegId(r));
            if (!(rel & bit))
                continue;
            rel &= ~bit;
            if (in.lastWriter[r] >= 0) {
                broadcastReg(in, RegId(r), _now);
            } else if (in.regAvail[r] != INF) {
                broadcastReg(in, RegId(r),
                             std::max(_now, in.regAvail[r]));
            } else {
                in.pendingRelease |= bit;  // Chain: forward on arrival.
            }
        }
    }
}

template <bool EV>
void
Simulator<EV>::execInstance(Instance &in)
{
    if (in.bogus)
        return;  // Wrong-path work: time accrues, nothing executes.

    if (in.completed)
        return;

    if (_now < in.fetchStart) {
        in.buckets.add(CycleKind::TaskStart);
        if constexpr (EV)
            in.lastKind = CycleKind::TaskStart;
        return;
    }

    writebacks(in);
    if (in.completed)
        return;

    // Issue.
    std::array<unsigned, 5> fu_free{};
    fu_free[unsigned(FuClass::IntAlu)] = _cfg.numIntFU;
    fu_free[unsigned(FuClass::FpAlu)] = _cfg.numFpFU;
    fu_free[unsigned(FuClass::Branch)] = _cfg.numBrFU;
    fu_free[unsigned(FuClass::Mem)] = _cfg.numMemFU;

    while (in.firstUnissued < in.dispatched &&
           in.slots[in.firstUnissued].issued) {
        in.firstUnissued++;
    }

    unsigned issued_now = 0;
    bool ext_wait = false, sync_wait = false;

    uint32_t lim = std::min<uint32_t>(
        in.dispatched, in.firstUnissued + _cfg.issueListSize);
    for (uint32_t i = in.firstUnissued;
         i < lim && issued_now < _cfg.issueWidth; ++i) {
        const Slot &s = in.slots[i];
        if (s.issued)
            continue;
        // Operand-blocked candidates are rejected here; tryIssue
        // handles structural hazards of a ready one.
        bool ok;
        if (s.extMask) {
            ext_wait = true;
            ok = false;
        } else if (s.deps > 0 || s.readyTime > _now) {
            ok = false;
        } else {
            ok = tryIssue(in, i, fu_free, sync_wait);
        }
        if (ok) {
            ++issued_now;
        } else if (!_cfg.outOfOrder) {
            break;  // In-order PUs stall at the oldest unissued op.
        }
    }

    dispatchInsts(in);

    // Cycle attribution (Figure 2).
    CycleKind kind;
    if (issued_now > 0) {
        kind = CycleKind::Useful;
    } else if (in.firstUnissued >= in.dispatched) {
        kind = CycleKind::FetchStall;
    } else if (in.slots[in.firstUnissued].extMask || ext_wait ||
               sync_wait) {
        kind = CycleKind::InterTaskComm;
        RegSet m = in.slots[in.firstUnissued].extMask;
        if (m)
            _stats.extWaitByReg[__builtin_ctzll(m)]++;
    } else {
        kind = CycleKind::IntraTaskDep;
    }
    in.buckets.add(kind);
    if constexpr (EV)
        in.lastKind = kind;
}

template <bool EV>
void
Simulator<EV>::execPhase()
{
    uint64_t span = 0;
    bool any = false;
    for (auto &up : _window) {
        execInstance(*up);
        if (!up->bogus) {
            span += up->task->count;
            any = true;
        }
    }
    if (any) {
        _spanSum += span;
        _spanCycles++;
    }
    _stats.idlePuCycles += _cfg.numPUs - _window.size();
}

template <bool EV>
void
Simulator<EV>::squashFrom(uint64_t seq, CycleKind kind)
{
    bool squashed_any = false;
    unsigned trigger_pu = 0;
    while (!_window.empty() && _window.back()->seq >= seq) {
        _progress = true;
        Instance &in = *_window.back();
        uint64_t t = in.buckets.collapse();
        // A squashed instance's entire occupancy is penalty,
        // including the cycles of the current (partial) cycle window.
        uint64_t occupied = (_now >= in.assignCycle)
            ? (_now - in.assignCycle) : 0;
        uint64_t penalty = std::max(t, occupied);
        _stats.buckets.add(kind, penalty);
        _stats.puOccupiedCycles[in.pu] += penalty;
        if (kind == CycleKind::CtrlSquash)
            _stats.tasksSquashedCtrl++;
        else
            _stats.tasksSquashedMem++;
        if (_sink) {
            obs::SquashEvent ev;
            ev.pu = in.pu;
            ev.dynIdx = in.dynIdx;
            ev.staticTask = in.task ? in.task->staticTask
                                    : tasksel::INVALID_TASK;
            ev.bogus = in.bogus;
            ev.kind = kind;
            ev.assignCycle = in.assignCycle;
            ev.squashCycle = _now;
            ev.penaltyCycles = penalty;
            _sink->taskSquashed(ev);
        }
        squashed_any = true;
        trigger_pu = in.pu;  // Ends at the oldest squashed instance.
        if (!in.bogus)
            _arb.squashFrom(in.dynIdx);
        _puBusy[in.pu] = false;
        if constexpr (EV)
            _pool.push_back(std::move(_window.back()));
        _window.pop_back();
    }
    if (_sink && squashed_any) {
        _sink->instant(kind == CycleKind::MemSquash
                           ? obs::InstantKind::MemSquash
                           : obs::InstantKind::CtrlSquash,
                       trigger_pu, _now);
        emitCounters();
    }
    if (_window.empty())
        _nextDyn = 0;  // Never happens: head is never squashed.
}

template <bool EV>
void
Simulator<EV>::resolveControl()
{
    // The oldest completed task with a mispredicted successor squashes
    // everything younger. A scan leaves no such task behind (the one
    // found is reset and everything younger squashed).
    if (!_ctrlDirty)
        return;
    _ctrlDirty = false;
    for (auto &up : _window) {
        Instance &in = *up;
        if (in.bogus || !in.completed)
            continue;
        if (in.successorDecided && in.mispredictedSuccessor) {
            _progress = true;
            in.mispredictedSuccessor = false;
            in.successorDecided = false;  // Sequencer re-dispatches.
            squashFrom(in.seq + 1, CycleKind::CtrlSquash);
            _nextDyn = in.dynIdx + 1;
            break;
        }
    }
}

template <bool EV>
void
Simulator<EV>::processViolations()
{
    if (_violations.empty())
        return;
    _progress = true;
    // Oldest victim wins.
    uint64_t victim = INF;
    uint64_t load_pc = 0, store_pc = 0;
    for (const auto &v : _violations) {
        if (v.victimDynIdx < victim) {
            victim = v.victimDynIdx;
            load_pc = v.loadPc;
            store_pc = v.storePc;
        }
    }
    _violations.clear();

    _sync.insert(load_pc, store_pc);

    for (auto &up : _window) {
        if (!up->bogus && up->dynIdx == victim) {
            // The predecessor must re-decide its successor dispatch.
            squashFrom(up->seq, CycleKind::MemSquash);
            _nextDyn = victim;
            if (!_window.empty()) {
                _window.back()->successorDecided = false;
                _window.back()->mispredictedSuccessor = false;
            }
            return;
        }
    }
}

template <bool EV>
void
Simulator<EV>::retirePhase()
{
    if (_window.empty())
        return;
    Instance &head = *_window.front();
    if (head.bogus || !head.completed)
        return;

    if (head.retireStart == INF) {
        _progress = true;
        head.retireStart = std::max(_now, head.completionCycle);
    }

    if (_now < head.retireStart + _cfg.taskEndOverhead)
        return;

    _progress = true;
    // Commit.
    head.buckets.add(CycleKind::LoadImbalance,
                     head.retireStart - head.completionCycle);
    head.buckets.add(CycleKind::TaskEnd, _cfg.taskEndOverhead);
    _stats.buckets.merge(head.buckets);
    _stats.puOccupiedCycles[head.pu] += head.buckets.total();
    _stats.retiredTasks++;
    _stats.retiredInsts += head.task->count;
    _stats.dynTasks++;
    _stats.dynTaskInsts += head.task->count;
    _stats.dynTaskCtlInsts += head.task->ctlInsts;

    if (_sink) {
        obs::CommitEvent ev;
        ev.pu = head.pu;
        ev.dynIdx = head.dynIdx;
        ev.staticTask = head.task->staticTask;
        ev.assignCycle = head.assignCycle;
        ev.fetchStart = head.fetchStart;
        ev.completionCycle = head.completionCycle;
        ev.retireStart = head.retireStart;
        ev.retireEnd = head.retireStart + _cfg.taskEndOverhead;
        ev.insts = head.task->count;
        ev.buckets = head.buckets;
        _sink->taskCommitted(ev);
    }

    _arb.retireUpTo(head.dynIdx);
    _puBusy[head.pu] = false;
    if constexpr (EV)
        _pool.push_back(std::move(_window.front()));
    _window.erase(_window.begin());
    if (_sink)
        emitCounters();
}

template <bool EV>
void
Simulator<EV>::assignPhase()
{
    if (_window.size() >= _cfg.numPUs)
        return;
    if (_nextDyn >= _tasks.size() && _window.empty())
        return;

    unsigned pu = _window.empty()
        ? 0 : (_window.back()->pu + 1) % _cfg.numPUs;
    if (_puBusy[pu])
        return;

    bool bogus = false;
    uint64_t dyn_idx = _nextDyn;

    if (!_window.empty()) {
        Instance &pred = *_window.back();
        if (pred.bogus) {
            // Cascaded wrong-path assignment.
            bogus = true;
        } else if (pred.task->last) {
            return;  // Program ends after the current tail.
        } else if (pred.completed || pred.successorDecided) {
            // Known path (resolution already happened or the
            // prediction for this transition was already consumed
            // and was correct).
            if (pred.completed && !pred.successorDecided) {
                _progress = true;
                // Resolution before dispatch: decide RAS bookkeeping.
                if (!pred.rasDone) {
                    if (pred.task->actualKind == TargetKind::Return)
                        _ras.pop();
                    if (pred.task->endsInCall)
                        _ras.push(pred.task->callReturnSite);
                    pred.rasDone = true;
                }
                trainTaskPredictor(pred);
                pred.successorDecided = true;
            }
        } else {
            // Predict the successor of the (unresolved) tail task.
            _progress = true;
            const Task &st = _part.tasks[pred.task->staticTask];
            unsigned pidx = _taskPred.predict(
                taskEntryAddr(pred.task->staticTask));
            if (!st.targets.empty() && pidx >= st.targets.size())
                pidx = unsigned(st.targets.size()) - 1;

            int actual = pred.task->actualTargetIdx;
            bool correct = actual >= 0 &&
                unsigned(actual) < _cfg.maxTargets &&
                pidx == unsigned(actual);

            if (!pred.rasDone) {
                if (pred.task->actualKind == TargetKind::Return) {
                    BlockRef popped = _ras.pop();
                    correct = correct && popped == pred.task->nextEntry;
                }
                if (pred.task->endsInCall)
                    _ras.push(pred.task->callReturnSite);
                pred.rasDone = true;
            }

            _stats.taskPredictions++;
            if (!correct) {
                _stats.taskMispredictions++;
                pred.mispredictedSuccessor = true;
                _ctrlDirty = true;
                bogus = true;
            }
            trainTaskPredictor(pred);
            pred.successorDecided = true;
        }
    }

    if (!bogus && dyn_idx >= _tasks.size())
        return;

    _progress = true;
    std::unique_ptr<Instance> in;
    if (EV && !_pool.empty()) {
        in = std::move(_pool.back());
        _pool.pop_back();
        in->resetForReuse();
    } else {
        in = std::make_unique<Instance>();
    }
    in->seq = _nextSeq++;
    in->dynIdx = dyn_idx;
    in->pu = pu;
    in->bogus = bogus;
    in->assignCycle = _now;
    in->fetchStart = _now + _cfg.taskStartOverhead;
    in->buckets.add(CycleKind::TaskStart, 0);

    if (!bogus) {
        in->task = &_tasks[dyn_idx];
        in->insts = _stream.insts.data() + in->task->first;
        const Task &st = _part.tasks[in->task->staticTask];
        in->createMask = st.createMask;
        size_t n = in->task->count;
        in->slots.assign(n, Slot{});
        // Grow only: a pooled instance keeps its inner waiter lists
        // (and their capacity) beyond n for later, longer tasks.
        if (in->waiters.size() < n)
            in->waiters.resize(n);
        for (size_t i = 0; i < n; ++i)
            in->waiters[i].clear();
        in->lastWriter.fill(-1);
        initRegAvail(*in);
        // Pending store PCs for synchronization gating (precomputed
        // per dynamic task; re-assignment after a squash reuses it).
        in->pendingStorePc = storePcsOf(dyn_idx);
        _nextDyn = dyn_idx + 1;
    }

    _puBusy[pu] = true;
    _window.push_back(std::move(in));

    if (_sink) {
        const Instance &ni = *_window.back();
        obs::AssignEvent ev;
        ev.pu = ni.pu;
        ev.dynIdx = ni.dynIdx;
        ev.staticTask = ni.task ? ni.task->staticTask
                                : tasksel::INVALID_TASK;
        ev.bogus = ni.bogus;
        ev.cycle = _now;
        _sink->taskAssigned(ev);
        emitCounters();
    }
}

/**
 * Earliest future cycle at which any component can change state, given
 * that the cycle just simulated was quiescent. Called after ++_now, so
 * "future" means >= _now. The candidates are exactly the time-driven
 * wake-ups; everything else (ARB retry, sync-table release, external
 * register arrival) is unblocked only by another instance's progress,
 * which itself requires one of these events first, so a conservative
 * lower bound over this set can never overshoot a state change.
 */
template <bool EV>
uint64_t
Simulator<EV>::nextEventCycle() const
{
    uint64_t t = INF;

    // Head retire: the in-order commit point drains after
    // taskEndOverhead cycles.
    if (!_window.empty()) {
        const Instance &h = *_window.front();
        if (!h.bogus && h.completed)
            t = std::min(t, h.retireStart == INF
                                ? _now
                                : h.retireStart + _cfg.taskEndOverhead);
    }

    for (const auto &up : _window) {
        const Instance &in = *up;
        if (in.bogus || in.completed)
            continue;
        // Task-start overhead: fetch begins at fetchStart.
        if (in.fetchStart >= _now) {
            t = std::min(t, in.fetchStart);
            if (in.fetchStart > _now)
                continue;  // Not fetching yet: no other state pending.
        }
        // I-cache fill return.
        if (in.icacheBlockedUntil >= _now)
            t = std::min(t, in.icacheBlockedUntil);
        // FU / cache-fill completion of issued instructions.
        for (uint32_t i : in.inFlight)
            t = std::min(t, in.slots[i].doneCycle);
        // Operand arrival (local producer or ring delivery already
        // folded into readyTime) within the issue window. Entries with
        // readyTime < _now are blocked on ARB/sync/FU conflicts, which
        // only another instance's progress can clear — not events.
        uint32_t lim = std::min<uint32_t>(
            in.dispatched, in.firstUnissued + _cfg.issueListSize);
        for (uint32_t i = in.firstUnissued; i < lim; ++i) {
            const Slot &s = in.slots[i];
            if (s.issued || s.deps > 0 || s.extMask)
                continue;
            if (s.readyTime >= _now)
                t = std::min(t, s.readyTime);
        }
    }
    return t;
}

/**
 * Fast-forwards _now to @p target, replaying the quiescent probe
 * cycle's accounting signature once per skipped cycle. Machine state
 * is frozen across the gap by construction (no progress and no event
 * before target), so the replay is exactly what the cycle core would
 * have accrued stepping through [_now, target).
 */
template <bool EV>
void
Simulator<EV>::skipTo(uint64_t target)
{
    const uint64_t n = target - _now;

    _stats.syncStallCycles += _syncCap * n;
    _stats.arbOverflowStalls += _arbCap * n;

    // Figure-2 buckets and execPhase's per-cycle window accounting.
    // Each live instance repeats the probe's attribution: the kind is
    // a pure function of state that cannot change before `target`
    // (nextEventCycle covers fetchStart, so a TaskStart region never
    // straddles its own fetch start), and the ext-wait register is
    // recomputed from the frozen issue window exactly as the probe
    // computed it.
    uint64_t span = 0;
    bool any = false;
    for (const auto &up : _window) {
        Instance &in = *up;
        if (in.bogus)
            continue;
        span += in.task->count;
        any = true;
        if (in.completed)
            continue;
        in.buckets.add(in.lastKind, n);
        if (in.lastKind == CycleKind::InterTaskComm) {
            RegSet m = in.slots[in.firstUnissued].extMask;
            if (m)
                _stats.extWaitByReg[__builtin_ctzll(m)] += n;
        }
    }
    if (any) {
        _spanSum += span * n;
        _spanCycles += n;
    }
    _stats.idlePuCycles += uint64_t(_cfg.numPUs - _window.size()) * n;

    // ARB-overflow instants are per-cycle trace events: re-emit them
    // for every skipped cycle, in window order, exactly as the cycle
    // core's exec phase would have.
    if (_sink && !_arbPuCap.empty()) {
        for (uint64_t c = _now; c < target; ++c)
            for (unsigned pu : _arbPuCap)
                _sink->instant(obs::InstantKind::ArbOverflow, pu, c);
    }

    _stats.eventSkippedCycles += n;
    _now = target;
}

template <bool EV>
SimStats
Simulator<EV>::run()
{
    if (_tasks.empty())
        return _stats;

    // The cycle budget is checked against the governor's limit (which
    // is min'd with nothing here: _cfg.maxCycles stays the functional
    // ceiling, the budget is a stricter administrative one).
    uint64_t cycle_limit = UINT64_MAX;
    if (_gov && _gov->simCycleLimit())
        cycle_limit = _gov->simCycleLimit();

    while (_now < _cfg.maxCycles) {
        // Pulse at the loop top so a pre-set cancel trips before any
        // state mutation of cycle 0 (cancellation tests rely on it).
        if (_gov && (_now & 0xfff) == 0)
            _gov->checkPulse();
        if (_now >= cycle_limit)
            _gov->cyclesExhausted(_now);
        if constexpr (EV) {
            _progress = false;
            _arbPuCap.clear();
            _syncCap = 0;
            _arbCap = 0;
        }
        retirePhase();
        if (_window.empty() && _nextDyn >= _tasks.size())
            break;
        assignPhase();
        execPhase();
        processViolations();
        resolveControl();
        ++_now;
        if constexpr (EV) if (!_progress) {
            uint64_t target = std::min(nextEventCycle(), _cfg.maxCycles);
            if (_gov) {
                // Pulses fire at 4096-cycle marks and the budget trips
                // at cycle_limit; stop the jump there so both happen
                // at the same simulated cycle as the cycle core.
                target = std::min(target, cycle_limit);
                target = std::min<uint64_t>(target,
                                            (_now + 0xfff) & ~0xfffull);
            }
            if (target > _now)
                skipTo(target);
        }
    }

    _stats.cycles = _now;
    _stats.measuredWindowSpan =
        _spanCycles ? double(_spanSum) / double(_spanCycles) : 0.0;
    _stats.l1iAccesses = _hier.l1i().accesses();
    _stats.l1iMisses = _hier.l1i().misses();
    _stats.l1dAccesses = _hier.l1d().accesses();
    _stats.l1dMisses = _hier.l1d().misses();
    if (_sink)
        _sink->simEnd(_now);
    return _stats;
}

} // anonymous namespace

SimStats
simulate(const TaskPartition &part, const TaskStream &tasks,
         const SimConfig &cfg, obs::TraceSink *sink,
         runtime::Governor *gov)
{
    if (cfg.coreMode == CoreMode::Event) {
        Simulator<true> sim(part, tasks, cfg, sink, gov);
        return sim.run();
    }
    Simulator<false> sim(part, tasks, cfg, sink, gov);
    return sim.run();
}

} // namespace arch
} // namespace msc
