/**
 * @file
 * Cuts a dynamic instruction trace into the stream of dynamic tasks a
 * Multiscalar sequencer would dispatch (§2.2): a dynamic task is a
 * contiguous trace fragment beginning at a task entry block; it ends
 * when control reaches a block owned by a different task or re-enters
 * a task entry. Calls marked for inclusion by the task-size heuristic
 * keep the current task open through the entire callee execution.
 *
 * The stream is stored flat (docs/PERFORMANCE.md, "Task-stream
 * layout"): one exactly-sized array of 16-byte dynamic instructions
 * for the whole trace, one decoded row per static instruction, and
 * fixed-size task records that address their instructions by offset.
 * A dynamic instruction carries only what varies per execution
 * (static index, branch outcome, memory address); everything else is
 * read from its static row.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cfg/liveness.h"
#include "profile/trace.h"
#include "tasksel/task.h"

namespace msc {
namespace arch {

/** One static instruction, decoded once for the timing model. */
struct StaticInst
{
    ir::InstRef ref;
    uint64_t pc = 0;             ///< Code byte address.

    /** Registers an instance at call depth zero forwards on the ring
     *  right after executing (TaskPartition::fwdSafe). */
    cfg::RegSet fwdSafe = 0;

    cfg::RegSet srcs = 0;        ///< Registers read (Instruction::uses).
    cfg::RegSet dsts = 0;        ///< Registers written, r0 excluded.
    ir::FuClass fu = ir::FuClass::None;
    uint8_t latency = 0;         ///< Non-memory execution latency.
    bool isLoad = false;
    bool isStore = false;
    bool isCondBranch = false;
};

/** One dynamic instruction: the per-execution facts only. */
struct DynInst
{
    uint32_t sidx = 0;           ///< Row in TaskStream::statics.
    bool taken = false;          ///< Conditional-branch outcome.
    bool inCallee = false;       ///< Inside an included callee.
    uint64_t addr = 0;           ///< Effective word address (memory ops).
};
static_assert(sizeof(DynInst) == 16, "DynInst must stay 16 bytes");

/** One dynamic task instance in program order. */
struct DynTask
{
    /** Instructions [first, first + count) of TaskStream::insts. */
    uint32_t first = 0;
    uint32_t count = 0;

    tasksel::TaskId staticTask = tasksel::INVALID_TASK;

    /** Number of control-transfer instructions (Table 1 "#ct inst"). */
    uint32_t ctlInsts = 0;

    /**
     * Index of the actual successor in the static task's target list;
     * -1 when the successor was not an exposed target (forced
     * misprediction) or when this is the final task.
     */
    int32_t actualTargetIdx = -1;

    /** Entry block of the successor dynamic task (invalid at end). */
    ir::BlockRef nextEntry;

    /** Return site pushed when endsInCall (continuation entry). */
    ir::BlockRef callReturnSite;

    /** Kind of the actual successor target. */
    tasksel::TargetKind actualKind = tasksel::TargetKind::Block;

    /** True when this task ends the program. */
    bool last = false;

    /** True when this task's final control transfer is a Call whose
     *  callee begins the next task (push a return site). */
    bool endsInCall = false;

    size_t size() const { return count; }
};
static_assert(sizeof(DynTask) <= 40, "DynTask must stay within 40 bytes");

/** The dynamic task stream of one trace under one partition. */
struct TaskStream
{
    std::vector<DynInst> insts;       ///< Whole trace, program order.
    std::vector<StaticInst> statics;  ///< Indexed by DynInst::sidx.
    std::vector<DynTask> tasks;       ///< Program order; tile insts.

    /** The instructions of @p t. */
    std::span<const DynInst>
    instsOf(const DynTask &t) const
    {
        return {insts.data() + t.first, t.count};
    }

    const StaticInst &stat(const DynInst &di) const
    {
        return statics[di.sidx];
    }

    /** Registers to forward right after @p di executes (zero inside
     *  included callees, whose values release at task end). */
    cfg::RegSet
    fwdMask(const DynInst &di) const
    {
        return di.inCallee ? 0 : statics[di.sidx].fwdSafe;
    }

    /** Heap bytes held, from the arrays' capacities. */
    size_t bytes() const;
};

/**
 * Throws std::runtime_error when a stream of @p dyn_insts dynamic
 * instructions over a program of @p static_insts static instructions
 * cannot be indexed by DynTask::first/count and DynInst::sidx (both
 * 32-bit).
 */
void checkStreamLimits(uint64_t dyn_insts, uint64_t static_insts);

/**
 * Builds the dynamic task stream for @p trace under @p part.
 *
 * The program must have a code layout (Program::layout()). Every
 * block boundary in the trace is checked against the partition; a
 * malformed partition (control entering the middle of a task) throws.
 */
TaskStream cutTasks(const profile::Trace &trace,
                    const tasksel::TaskPartition &part);

} // namespace arch
} // namespace msc
