/**
 * @file
 * The Multiscalar processor timing model.
 *
 * A ring of processing units (PUs) executes the dynamic task stream
 * under the sequencer's control (§2.1):
 *
 *  - The sequencer assigns the predicted next task to the next PU in
 *    ring order (one assignment per cycle). Predictions come from the
 *    path-based inter-task predictor plus a return-address stack for
 *    Return-kind targets. A misprediction leaves the PU executing
 *    bogus work until the predecessor task resolves its successor (at
 *    its completion — "late resolution", §2.4.2); all younger tasks
 *    are then squashed and their accumulated cycles become control
 *    misspeculation penalty.
 *
 *  - Each PU models a 2-way pipeline with a 16-entry ROB, 8-entry
 *    issue list, 2 int / 1 fp / 1 branch / 1 mem FU, gshare-driven
 *    fetch for intra-task branches, and L1I behaviour. PUs issue out
 *    of order or in order per configuration.
 *
 *  - Inter-task register dependences ride the forwarding ring: a task
 *    forwards a register at its safe forward point or releases it at
 *    completion; consumers wait on the youngest older in-flight task
 *    whose create mask covers the register.
 *
 *  - Loads and stores go through the ARB; a store hitting a younger
 *    task's premature load squashes that task and its successors
 *    (memory misspeculation penalty) and trains the synchronization
 *    table, which gates future instances of the offending load.
 *
 *  - Tasks complete, then retire strictly in order (head first); the
 *    gap between completion and retirement is load imbalance; fixed
 *    per-task dispatch and commit costs are task start/end overhead
 *    (Figure 2).
 *
 * Two interchangeable cores advance time (SimConfig::coreMode,
 * docs/PERFORMANCE.md): the cycle core steps every cycle and is the
 * seed-faithful reference; the event core detects globally quiescent
 * cycles and jumps straight to the next scheduled event, bulk-
 * replaying the per-cycle accounting for the skipped stretch. Their
 * outputs — every SimStats field but the eventSkippedCycles
 * diagnostic, trace sink event streams, and the simulated cycle at
 * which a Governor budget trips — are byte-identical by contract;
 * tests/test_eventcore.cc enforces it across hand-built programs,
 * workloads, and the fuzz corpus.
 */

#pragma once

#include "arch/config.h"
#include "arch/stats.h"
#include "arch/taskstream.h"
#include "runtime/budget.h"
#include "tasksel/task.h"

namespace msc {

namespace obs {
class TraceSink;
}

namespace arch {

/**
 * Runs the full timing simulation of @p tasks (the dynamic task
 * stream of a program under some partition, arch/taskstream.h) and
 * returns the statistics. Both cores read each instruction's decoded
 * static row (TaskStream::statics), never the IR.
 *
 * @p sink, when non-null, receives the task-lifecycle event stream
 * (assignment, commit with per-instance attribution, squashes, stall
 * instants, window counters — see obs/tracesink.h). A null sink is
 * the fast path: no event is constructed.
 *
 * @p gov, when non-null, enforces the execution budget: the simulated
 * cycle cap (ErrorKind::BudgetCycles) is checked every cycle, and the
 * cancel/deadline pulse fires every 4096 cycles starting at cycle 0,
 * so a pre-cancelled token aborts before any simulation work.
 */
SimStats simulate(const tasksel::TaskPartition &part,
                  const TaskStream &tasks,
                  const SimConfig &cfg,
                  obs::TraceSink *sink = nullptr,
                  runtime::Governor *gov = nullptr);

} // namespace arch
} // namespace msc
