/**
 * @file
 * Top-level task selection driver (paper Figure 3, task_selection()).
 *
 * Produces a TaskPartition from a program, its execution profile, and
 * a strategy:
 *
 *  - BasicBlock: every basic block is its own task.
 *  - ControlFlow: greedy multi-block growth bounded by N targets.
 *  - DataDependence: profiled def-use dependences are processed in
 *    decreasing frequency order; each is included within a task by
 *    steering growth through its codependent set (expand_task); blocks
 *    left over are partitioned by the control-flow heuristic.
 *
 * The task-size heuristic's *call inclusion* is applied here (calls to
 * functions averaging fewer than CALL_THRESH dynamic instructions do
 * not terminate tasks); its loop unrolling and the induction-variable
 * hoisting are IR transforms that must run before profiling — see
 * transforms.h and pipeline/session.h for the full pipeline.
 */

#pragma once

#include "profile/profiler.h"
#include "runtime/budget.h"
#include "tasksel/options.h"
#include "tasksel/task.h"

namespace msc {
namespace tasksel {

/**
 * Partitions @p prog into tasks.
 *
 * @param prog the program (must be CFG-computed and laid out).
 * @param prof execution profile of the same program version.
 * @param opts strategy and knobs.
 * @param gov optional execution governor, pulse-checked per function
 *        so cancellation/deadline interrupts long selections.
 */
TaskPartition selectTasks(const ir::Program &prog,
                          const profile::Profile &prof,
                          const SelectionOptions &opts,
                          runtime::Governor *gov = nullptr);

} // namespace tasksel
} // namespace msc
