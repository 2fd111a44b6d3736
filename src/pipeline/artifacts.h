/**
 * @file
 * Immutable, shared_ptr-owned artifacts of the staged pipeline.
 *
 * Every stage of a Session produces one of these. Artifacts are
 * content-addressed: `key` is a 64-bit splitmix64-mixed hash of the
 * printed input-program bytes chained with exactly the option fields
 * the producing stage reads (docs/API.md has the full table). An
 * artifact holds shared ownership of everything it references — a
 * PartitionArtifact keeps its TransformedProgram (and thus the
 * ir::Program the partition's raw pointer aliases) alive for as long
 * as the artifact itself, which closes the lifetime hazard the old
 * RunResult documented as "the partition points into prog".
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/stats.h"
#include "arch/taskstream.h"
#include "profile/profiler.h"
#include "tasksel/task.h"

namespace msc {
namespace pipeline {

/** Post-transform program (IV hoisting, unrolling, CFG + layout). */
struct TransformedProgram
{
    uint64_t key = 0;

    /** The transformed program; owned. Immutable once published. */
    std::shared_ptr<const ir::Program> prog;

    /// @name Transform bookkeeping (Table-1 reporting).
    /// @{
    unsigned loopsUnrolled = 0;
    unsigned ivsHoisted = 0;
    /// @}
};

/** Execution profile of a transformed program. */
struct ProfileArtifact
{
    uint64_t key = 0;
    std::shared_ptr<const TransformedProgram> transformed;
    profile::Profile profile;
};

/** Task partition of a transformed program. `partition.prog` aliases
 *  `transformed->prog`, which this artifact keeps alive. */
struct PartitionArtifact
{
    uint64_t key = 0;
    std::shared_ptr<const TransformedProgram> transformed;
    tasksel::TaskPartition partition;
};

/** Functional trace cut into the dynamic task stream a Multiscalar
 *  sequencer dispatches. Depends on the partition (task boundaries)
 *  and the trace budget — but not on arch::SimConfig, which is why
 *  hardware sweeps reuse it. */
struct TaskTrace
{
    uint64_t key = 0;
    std::shared_ptr<const PartitionArtifact> partition;

    /** The cut stream: flat instruction array, decoded static rows
     *  and task records (arch/taskstream.h). */
    arch::TaskStream tasks;

    /** Dynamic instructions in the trace (sum over tasks). */
    uint64_t traceInsts = 0;
};

/** Timing-simulation result. */
struct SimArtifact
{
    uint64_t key = 0;
    std::shared_ptr<const TaskTrace> trace;
    arch::SimStats stats;
};

/** All five artifacts of one fully-run pipeline configuration. */
struct StageResults
{
    std::shared_ptr<const TransformedProgram> transformed;
    std::shared_ptr<const ProfileArtifact> profile;
    std::shared_ptr<const PartitionArtifact> partition;
    std::shared_ptr<const TaskTrace> trace;
    std::shared_ptr<const SimArtifact> sim;
};

} // namespace pipeline
} // namespace msc
