/**
 * @file
 * Independent functional replay oracles.
 *
 * The differential harness needs executions that do *not* reuse the
 * interpreter's fetch loop, so a bug there (or in the trace cutter)
 * cannot cancel itself out. Both replayers here keep their own
 * register file, memory image, and control-flow cursor and validate
 * every record of the input stream against what the architectural
 * semantics (ir/semantics.h) say must happen:
 *
 *  - the instruction identity must match the replayer's own idea of
 *    the next program point (re-derived control flow);
 *  - recorded branch outcomes must match outcomes recomputed from the
 *    replayer's register file;
 *  - recorded effective addresses must match recomputed addresses;
 *  - the stream must end exactly at Halt (or entry-frame Ret).
 *
 * replayTrace() checks a raw interpreter trace (oracle C);
 * replayTaskStream() checks the dynamic task stream after partitioning
 * and cutting (oracle B) plus per-task structural invariants.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/taskstream.h"
#include "ir/program.h"
#include "profile/trace.h"

namespace msc {
namespace fuzz {

/** Outcome of one replay, with final architectural state. */
struct ReplayResult
{
    /** False when the stream was internally inconsistent. */
    bool ok = false;

    /** True when the stream ended in Halt / entry-frame Ret. */
    bool halted = false;

    /** First inconsistency found (empty when ok). */
    std::string error;

    /** Final register file. */
    std::array<int64_t, ir::NUM_REGS> regs{};

    /** Final data-memory image. */
    std::vector<int64_t> mem;

    /** Records consumed. */
    uint64_t instCount = 0;
};

/** Replays a raw interpreter trace against @p prog (oracle C). */
ReplayResult replayTrace(const ir::Program &prog,
                         const profile::Trace &trace);

/**
 * Replays the concatenated dynamic task stream against @p prog
 * (oracle B). Also checks stream structure: tasks are non-empty, every
 * instruction belongs to its dynamic task's static task (included
 * calls excepted), and each non-final task's successor entry matches
 * where control actually went.
 */
ReplayResult replayTaskStream(const ir::Program &prog,
                              const arch::TaskStream &stream,
                              const tasksel::TaskPartition &part);

} // namespace fuzz
} // namespace msc
