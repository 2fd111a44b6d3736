/**
 * @file
 * Simulator configuration, defaulted to the paper's §4.2 parameters.
 */

#pragma once

#include <cstdint>
#include <cstring>

#include "ir/types.h"

namespace msc {
namespace arch {

/**
 * Architected register count. One constant shared with the IR layer:
 * every per-register array in the timing model (forwarding state,
 * SimStats::extWaitByReg) is sized from here, and stats.h
 * static_asserts the agreement so the two layers cannot drift.
 */
constexpr unsigned NUM_REGS = ir::NUM_REGS;

/**
 * Which simulator core advances time (docs/PERFORMANCE.md).
 *
 * Both cores produce byte-identical results — SimStats, msc.sweep,
 * msc.taskprof, and Perfetto traces — on every input; the cycle core
 * is the reference implementation, the event core skips quiescent
 * cycles. Because the outputs are identical by contract, the mode is
 * deliberately NOT hashed into pipeline cache keys.
 */
enum class CoreMode : uint8_t
{
    Cycle,  ///< Reference: advance one cycle at a time.
    Event,  ///< Fast path: jump quiescent stretches to the next event.
};

constexpr const char *
coreModeName(CoreMode m)
{
    return m == CoreMode::Cycle ? "cycle" : "event";
}

/** Parses "cycle"/"event"; returns false (out untouched) otherwise. */
inline bool
parseCoreMode(const char *s, CoreMode &out)
{
    if (std::strcmp(s, "cycle") == 0) {
        out = CoreMode::Cycle;
        return true;
    }
    if (std::strcmp(s, "event") == 0) {
        out = CoreMode::Event;
        return true;
    }
    return false;
}

/** One cache level's geometry. */
struct CacheConfig
{
    uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 2;
    unsigned blockBytes = 32;
    unsigned hitLatency = 1;
    unsigned banks = 4;
};

/** Full Multiscalar processor configuration (§4.2). */
struct SimConfig
{
    /// @name Processing units.
    /// @{
    unsigned numPUs = 4;
    bool outOfOrder = true;     ///< Out-of-order vs in-order issue.
    unsigned issueWidth = 2;    ///< 2-way issue.
    unsigned fetchWidth = 2;
    unsigned robSize = 16;      ///< 16-entry reorder buffer.
    unsigned issueListSize = 8; ///< 8-entry issue list.
    unsigned numIntFU = 2;
    unsigned numFpFU = 1;
    unsigned numBrFU = 1;
    unsigned numMemFU = 1;
    /// @}

    /// @name Task management.
    /// @{
    unsigned maxTargets = 4;        ///< Successors tracked per task.
    unsigned taskStartOverhead = 2; ///< Dispatch / pipe-fill cycles.
    unsigned taskEndOverhead = 2;   ///< Commit cycles at retire.
    /// @}

    /// @name Prediction.
    /// @{
    unsigned taskPredHistBits = 16;     ///< Path-based scheme [9].
    unsigned taskPredTableSize = 64 * 1024;
    unsigned gshareHistBits = 16;
    unsigned gshareTableSize = 64 * 1024;
    unsigned rasDepth = 16;
    /// @}

    /// @name Register communication ring.
    /// @{
    unsigned ringBandwidth = 2;     ///< Values per cycle per link.
    /// @}

    /// @name Memory hierarchy.
    /// @{
    CacheConfig l1i{64 * 1024, 2, 32, 1, 4};
    CacheConfig l1d{64 * 1024, 2, 32, 1, 4};
    unsigned arbEntriesPerPU = 32;
    unsigned arbHitLatency = 2;
    unsigned syncTableSize = 256;
    CacheConfig l2{4u * 1024 * 1024, 2, 32, 12, 1};
    unsigned memLatency = 58;
    /// @}

    /** Hard stop for runaway simulations. */
    uint64_t maxCycles = 2'000'000'000ull;

    /**
     * Core discipline. Event (the default) and Cycle are
     * byte-identical; Cycle is the slow reference escape hatch
     * (`--core cycle` on the bench binaries; msctool and mscd always
     * run Event).
     */
    CoreMode coreMode = CoreMode::Event;

    /**
     * Returns the paper's configuration for @p pus processing units
     * (L1 caches scale from 64KB at 4 PUs to 128KB at 8 PUs, and are
     * interleaved with as many banks as PUs).
     */
    static SimConfig
    paperConfig(unsigned pus, bool out_of_order = true)
    {
        SimConfig c;
        c.numPUs = pus;
        c.outOfOrder = out_of_order;
        uint64_t l1 = (pus >= 8) ? 128 * 1024 : 64 * 1024;
        c.l1i.sizeBytes = l1;
        c.l1d.sizeBytes = l1;
        c.l1i.banks = pus;
        c.l1d.banks = pus;
        return c;
    }
};

} // namespace arch
} // namespace msc
