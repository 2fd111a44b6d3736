/**
 * @file
 * Wall-clock timing of the five pipeline::Session stages.
 *
 * Attach a PhaseTimes to StageOptions::phaseTimes and the Session
 * fills in how long each stage took on the host. This is *host* time, not
 * simulated time: it answers "where does msctool spend its seconds",
 * not "where do PU cycles go". It is reported on stderr and (on
 * request) as a separate track in the trace file, and is deliberately
 * never part of `msc.sweep` documents, which stay byte-deterministic
 * (docs/METRICS.md).
 */

#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace msc {
namespace obs {

/** The pipeline stages, in execution order. */
enum class PipelinePhase : uint8_t
{
    Transforms,     ///< IV hoisting, unrolling, CFG + layout.
    Profile,        ///< Profiling interpreter run.
    Selection,      ///< Task selection + partition verification.
    TraceCut,       ///< Functional trace + dynamic task cutting.
    TimingSim,      ///< The Multiscalar timing model.
    NUM_PHASES
};

constexpr size_t NUM_PIPELINE_PHASES = size_t(PipelinePhase::NUM_PHASES);

/** Short stable label for @p p. */
const char *pipelinePhaseName(PipelinePhase p);

/** Accumulated wall-clock microseconds per pipeline stage. */
struct PhaseTimes
{
    std::array<double, NUM_PIPELINE_PHASES> micros{};

    void
    add(PipelinePhase p, double us)
    {
        micros[size_t(p)] += us;
    }

    double
    total() const
    {
        double t = 0;
        for (double m : micros)
            t += m;
        return t;
    }
};

/** Renders an aligned "phase / ms / % of total" breakdown. */
std::string formatPhaseTimes(const PhaseTimes &pt);

} // namespace obs
} // namespace msc
