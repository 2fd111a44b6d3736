/**
 * @file
 * Fuzz campaign driver: generate -> differential check -> shrink ->
 * write reproducer, over a seed range, in parallel.
 *
 * Seeds are independent, so the campaign fans out on
 * report::SweepRunner's worker pool; results are deterministic for a
 * given seed range regardless of worker count.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/oracle.h"

namespace msc {
namespace fuzz {

/** Campaign knobs. */
struct CampaignOptions
{
    /** First seed (inclusive). */
    uint64_t seedBase = 0;

    /** Number of seeds to run. */
    uint64_t count = 200;

    /** Worker threads; 0 picks the hardware concurrency. */
    unsigned jobs = 1;

    /** Program-shape knobs, shared by every seed, except sizeClass:
     *  each seed overwrites it with seed % 4, so one campaign covers
     *  tiny through large shapes and the value set here is unused. */
    GenOptions gen;

    /** Per-oracle dynamic instruction budget. */
    uint64_t maxInsts = 2'000'000;

    /** Resource budget for each seed's whole differential (fuel /
     *  deadline / heap watermark; see runtime/budget.h). Exhaustion
     *  records the seed as a DiffKind::Timeout failure instead of
     *  hanging the campaign. Default: unlimited. */
    runtime::ExecBudget budget;

    /** Shrink failing programs before reporting. NoHalt/Timeout
     *  failures are never shrunk: every shrink candidate of a
     *  non-terminating program replays the full budget, so shrinking
     *  them *is* the hang the budget exists to prevent. */
    bool shrinkFailures = true;

    /** When non-empty, write shrunk reproducers into this directory. */
    std::string corpusDir;
};

/** One failing seed. */
struct CampaignFailure
{
    uint64_t seed = 0;
    DiffResult diff;

    /** Path of the written reproducer (empty when not written). */
    std::string reproPath;

    /** Shrunk textual IR of the failing program. */
    std::string program;
};

/** Aggregate campaign outcome. */
struct CampaignResult
{
    uint64_t executed = 0;
    std::vector<CampaignFailure> failures;   ///< Sorted by seed.

    bool ok() const { return failures.empty(); }
};

/**
 * Runs the campaign. @p progress, when set, is called after every
 * completed seed with (done, total); it may be invoked concurrently.
 */
CampaignResult runCampaign(
    const CampaignOptions &opts,
    const std::function<void(uint64_t, uint64_t)> &progress = {});

} // namespace fuzz
} // namespace msc
