#include "fuzz/oracle.h"

#include <sstream>
#include <stdexcept>

#include "arch/taskstream.h"
#include "fuzz/replay.h"
#include "profile/interpreter.h"
#include "profile/profiler.h"
#include "tasksel/pverify.h"
#include "tasksel/selector.h"
#include "tasksel/transforms.h"

namespace msc {
namespace fuzz {

const char *
diffKindName(DiffKind k)
{
    switch (k) {
      case DiffKind::Ok:               return "ok";
      case DiffKind::GenError:         return "gen-error";
      case DiffKind::NoHalt:           return "no-halt";
      case DiffKind::Timeout:          return "timeout";
      case DiffKind::TraceDivergence:  return "trace-divergence";
      case DiffKind::PartitionInvalid: return "partition-invalid";
      case DiffKind::CutError:         return "cut-error";
      case DiffKind::StreamDivergence: return "stream-divergence";
      case DiffKind::StateDivergence:  return "state-divergence";
    }
    return "unknown";
}

std::vector<DiffConfig>
defaultConfigs()
{
    using tasksel::Strategy;
    std::vector<DiffConfig> cfgs;
    auto add = [&](const char *name, Strategy s,
                   unsigned max_targets, bool dd_term) {
        DiffConfig c;
        c.name = name;
        c.sel.strategy = s;
        c.sel.maxTargets = max_targets;
        c.sel.ddTerminateAtDependence = dd_term;
        c.sel.taskSizeHeuristic = false;
        c.sel.hoistInductionVars = false;
        cfgs.push_back(std::move(c));
    };
    add("bb", Strategy::BasicBlock, 4, false);
    add("cf", Strategy::ControlFlow, 4, false);
    add("cf-n2", Strategy::ControlFlow, 2, false);
    add("dd", Strategy::DataDependence, 4, false);
    add("dd-term", Strategy::DataDependence, 4, true);

    // Transform-enabled pipeline: IV hoisting rewrites register
    // lifetimes, so only the memory image and halt status are
    // comparable across the transform boundary.
    DiffConfig x;
    x.name = "dd-xform";
    x.sel.strategy = Strategy::DataDependence;
    x.sel.taskSizeHeuristic = true;
    x.sel.hoistInductionVars = true;
    x.transforms = true;
    x.bitExact = false;
    cfgs.push_back(std::move(x));
    return cfgs;
}

namespace {

/** Describes the first register / memory word / count mismatch. */
std::string
describeStateDiff(const profile::Interpreter &ref,
                  const ReplayResult &got, bool bit_exact)
{
    std::ostringstream os;
    if (bit_exact) {
        for (unsigned r = 0; r < ir::NUM_REGS; ++r) {
            if (ref.regs()[r] != got.regs[r]) {
                os << "r" << r << ": reference " << ref.regs()[r]
                   << ", pipeline " << got.regs[r];
                return os.str();
            }
        }
        if (ref.instCount() != got.instCount) {
            os << "instruction count: reference " << ref.instCount()
               << ", pipeline " << got.instCount;
            return os.str();
        }
    }
    const auto &m1 = ref.memory();
    const auto &m2 = got.mem;
    if (m1.size() != m2.size()) {
        os << "memory size: reference " << m1.size() << ", pipeline "
           << m2.size();
        return os.str();
    }
    for (size_t w = 0; w < m1.size(); ++w) {
        if (m1[w] != m2[w]) {
            os << "mem[" << w << "]: reference " << m1[w]
               << ", pipeline " << m2[w];
            return os.str();
        }
    }
    return "";
}

DiffResult
failure(DiffKind kind, const std::string &config,
        const std::string &detail)
{
    DiffResult r;
    r.kind = kind;
    r.config = config;
    r.detail = detail;
    return r;
}

DiffResult
runDifferentialImpl(const ir::Program &prog,
                    const std::vector<DiffConfig> &configs,
                    uint64_t max_insts, runtime::Governor *gov)
{
    static const std::vector<DiffConfig> defaults = defaultConfigs();
    const std::vector<DiffConfig> &cfgs =
        configs.empty() ? defaults : configs;

    // Oracle A: reference interpretation, capturing the trace so the
    // final state and the dynamic stream come from the same run.
    profile::Interpreter ref(prog);
    profile::Trace ref_trace = ref.trace(max_insts, gov);
    if (!ref_trace.completed)
        return failure(DiffKind::NoHalt, "",
                       "reference run exceeded " +
                       std::to_string(max_insts) + " instructions");

    // Oracle C: independent replay of the raw trace.
    {
        ReplayResult c = replayTrace(prog, ref_trace);
        if (!c.ok)
            return failure(DiffKind::TraceDivergence, "", c.error);
        std::string diff = describeStateDiff(ref, c, true);
        if (!diff.empty())
            return failure(DiffKind::StateDivergence, "trace-replay",
                           diff);
    }

    // Oracle B: the task pipeline under every config.
    for (const DiffConfig &cfg : cfgs) {
        ir::Program p = prog;
        if (cfg.transforms) {
            tasksel::unrollSmallLoops(p, cfg.sel.loopThresh, 16, gov);
            if (cfg.sel.hoistInductionVars)
                tasksel::hoistInductionVariables(p, gov);
        }
        p.computeCfg();
        p.layout();

        profile::Profile prof;
        tasksel::TaskPartition part;
        try {
            prof = profile::profileProgram(p, max_insts, gov);
            part = tasksel::selectTasks(p, prof, cfg.sel, gov);
        } catch (const runtime::StageError &e) {
            if (e.info().budgetExhausted() ||
                e.info().kind == runtime::ErrorKind::Cancelled)
                throw;  // budget/deadline -> Timeout at the boundary
            return failure(DiffKind::PartitionInvalid, cfg.name,
                           e.what());
        } catch (const std::exception &e) {
            return failure(DiffKind::PartitionInvalid, cfg.name,
                           e.what());
        }
        std::string err;
        if (!tasksel::verifyPartition(part, cfg.sel, &err))
            return failure(DiffKind::PartitionInvalid, cfg.name, err);

        profile::Interpreter itp(p);
        profile::Trace trace = itp.trace(max_insts, gov);
        if (!trace.completed)
            return failure(DiffKind::NoHalt, cfg.name,
                           "transformed program exceeded budget");

        arch::TaskStream stream;
        try {
            stream = arch::cutTasks(trace, part);
        } catch (const std::exception &e) {
            return failure(DiffKind::CutError, cfg.name, e.what());
        }

        ReplayResult b = replayTaskStream(p, stream, part);
        if (!b.ok)
            return failure(DiffKind::StreamDivergence, cfg.name,
                           b.error);

        std::string diff = describeStateDiff(ref, b, cfg.bitExact);
        if (!diff.empty())
            return failure(DiffKind::StateDivergence, cfg.name, diff);
    }

    return DiffResult{};
}

} // anonymous namespace

DiffResult
runDifferential(const ir::Program &prog,
                const std::vector<DiffConfig> &configs,
                uint64_t max_insts, const runtime::ExecBudget &budget)
{
    if (budget.unlimited())
        return runDifferentialImpl(prog, configs, max_insts, nullptr);

    // One Governor spans every oracle: the budget bounds the whole
    // differential, so an adversarial program cannot stall a campaign
    // in *any* oracle (the reference run, a transform, profiling,
    // selection, or a trace).
    runtime::Governor gov(budget);
    try {
        return runDifferentialImpl(prog, configs, max_insts, &gov);
    } catch (const runtime::StageError &e) {
        if (e.info().budgetExhausted() ||
            e.info().kind == runtime::ErrorKind::Cancelled)
            return failure(DiffKind::Timeout, "", e.info().render());
        throw;
    }
}

} // namespace fuzz
} // namespace msc
