#include "fuzz/replay.h"

#include <sstream>

#include "ir/semantics.h"

namespace msc {
namespace fuzz {

using namespace ir;

namespace {

/**
 * The shared replay core: executes records one at a time, re-deriving
 * control flow and validating each record against its own state.
 */
class Replayer
{
  public:
    explicit Replayer(const Program &prog)
        : _prog(prog)
    {
        _res.mem.assign(prog.memWords, 0);
        for (size_t i = 0;
             i < prog.initData.size() && i < _res.mem.size(); ++i)
            _res.mem[i] = prog.initData[i];
        _fn = prog.entry;
        _blk = prog.functions[prog.entry].entry;
        _idx = 0;
    }

    bool failed() const { return !_res.error.empty(); }
    bool halted() const { return _res.halted; }

    /** Consumes one record; returns false on inconsistency or halt. */
    bool
    step(const profile::TraceEntry &rec)
    {
        if (_res.halted)
            return fail("record after Halt", rec);
        const Function &fn = _prog.functions[_fn];
        if (_blk >= fn.blocks.size())
            return fail("cursor left the CFG", rec);
        const BasicBlock &bb = fn.blocks[_blk];
        if (_idx >= bb.insts.size())
            return fail("cursor ran off block end", rec);

        if (rec.ref.func != _fn || rec.ref.block != _blk ||
            rec.ref.index != _idx) {
            std::ostringstream os;
            os << "control flow diverged: stream has f" << rec.ref.func
               << ":bb" << rec.ref.block << ":" << rec.ref.index
               << ", replay expects f" << _fn << ":bb" << _blk << ":"
               << _idx;
            return fail(os.str(), rec);
        }

        const Instruction &in = bb.insts[_idx];
        ++_res.instCount;

        BlockId next_blk = _blk;
        uint32_t next_idx = _idx + 1;
        FuncId next_fn = _fn;
        bool advanced = false;

        switch (in.op) {
          case Opcode::Halt:
            _res.halted = true;
            return false;

          case Opcode::Br:
          case Opcode::BrZ: {
            bool taken = in.op == Opcode::Br ? _regs[in.src1] != 0
                                             : _regs[in.src1] == 0;
            if (taken != rec.taken)
                return fail(taken ? "branch recorded not-taken but "
                                    "replay takes it"
                                  : "branch recorded taken but replay "
                                    "falls through", rec);
            next_blk = taken ? in.target : bb.fallthrough;
            next_idx = 0;
            advanced = true;
            break;
          }

          case Opcode::Jmp:
            next_blk = in.target;
            next_idx = 0;
            advanced = true;
            break;

          case Opcode::Call:
            _stack.push_back({_fn, bb.fallthrough});
            next_fn = in.callee;
            next_blk = _prog.functions[in.callee].entry;
            next_idx = 0;
            advanced = true;
            break;

          case Opcode::Ret:
            if (_stack.empty()) {
                _res.halted = true;  // Ret from entry terminates.
                return false;
            }
            next_fn = _stack.back().func;
            next_blk = _stack.back().block;
            next_idx = 0;
            _stack.pop_back();
            advanced = true;
            break;

          case Opcode::Nop:
            break;

          case Opcode::Load:
          case Opcode::FLoad: {
            uint64_t a = addrOf(in.src1, in.imm);
            if (a >= _res.mem.size())
                return fail("load out of bounds", rec);
            if (a != rec.addr)
                return fail(addrMsg("load", a, rec.addr), rec);
            write(in.dst, _res.mem[a]);
            break;
          }
          case Opcode::Store:
          case Opcode::FStore: {
            uint64_t a = addrOf(in.src2, in.imm);
            if (a >= _res.mem.size())
                return fail("store out of bounds", rec);
            if (a != rec.addr)
                return fail(addrMsg("store", a, rec.addr), rec);
            _res.mem[a] = _regs[in.src1];
            break;
          }

          default: {
            const OpInfo &oi = in.info();
            if (!oi.hasDst)
                return fail("unexpected opcode in stream", rec);
            int64_t a = oi.readsSrc1 ? _regs[in.src1] : 0;
            int64_t b = (oi.readsSrc2 && in.src2 != NO_REG)
                ? _regs[in.src2] : in.imm;
            write(in.dst, evalScalar(in.op, a, b));
            break;
          }
        }

        if (!advanced && _idx + 1 >= bb.insts.size()) {
            next_blk = bb.fallthrough;
            next_idx = 0;
        }
        _fn = next_fn;
        _blk = next_blk;
        _idx = next_idx;
        return true;
    }

    ReplayResult
    finish()
    {
        _res.regs = _regs;
        _res.ok = _res.error.empty() && _res.halted;
        if (_res.error.empty() && !_res.halted)
            _res.error = "stream ended before Halt";
        return std::move(_res);
    }

  private:
    bool
    fail(const std::string &what, const profile::TraceEntry &rec)
    {
        if (_res.error.empty()) {
            std::ostringstream os;
            os << what << " (record " << _res.instCount << " at f"
               << rec.ref.func << ":bb" << rec.ref.block << ":"
               << rec.ref.index << ")";
            _res.error = os.str();
        }
        return false;
    }

    static std::string
    addrMsg(const char *op, uint64_t computed, uint64_t recorded)
    {
        std::ostringstream os;
        os << op << " address mismatch: replay computes " << computed
           << ", stream recorded " << recorded;
        return os.str();
    }

    uint64_t
    addrOf(RegId base, int64_t off) const
    {
        int64_t a = (base != NO_REG ? _regs[base] : 0) + off;
        return uint64_t(a);
    }

    void
    write(RegId d, int64_t v)
    {
        if (d != REG_ZERO)
            _regs[d] = v;
    }

    struct RetSite { FuncId func; BlockId block; };

    const Program &_prog;
    ReplayResult _res;
    std::array<int64_t, NUM_REGS> _regs{};
    std::vector<RetSite> _stack;
    FuncId _fn;
    BlockId _blk;
    uint32_t _idx;
};

} // anonymous namespace

ReplayResult
replayTrace(const Program &prog, const profile::Trace &trace)
{
    Replayer r(prog);
    for (size_t i = 0; i < trace.entries.size(); ++i) {
        if (!r.step(trace.entries[i])) {
            // A valid stream stops exactly at its final record.
            if (r.halted() && i + 1 != trace.entries.size()) {
                ReplayResult res = r.finish();
                res.ok = false;
                res.error = "trace continues past Halt";
                return res;
            }
            break;
        }
    }
    return r.finish();
}

ReplayResult
replayTaskStream(const Program &prog, const arch::TaskStream &stream,
                 const tasksel::TaskPartition &part)
{
    Replayer r(prog);
    auto structural = [&](const std::string &msg) {
        ReplayResult res = r.finish();
        res.ok = false;
        res.error = msg;
        return res;
    };

    const std::vector<arch::DynTask> &tasks = stream.tasks;
    for (size_t ti = 0; ti < tasks.size(); ++ti) {
        const arch::DynTask &dt = tasks[ti];
        if (dt.count == 0)
            return structural("dynamic task " + std::to_string(ti) +
                              " is empty");
        if (dt.staticTask >= part.tasks.size())
            return structural("dynamic task " + std::to_string(ti) +
                              " has invalid static task id");
        const tasksel::Task &st = part.tasks[dt.staticTask];
        std::span<const arch::DynInst> insts = stream.instsOf(dt);

        // Every dynamic task must begin at its static task's entry.
        const InstRef first = stream.stat(insts.front()).ref;
        if (first.func != st.func || first.block != st.entry ||
            first.index != 0)
            return structural("dynamic task " + std::to_string(ti) +
                              " does not begin at its static entry");

        // At call depth zero, every executed block must belong to the
        // static task. Included calls run at depth > 0 inside other
        // functions; their blocks are exempt by construction.
        int depth = 0;
        bool track = true;
        for (const arch::DynInst &di : insts) {
            const InstRef ref = stream.stat(di).ref;
            if (track && depth == 0 &&
                part.taskIdOf(ref.func, ref.block) != dt.staticTask)
                return structural(
                    "dynamic task " + std::to_string(ti) +
                    " executes a block owned by another task");
            const Instruction &in = prog.inst(ref);
            if (in.op == Opcode::Call)
                ++depth;
            else if (in.op == Opcode::Ret) {
                if (depth == 0)
                    track = false;  // Task ends past a Ret boundary.
                else
                    --depth;
            }

            profile::TraceEntry rec{ref, di.addr, di.taken};
            if (!r.step(rec)) {
                bool is_last_record =
                    ti + 1 == tasks.size() && &di == &insts.back();
                if (r.halted() && !is_last_record)
                    return structural("task stream continues past Halt");
                if (!r.halted() || !is_last_record)
                    return r.finish();
            }
        }

        // Successor linkage: the next dynamic task must begin where
        // this one said control goes.
        if (ti + 1 < tasks.size()) {
            const InstRef nf =
                stream.stat(stream.instsOf(tasks[ti + 1]).front()).ref;
            if (dt.nextEntry.func != nf.func ||
                dt.nextEntry.block != nf.block)
                return structural(
                    "dynamic task " + std::to_string(ti) +
                    " successor entry disagrees with next task");
        } else if (!dt.last) {
            return structural("final dynamic task not marked last");
        }
    }
    return r.finish();
}

} // namespace fuzz
} // namespace msc
