#include "oracle.hh"

#include <cstring>
#include <sstream>

#include "base/json_fields.hh"
#include "base/logging.hh"
#include "baseline/baseline.hh"
#include "core/processor.hh"
#include "fastpath/engine.hh"
#include "machine/manycore.hh"
#include "mem/memory.hh"

namespace smtsim::fuzz
{

namespace
{

std::uint64_t
fpBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

bool
isQueuePairReg(int idx, bool fp)
{
    return fp ? (idx == 8 || idx == 9) : (idx == 20 || idx == 21);
}

void
captureMemory(const Program &prog, MainMemory &mem, EngineState &st)
{
    const std::size_t words = prog.data.size() / 4;
    st.mem.reserve(words);
    for (std::size_t i = 0; i < words; ++i) {
        st.mem.push_back(
            mem.read32(prog.data_base + static_cast<Addr>(i) * 4));
    }
}

} // namespace

std::string
RunConfig::name() const
{
    std::ostringstream os;
    switch (engine) {
      case Engine::Interp: os << "interp"; break;
      case Engine::Baseline: os << "baseline"; break;
      case Engine::Core: os << "core"; break;
      case Engine::Fast: os << "fast"; break;
    }
    os << " slots=" << slots;
    if (engine != Engine::Interp && engine != Engine::Fast) {
        os << " ff=" << (fast_forward ? 1 : 0);
        os << " width=" << width;
    }
    if (engine == Engine::Core) {
        os << " cache=" << (cache ? 1 : 0);
        os << " standby=" << (standby ? 1 : 0);
        if (explicit_rot)
            os << " rot=explicit interval=" << interval;
        if (remote)
            os << " remote=1";
    }
    return os.str();
}

EngineState
runEngine(const Program &prog, const RunConfig &rc,
          const OracleBudget &budget)
{
    EngineState st;
    MainMemory mem;
    prog.loadInto(mem);
    try {
        switch (rc.engine) {
          case Engine::Interp:
          case Engine::Fast: {
            InterpConfig cfg;
            cfg.num_threads = rc.slots;
            cfg.max_steps = budget.interp_max_steps;
            fastpath::FastEngine fast(prog, mem, cfg);
            const InterpResult r = rc.engine == Engine::Interp
                                       ? fast.runReference()
                                       : fast.run();
            st.finished = r.completed;
            st.instructions = r.steps;
            for (int t = 0; t < rc.slots; ++t) {
                std::array<std::uint32_t, kNumRegs> ir{};
                std::array<std::uint64_t, kNumRegs> fr{};
                for (int i = 0; i < kNumRegs; ++i) {
                    ir[i] = fast.intReg(t, static_cast<RegIndex>(i));
                    fr[i] =
                        fpBits(fast.fpReg(t, static_cast<RegIndex>(i)));
                }
                st.iregs.push_back(ir);
                st.fregs.push_back(fr);
            }
            break;
          }
          case Engine::Baseline: {
            BaselineConfig cfg;
            cfg.width = rc.width;
            cfg.fast_forward = rc.fast_forward;
            cfg.max_cycles = budget.max_cycles;
            BaselineProcessor cpu(prog, mem, cfg);
            const RunStats stats = cpu.run();
            st.finished = stats.finished;
            st.instructions = stats.instructions;
            std::array<std::uint32_t, kNumRegs> ir{};
            std::array<std::uint64_t, kNumRegs> fr{};
            for (int i = 0; i < kNumRegs; ++i) {
                ir[i] = cpu.intReg(static_cast<RegIndex>(i));
                fr[i] = fpBits(cpu.fpReg(static_cast<RegIndex>(i)));
            }
            st.iregs.push_back(ir);
            st.fregs.push_back(fr);
            break;
          }
          case Engine::Core: {
            CoreConfig cfg;
            cfg.num_slots = rc.slots;
            cfg.width = rc.width;
            cfg.fast_forward = rc.fast_forward;
            cfg.standby_enabled = rc.standby;
            cfg.max_cycles = budget.max_cycles;
            if (rc.explicit_rot) {
                cfg.rotation_mode = RotationMode::Explicit;
                cfg.rotation_interval = rc.interval;
            }
            if (rc.cache) {
                cfg.dcache.size_bytes = 1024;
                cfg.icache.size_bytes = 1024;
            }
            if (rc.remote) {
                // The shared word table becomes remote memory so the
                // seed loads take data-absence traps; one extra
                // context frame exercises concurrent multithreading.
                cfg.remote.base = prog.symbol("table");
                cfg.remote.size = 64;
                cfg.remote.latency = 40;
                cfg.num_frames = cfg.num_slots + 1;
            }
            MultithreadedProcessor cpu(prog, mem, cfg);
            const RunStats stats = cpu.run();
            st.finished = stats.finished;
            st.instructions = stats.instructions;
            st.timing = stats;
            st.detail = cpu.detail().all();
            for (int t = 0; t < rc.slots; ++t) {
                std::array<std::uint32_t, kNumRegs> ir{};
                std::array<std::uint64_t, kNumRegs> fr{};
                for (int i = 0; i < kNumRegs; ++i) {
                    ir[i] = cpu.intReg(t, static_cast<RegIndex>(i));
                    fr[i] =
                        fpBits(cpu.fpReg(t, static_cast<RegIndex>(i)));
                }
                st.iregs.push_back(ir);
                st.fregs.push_back(fr);
            }
            break;
          }
        }
        captureMemory(prog, mem, st);
    } catch (const FatalError &e) {
        st.trapped = true;
        st.trap = std::string("fatal: ") + e.what();
    } catch (const PanicError &e) {
        st.trapped = true;
        st.trap = std::string("panic: ") + e.what();
    }
    return st;
}

std::string
diffStates(const EngineState &ref, const EngineState &got,
           bool mask_queue_regs)
{
    std::ostringstream os;
    if (ref.trapped != got.trapped) {
        os << "trap mismatch: ref "
           << (ref.trapped ? ref.trap : "clean") << " vs "
           << (got.trapped ? got.trap : "clean");
        return os.str();
    }
    if (ref.trapped)
        return {};      // both trapped: parity holds
    if (ref.finished != got.finished) {
        os << "finished mismatch: ref "
           << (ref.finished ? "yes" : "no") << " vs "
           << (got.finished ? "yes" : "no");
        return os.str();
    }
    if (ref.instructions != got.instructions) {
        os << "retired-instruction mismatch: ref "
           << ref.instructions << " vs " << got.instructions;
        return os.str();
    }
    const std::size_t threads =
        ref.iregs.size() < got.iregs.size() ? ref.iregs.size()
                                            : got.iregs.size();
    for (std::size_t t = 0; t < threads; ++t) {
        for (int i = 0; i < kNumRegs; ++i) {
            if (mask_queue_regs && isQueuePairReg(i, false))
                continue;
            if (ref.iregs[t][i] != got.iregs[t][i]) {
                os << "thread " << t << " r" << i << ": ref "
                   << ref.iregs[t][i] << " vs " << got.iregs[t][i];
                return os.str();
            }
        }
        for (int i = 0; i < kNumRegs; ++i) {
            if (mask_queue_regs && isQueuePairReg(i, true))
                continue;
            if (ref.fregs[t][i] != got.fregs[t][i]) {
                os << "thread " << t << " f" << i << ": ref bits 0x"
                   << std::hex << ref.fregs[t][i] << " vs 0x"
                   << got.fregs[t][i];
                return os.str();
            }
        }
    }
    for (std::size_t i = 0;
         i < ref.mem.size() && i < got.mem.size(); ++i) {
        if (ref.mem[i] != got.mem[i]) {
            os << "mem word " << i << " (+0x" << std::hex << i * 4
               << "): ref " << std::dec << ref.mem[i] << " vs "
               << got.mem[i];
            return os.str();
        }
    }
    if (ref.timing && got.timing) {
        if (*ref.timing != *got.timing) {
            return "timing mismatch: ref " +
                   toJson(*ref.timing).dump() + " vs " +
                   toJson(*got.timing).dump();
        }
        if (ref.detail != got.detail) {
            os << "timing mismatch: detail counters";
            for (const auto &[name, value] : ref.detail) {
                const auto it = got.detail.find(name);
                const std::uint64_t other =
                    it == got.detail.end() ? 0 : it->second;
                if (value != other)
                    os << " " << name << " ref " << value << " vs "
                       << other;
            }
            return os.str();
        }
    }
    return {};
}

DivClass
classifyDivergence(const std::string &detail)
{
    if (detail.rfind("trap mismatch", 0) == 0)
        return DivClass::Trap;
    if (detail.rfind("finished mismatch", 0) == 0)
        return DivClass::Finished;
    if (detail.rfind("retired-instruction mismatch", 0) == 0)
        return DivClass::Instructions;
    if (detail.rfind("timing mismatch", 0) == 0)
        return DivClass::Timing;
    return DivClass::State;
}

std::vector<std::pair<RunConfig, RunConfig>>
buildGrid(const GenFeatures &features)
{
    std::vector<std::pair<RunConfig, RunConfig>> grid;
    auto interpRef = [](int slots) {
        RunConfig rc;
        rc.engine = Engine::Interp;
        rc.slots = slots;
        return rc;
    };

    // The chunk loop must be architecturally indistinguishable from
    // reference stepping at every logical-processor count.
    for (int slots : {1, 2, 4, 8}) {
        RunConfig rc;
        rc.engine = Engine::Fast;
        rc.slots = slots;
        grid.emplace_back(interpRef(slots), rc);
    }

    // The issue's grid: slots 1/2/4/8 x fast-forward x cache.
    for (int slots : {1, 2, 4, 8}) {
        for (bool ff : {true, false}) {
            for (bool cache : {true, false}) {
                RunConfig rc;
                rc.engine = Engine::Core;
                rc.slots = slots;
                rc.fast_forward = ff;
                rc.cache = cache;
                grid.emplace_back(interpRef(slots), rc);
            }
        }
    }

    // Micro-architecture extras at the paper's headline S=4.
    {
        RunConfig rc;
        rc.engine = Engine::Core;
        rc.slots = 4;
        rc.standby = false;
        grid.emplace_back(interpRef(4), rc);

        rc = {};
        rc.engine = Engine::Core;
        rc.slots = 4;
        rc.width = 2;
        grid.emplace_back(interpRef(4), rc);

        rc = {};
        rc.engine = Engine::Core;
        rc.slots = 4;
        rc.explicit_rot = true;
        rc.interval = 8;
        grid.emplace_back(interpRef(4), rc);
    }

    // Remote memory rebinds contexts across slots after a switch,
    // which permutes the (slot-indexed) queue ring; the pairing is
    // only meaningful for queue-free programs. Priority-gated
    // instructions are likewise skipped: their blocking interacts
    // with which *slot* holds the ring head, not which context.
    if (!features.usesQueues() && !features.priority) {
        RunConfig rc;
        rc.engine = Engine::Core;
        rc.slots = 4;
        rc.remote = true;
        grid.emplace_back(interpRef(4), rc);
    }

    // Baseline executes thread-control ops as no-ops, so it only
    // models the single-thread projection; queue programs would
    // bypass the FIFO entirely and legitimately differ.
    if (!features.usesQueues()) {
        for (bool ff : {true, false}) {
            RunConfig rc;
            rc.engine = Engine::Baseline;
            rc.slots = 1;
            rc.fast_forward = ff;
            grid.emplace_back(interpRef(1), rc);
        }
        RunConfig rc;
        rc.engine = Engine::Baseline;
        rc.slots = 1;
        rc.width = 2;
        grid.emplace_back(interpRef(1), rc);
    }
    return grid;
}

std::optional<Divergence>
checkPair(const Program &prog, const GenFeatures &features,
          const RunConfig &ref, const RunConfig &cfg,
          const OracleBudget &budget)
{
    const EngineState a = runEngine(prog, ref, budget);
    const EngineState b = runEngine(prog, cfg, budget);
    const std::string diff =
        diffStates(a, b, features.usesQueues());
    if (diff.empty())
        return std::nullopt;
    return Divergence{ref, cfg, diff};
}

std::optional<Divergence>
checkReplayTiming(const Program &prog, const GenFeatures &features,
                  const OracleBudget &budget)
{
    (void)features;     // verified replay self-detects divergence
    RunConfig cell;     // the cell being exercised, for reports
    cell.engine = Engine::Core;
    cell.slots = 4;

    CoreConfig ccfg;
    ccfg.num_slots = cell.slots;
    ccfg.max_cycles = budget.max_cycles;

    InterpConfig icfg;
    icfg.num_threads = ccfg.num_slots;
    icfg.queue_depth = ccfg.queue_reg_depth;
    icfg.max_steps = budget.interp_max_steps;

    try {
        MainMemory fmem;
        prog.loadInto(fmem);
        const fastpath::TracedRun recorded =
            fastpath::recordTrace(prog, fmem, icfg);
        if (!recorded.result.completed)
            return std::nullopt;    // budget-bound; nothing to time

        MainMemory emem;
        prog.loadInto(emem);
        MultithreadedProcessor exec(prog, emem, ccfg);
        const RunStats a = exec.run();

        RunStats b;
        try {
            MainMemory rmem;
            prog.loadInto(rmem);
            MultithreadedProcessor rep(prog, rmem, ccfg);
            rep.setReplayTrace(&recorded.trace);
            b = rep.run();
        } catch (const ReplayDivergence &) {
            // Legitimately non-replayable (interleaving-dependent
            // control flow); production code falls back to execute
            // mode, so there is nothing to compare.
            return std::nullopt;
        }
        if (a != b) {
            return Divergence{cell, cell,
                              "replay timing mismatch: execute " +
                                  toJson(a).dump() + " vs replay " +
                                  toJson(b).dump()};
        }
    } catch (const FatalError &) {
        // Trapping programs are covered by the architectural grid;
        // trap parity is checked there.
    } catch (const PanicError &) {
    }
    return std::nullopt;
}

std::optional<Divergence>
checkManyCoreDeterminism(const Program &prog,
                         const GenFeatures &features,
                         const OracleBudget &budget)
{
    // Same gating as the single-core remote cell: remote traps
    // rebind contexts across slots, which permutes queue rings and
    // priority ring heads.
    if (features.usesQueues() || features.priority)
        return std::nullopt;

    RunConfig cell;     // for reports only
    cell.engine = Engine::Core;
    cell.slots = 4;
    cell.remote = true;

    MachineConfig mcfg;
    mcfg.num_cores = 2;
    mcfg.core.num_slots = cell.slots;
    mcfg.core.max_cycles = budget.max_cycles;
    mcfg.core.remote.base = prog.symbol("table");
    mcfg.core.remote.size = 64;
    mcfg.core.num_frames = mcfg.core.num_slots + 1;

    auto capture = [&](int host_threads, MachineStats *stats,
                       std::vector<EngineState> *cores) {
        ManyCoreMachine m(prog, mcfg);
        *stats = m.run(host_threads);
        for (int c = 0; c < m.numCores(); ++c) {
            EngineState st;
            st.finished = (*stats).cores[c].finished;
            st.instructions = (*stats).cores[c].instructions;
            for (int t = 0; t < mcfg.core.num_slots; ++t) {
                std::array<std::uint32_t, kNumRegs> ir{};
                std::array<std::uint64_t, kNumRegs> fr{};
                for (int i = 0; i < kNumRegs; ++i) {
                    ir[i] = m.core(c).intReg(
                        t, static_cast<RegIndex>(i));
                    fr[i] = fpBits(m.core(c).fpReg(
                        t, static_cast<RegIndex>(i)));
                }
                st.iregs.push_back(ir);
                st.fregs.push_back(fr);
            }
            captureMemory(prog, m.memory(c), st);
            cores->push_back(std::move(st));
        }
    };

    try {
        MachineStats sa, sb;
        std::vector<EngineState> ca, cb;
        capture(0, &sa, &ca);   // sequential reference schedule
        capture(2, &sb, &cb);   // one host thread per core
        if (sa != sb) {
            return Divergence{
                cell, cell,
                "manycore schedule divergence: sequential " +
                    toJson(sa).dump() + " vs threaded " +
                    toJson(sb).dump()};
        }
        for (std::size_t c = 0; c < ca.size(); ++c) {
            const std::string diff = diffStates(ca[c], cb[c], false);
            if (!diff.empty()) {
                return Divergence{cell, cell,
                                  "manycore schedule divergence: "
                                  "core " +
                                      std::to_string(c) + ": " +
                                      diff};
            }
        }
    } catch (const FatalError &) {
        // Trap parity across schedules is uninteresting here; the
        // architectural grid covers trapping programs.
    } catch (const PanicError &) {
    }
    return std::nullopt;
}

std::optional<Divergence>
checkProgram(const Program &prog, const GenFeatures &features,
             const OracleBudget &budget)
{
    // Each reference state is computed once per slot count.
    std::vector<std::pair<RunConfig, RunConfig>> grid =
        buildGrid(features);
    std::vector<std::pair<std::string, EngineState>> ref_cache;
    // Fast-forward core cells, awaiting their naive-loop twins (the
    // grid lists each ff=1 cell before its ff=0 twin).
    std::vector<std::pair<RunConfig, EngineState>> ff_cells;
    for (const auto &[ref, cfg] : grid) {
        const std::string key = ref.name();
        const EngineState *ref_state = nullptr;
        for (const auto &[k, st] : ref_cache) {
            if (k == key) {
                ref_state = &st;
                break;
            }
        }
        if (!ref_state) {
            ref_cache.emplace_back(key, runEngine(prog, ref, budget));
            ref_state = &ref_cache.back().second;
        }
        EngineState got = runEngine(prog, cfg, budget);
        const std::string diff =
            diffStates(*ref_state, got, features.usesQueues());
        if (!diff.empty())
            return Divergence{ref, cfg, diff};
        if (cfg.engine != Engine::Core)
            continue;
        if (cfg.fast_forward) {
            ff_cells.emplace_back(cfg, std::move(got));
            continue;
        }
        RunConfig twin = cfg;
        twin.fast_forward = true;
        for (const auto &[ff_cfg, ff_state] : ff_cells) {
            if (!(ff_cfg == twin))
                continue;
            const std::string tdiff =
                diffStates(ff_state, got, features.usesQueues());
            if (!tdiff.empty())
                return Divergence{ff_cfg, cfg, tdiff};
        }
    }
    if (auto div = checkReplayTiming(prog, features, budget))
        return div;
    return checkManyCoreDeterminism(prog, features, budget);
}

} // namespace smtsim::fuzz
