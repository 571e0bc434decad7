#include "runner.hh"

#include "core/processor.hh"
#include "fastpath/engine.hh"

namespace smtsim
{

namespace
{

bool
verify(const Workload &workload, const MainMemory &mem,
       std::string *error)
{
    if (!workload.check)
        return true;
    std::string why;
    if (workload.check(mem, &why))
        return true;
    if (error)
        *error = workload.name + ": " + why;
    return false;
}

} // namespace

Outcome
runCore(const Workload &workload, const CoreConfig &cfg)
{
    Outcome out;
    MainMemory mem;
    workload.program.loadInto(mem);
    if (workload.init)
        workload.init(mem);

    MultithreadedProcessor cpu(workload.program, mem, cfg);
    out.stats = cpu.run();
    if (!out.stats.finished) {
        out.error = workload.name + ": cycle budget exhausted";
        return out;
    }
    out.ok = verify(workload, mem, &out.error);
    return out;
}

MachineOutcome
runMachine(const Workload &workload, const MachineConfig &cfg,
           int host_threads)
{
    MachineOutcome out;
    ManyCoreMachine machine(
        workload.program, cfg,
        [&workload](int, MainMemory &mem) {
            if (workload.init)
                workload.init(mem);
        });
    out.stats = machine.run(host_threads);
    if (!out.stats.finished) {
        out.error = workload.name + ": cycle budget exhausted";
        return out;
    }
    for (int i = 0; i < machine.numCores(); ++i) {
        std::string why;
        if (!verify(workload, machine.memory(i), &why)) {
            out.error =
                "core " + std::to_string(i) + ": " + why;
            return out;
        }
    }
    out.ok = true;
    return out;
}

Outcome
runBaseline(const Workload &workload, const BaselineConfig &cfg)
{
    Outcome out;
    MainMemory mem;
    workload.program.loadInto(mem);
    if (workload.init)
        workload.init(mem);

    BaselineProcessor cpu(workload.program, mem, cfg);
    out.stats = cpu.run();
    if (!out.stats.finished) {
        out.error = workload.name + ": cycle budget exhausted";
        return out;
    }
    out.ok = verify(workload, mem, &out.error);
    return out;
}

Outcome
runFunctional(const Workload &workload, int num_threads)
{
    Outcome out;
    MainMemory mem;
    workload.program.loadInto(mem);
    if (workload.init)
        workload.init(mem);

    InterpConfig cfg;
    cfg.num_threads = num_threads;
    fastpath::FastEngine engine(workload.program, mem, cfg);
    const InterpResult result = engine.run();
    out.stats.instructions = result.steps;
    out.stats.finished = result.completed;
    if (!result.completed) {
        out.error =
            workload.name + ": functional engine did not finish";
        return out;
    }
    out.ok = verify(workload, mem, &out.error);
    return out;
}

double
speedup(const RunStats &baseline, const RunStats &core)
{
    if (core.cycles == 0)
        return 0.0;
    return static_cast<double>(baseline.cycles) /
           static_cast<double>(core.cycles);
}

} // namespace smtsim
