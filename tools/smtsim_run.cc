/**
 * @file
 * smtsim-run: assemble a .s file and execute it on one of the
 * engines.
 *
 *     smtsim-run [options] program.s
 *
 * Options:
 *     --engine core|baseline|interp|fast   (default core; interp
 *                        is the functional engine's reference
 *                        stepping, fast its chunk loop)
 *     --slots N          thread slots (core; default 4)
 *     --frames N         context frames (core; default = slots)
 *     --lsu N            load/store units (default 1)
 *     --width D          issue width per slot (default 1)
 *     --no-standby       disable standby stations
 *     --no-fast-forward  naive every-cycle loops (oracle; same
 *                        cycle counts, slower — docs/PERF.md)
 *     --explicit         explicit rotation mode
 *     --interval N       rotation interval (default 8)
 *     --private-icache   per-slot fetch units
 *     --dcache BYTES     finite data cache (direct-mapped)
 *     --icache BYTES     finite instruction cache
 *     --threads N        interp/fast logical processors
 *     --max-cycles N     simulation budget: cycles (core,
 *                        baseline) or executed instructions
 *                        (interp/fast; default 500000000)
 *     --cores N          many-core machine mode: N copies of the
 *                        configured core coupled through a banked
 *                        shared L2 (docs/MANYCORE.md; core engine)
 *     --host-threads M   simulate cores on M host threads
 *                        (0 = sequential reference schedule;
 *                        results are bit-identical either way)
 *     --remote-data LAT  mark the program's data segment as remote
 *                        memory (stub latency LAT on a lone core;
 *                        the machine times it via the interconnect)
 *     --l2-banks N       machine: shared-L2 banks (default 4)
 *     --bank-interleave B  machine: bank stripe bytes (default 64)
 *     --mshrs N          machine: MSHR slots per bank (default 4)
 *     --l2-cycles N      machine: bank service cycles (default 20)
 *     --bank-conflict N  machine: busy-bank penalty (default 6)
 *     --hop-latency N    machine: ring hop cycles (default 2)
 *     --quantum N        machine: barrier quantum (0 = auto)
 *     --dump-word ADDR   print a 32-bit word of memory after the run
 *     --dump-double ADDR print a double after the run
 *     --lint             run the static verifier first, at the
 *                        run's own slot count and queue depth; any
 *                        error-severity diagnostic aborts the run
 *                        with exit 1 (docs/ANALYSIS.md)
 *     --stats            print the detailed stall counters (core)
 *     --trace            stream per-cycle pipeline events as text
 *                        to stderr (--pipe-trace is an alias;
 *                        core and baseline engines)
 *     --trace-out FILE   record the binary event stream for
 *                        smtsim-scope (docs/OBSERVABILITY.md)
 *     --ckpt-out PATH    checkpoint file (with --ckpt-every the
 *                        cycle number is appended: PATH.N)
 *     --ckpt-every K     checkpoint every K cycles (core)
 *     --ckpt-at N        checkpoint once, at cycle N (core)
 *     --restore PATH     resume from a checkpoint before running
 *     --json             emit the run statistics as one JSON object
 *
 * Numeric options are parsed strictly: a non-numeric or
 * out-of-range value ("--slots banana", "--width -2") is a fatal
 * usage error, never a silent zero.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "analysis/lint.hh"
#include "asmr/assembler.hh"
#include "base/json_fields.hh"
#include "base/strutil.hh"
#include "fastpath/engine.hh"
#include "baseline/baseline.hh"
#include "core/processor.hh"
#include "machine/manycore.hh"
#include "mem/memory.hh"
#include "obs/sinks.hh"

using namespace smtsim;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] program.s   (see file "
                 "header for options)\n",
                 argv0);
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(1);
    }
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

void
printStats(const RunStats &s)
{
    std::printf("cycles        %llu\n",
                (unsigned long long)s.cycles);
    std::printf("instructions  %llu\n",
                (unsigned long long)s.instructions);
    if (s.cycles > 0) {
        std::printf("ipc           %.3f\n",
                    static_cast<double>(s.instructions) /
                        static_cast<double>(s.cycles));
    }
    std::printf("branches      %llu\n",
                (unsigned long long)s.branches);
    std::printf("loads/stores  %llu/%llu\n",
                (unsigned long long)s.loads,
                (unsigned long long)s.stores);
    for (int cls = 0; cls < kNumFuClasses; ++cls) {
        const FuClass fc = static_cast<FuClass>(cls);
        if (fc == FuClass::None || s.fu_grants[cls] == 0)
            continue;
        std::printf("%-13s %llu grants", fuClassName(fc),
                    (unsigned long long)s.fu_grants[cls]);
        for (size_t u = 0; u < s.unit_busy[cls].size(); ++u) {
            std::printf("  unit%zu %.1f%%", u,
                        s.unitUtilization(fc, (int)u));
        }
        std::printf("\n");
    }
    if (s.context_switches)
        std::printf("ctx switches  %llu\n",
                    (unsigned long long)s.context_switches);
    if (s.dcache_hits + s.dcache_misses) {
        std::printf("dcache        %llu hits, %llu misses\n",
                    (unsigned long long)s.dcache_hits,
                    (unsigned long long)s.dcache_misses);
    }
    if (s.icache_hits + s.icache_misses) {
        std::printf("icache        %llu hits, %llu misses\n",
                    (unsigned long long)s.icache_hits,
                    (unsigned long long)s.icache_misses);
    }
    std::printf("finished      %s\n", s.finished ? "yes" : "NO");
}

void
printMachineStats(const MachineStats &s)
{
    std::printf("cores         %zu\n", s.cores.size());
    std::printf("quanta        %llu\n",
                (unsigned long long)s.quanta);
    for (std::size_t i = 0; i < s.cores.size(); ++i) {
        std::printf("core%-2zu        %llu cycles, %llu insns%s\n",
                    i, (unsigned long long)s.cores[i].cycles,
                    (unsigned long long)s.cores[i].instructions,
                    s.cores[i].finished ? "" : " (unfinished)");
    }
    if (s.noc.requests) {
        std::printf("noc           %llu requests, %llu conflicts, "
                    "avg latency %.1f\n",
                    (unsigned long long)s.noc.requests,
                    (unsigned long long)s.noc.conflicts,
                    static_cast<double>(s.noc.total_latency) /
                        static_cast<double>(s.noc.requests));
    }
    std::printf("--- aggregate ---\n");
    printStats(s.aggregate());
}

/** Fan one event stream out to several sinks (--trace plus
 *  --trace-out in the same run). */
class TeeSink : public obs::EventSink
{
  public:
    void add(obs::EventSink *sink) { sinks_.push_back(sink); }

    void
    event(const obs::Event &ev) override
    {
        for (obs::EventSink *sink : sinks_)
            sink->event(ev);
    }

    void
    flush() override
    {
        for (obs::EventSink *sink : sinks_)
            sink->flush();
    }

  private:
    std::vector<obs::EventSink *> sinks_;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string engine = "core";
    std::string path;
    CoreConfig cfg;
    int cores = 0;              // > 0 selects many-core machine mode
    int host_threads = 0;
    InterconnectConfig noc;
    unsigned long long quantum = 0;
    long long remote_data_latency = -1;
    // --engine interp|fast: logical processors and step budget.
    InterpConfig icfg;
    icfg.num_threads = 4;
    bool want_detail = false;
    bool want_trace = false;
    bool want_json = false;
    bool want_lint = false;
    std::string trace_out, ckpt_out, restore_path;
    unsigned long long ckpt_every = 0;
    long long ckpt_at = -1;
    std::vector<Addr> dump_words, dump_doubles;

    auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    // Strict numeric option parsing: "--slots banana" or a
    // negative count is a diagnosed error, not a silent 0.
    auto int_value = [&](const std::string &opt, int &i,
                         long long min_value) -> long long {
        const char *text = need_value(i);
        long long v = 0;
        if (!parseInt(text, &v)) {
            std::fprintf(stderr,
                         "%s: %s needs an integer, got \"%s\"\n",
                         argv[0], opt.c_str(), text);
            std::exit(2);
        }
        if (v < min_value) {
            std::fprintf(stderr,
                         "%s: %s must be >= %lld, got %lld\n",
                         argv[0], opt.c_str(), min_value, v);
            std::exit(2);
        }
        return v;
    };
    auto uint_value = [&](const std::string &opt,
                          int &i) -> unsigned long long {
        const char *text = need_value(i);
        unsigned long long v = 0;
        if (!parseUint(text, &v)) {
            std::fprintf(stderr,
                         "%s: %s needs a non-negative integer, "
                         "got \"%s\"\n",
                         argv[0], opt.c_str(), text);
            std::exit(2);
        }
        return v;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--engine") {
            engine = need_value(i);
        } else if (arg == "--slots") {
            cfg.num_slots = static_cast<int>(int_value(arg, i, 1));
            icfg.num_threads = cfg.num_slots;
        } else if (arg == "--frames") {
            cfg.num_frames = static_cast<int>(int_value(arg, i, 1));
        } else if (arg == "--lsu") {
            cfg.fus.load_store =
                static_cast<int>(int_value(arg, i, 1));
        } else if (arg == "--width") {
            cfg.width = static_cast<int>(int_value(arg, i, 1));
        } else if (arg == "--no-standby") {
            cfg.standby_enabled = false;
        } else if (arg == "--no-fast-forward") {
            cfg.fast_forward = false;
        } else if (arg == "--explicit") {
            cfg.rotation_mode = RotationMode::Explicit;
        } else if (arg == "--interval") {
            cfg.rotation_interval =
                static_cast<int>(int_value(arg, i, 1));
        } else if (arg == "--private-icache") {
            cfg.private_icache = true;
        } else if (arg == "--dcache") {
            cfg.dcache.size_bytes =
                static_cast<Addr>(uint_value(arg, i));
        } else if (arg == "--icache") {
            cfg.icache.size_bytes =
                static_cast<Addr>(uint_value(arg, i));
        } else if (arg == "--threads") {
            icfg.num_threads =
                static_cast<int>(int_value(arg, i, 1));
        } else if (arg == "--cores") {
            cores = static_cast<int>(int_value(arg, i, 1));
        } else if (arg == "--host-threads") {
            host_threads = static_cast<int>(int_value(arg, i, 0));
        } else if (arg == "--remote-data") {
            remote_data_latency =
                static_cast<long long>(int_value(arg, i, 1));
        } else if (arg == "--l2-banks") {
            noc.l2_banks = static_cast<int>(int_value(arg, i, 1));
        } else if (arg == "--bank-interleave") {
            noc.bank_interleave =
                static_cast<Addr>(int_value(arg, i, 4));
        } else if (arg == "--mshrs") {
            noc.mshrs_per_bank =
                static_cast<int>(int_value(arg, i, 1));
        } else if (arg == "--l2-cycles") {
            noc.l2_access_cycles = uint_value(arg, i);
        } else if (arg == "--bank-conflict") {
            noc.bank_conflict_penalty = uint_value(arg, i);
        } else if (arg == "--hop-latency") {
            noc.hop_latency = uint_value(arg, i);
        } else if (arg == "--quantum") {
            quantum = uint_value(arg, i);
        } else if (arg == "--max-cycles") {
            cfg.max_cycles = icfg.max_steps = uint_value(arg, i);
        } else if (arg == "--dump-word") {
            dump_words.push_back(
                static_cast<Addr>(uint_value(arg, i)));
        } else if (arg == "--dump-double") {
            dump_doubles.push_back(
                static_cast<Addr>(uint_value(arg, i)));
        } else if (arg == "--json") {
            want_json = true;
        } else if (arg == "--lint") {
            want_lint = true;
        } else if (arg == "--stats") {
            want_detail = true;
        } else if (arg == "--trace" || arg == "--pipe-trace") {
            want_trace = true;
        } else if (arg == "--trace-out") {
            trace_out = need_value(i);
        } else if (arg == "--ckpt-out") {
            ckpt_out = need_value(i);
        } else if (arg == "--ckpt-every") {
            ckpt_every = uint_value(arg, i);
        } else if (arg == "--ckpt-at") {
            ckpt_at = static_cast<long long>(uint_value(arg, i));
        } else if (arg == "--restore") {
            restore_path = need_value(i);
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0]);
        } else {
            path = arg;
        }
    }
    if (path.empty())
        usage(argv[0]);
    const bool want_ckpt = ckpt_every > 0 || ckpt_at >= 0;
    if (want_ckpt && ckpt_out.empty()) {
        std::fprintf(stderr,
                     "%s: --ckpt-every/--ckpt-at need --ckpt-out\n",
                     argv[0]);
        return 2;
    }
    if (ckpt_every > 0 && ckpt_at >= 0) {
        std::fprintf(stderr,
                     "%s: --ckpt-every and --ckpt-at are mutually "
                     "exclusive\n",
                     argv[0]);
        return 2;
    }
    if ((want_ckpt || !ckpt_out.empty() || !restore_path.empty()) &&
        engine != "core") {
        std::fprintf(stderr,
                     "%s: checkpoints need --engine core\n",
                     argv[0]);
        return 2;
    }
    if (cores > 0 && engine != "core") {
        std::fprintf(stderr, "%s: --cores needs --engine core\n",
                     argv[0]);
        return 2;
    }
    if (cores > 0 && (want_trace || !trace_out.empty())) {
        std::fprintf(stderr,
                     "%s: event traces are per-core; not available "
                     "with --cores\n",
                     argv[0]);
        return 2;
    }
    if ((want_trace || !trace_out.empty()) &&
        (engine == "interp" || engine == "fast")) {
        std::fprintf(stderr,
                     "%s: functional engines have no event stream\n",
                     argv[0]);
        return 2;
    }

    try {
        // A file starting with the object-format magic is loaded
        // directly; anything else is assembled as source.
        Program prog;
        {
            std::ifstream probe(path, std::ios::binary);
            char magic[4] = {};
            probe.read(magic, 4);
            if (probe && magic[0] == 'S' && magic[1] == 'T' &&
                magic[2] == 'M' && magic[3] == 'P') {
                std::ifstream in(path, std::ios::binary);
                prog = Program::load(in);
            } else {
                prog = assemble(readFile(path));
            }
        }
        if (want_lint) {
            // Verify against the configuration about to run, not
            // the defaults: the concurrency passes project the
            // program per slot, so the verdict depends on the slot
            // count and FIFO depth.
            analysis::LintOptions lopts;
            lopts.queue_depth = cfg.queue_reg_depth;
            lopts.slots = engine == "baseline" ? 1
                          : engine == "core"   ? cfg.num_slots
                                               : icfg.num_threads;
            const analysis::LintReport lr =
                analysis::lint(prog, lopts);
            std::cerr << analysis::formatText(lr, path);
            if (lr.hasErrors()) {
                std::fprintf(stderr,
                             "%s: %d lint error(s); not running\n",
                             path.c_str(), lr.errorCount());
                return 1;
            }
        }

        MainMemory mem;
        prog.loadInto(mem);
        if (remote_data_latency >= 0) {
            cfg.remote.base = prog.data_base;
            cfg.remote.size =
                static_cast<Addr>(prog.data.size());
            cfg.remote.latency =
                static_cast<Cycle>(remote_data_latency);
        }
        // Post-run memory dumps read core 0's private memory in
        // machine mode (every core's is identical under SPMD).
        MainMemory *dump_mem = &mem;
        std::unique_ptr<ManyCoreMachine> machine;

        // --json replaces the human-readable report with one
        // machine-readable object on stdout.
        auto report = [&](const RunStats &s) {
            if (want_json)
                std::cout << toJson(s).dump(2) << '\n';
            else
                printStats(s);
        };

        // Sink plumbing shared by both cycle-accurate engines:
        // --trace gets a text sink on stderr, --trace-out a binary
        // stream, both at once a tee.
        std::ofstream trace_file;
        std::unique_ptr<obs::EventSink> text_sink, bin_sink;
        TeeSink tee;
        obs::EventSink *sink = nullptr;
        auto setup_sinks = [&](int num_slots) {
            if (want_trace) {
                text_sink =
                    std::make_unique<obs::TextSink>(std::cerr);
                tee.add(text_sink.get());
            }
            if (!trace_out.empty()) {
                trace_file.open(trace_out, std::ios::binary);
                if (!trace_file) {
                    std::fprintf(stderr, "cannot open %s\n",
                                 trace_out.c_str());
                    std::exit(1);
                }
                bin_sink = std::make_unique<obs::BinarySink>(
                    trace_file, obs::TraceMeta{num_slots});
                tee.add(bin_sink.get());
            }
            if (want_trace && !trace_out.empty())
                sink = &tee;
            else if (want_trace)
                sink = text_sink.get();
            else if (!trace_out.empty())
                sink = bin_sink.get();
        };

        if (engine == "core" && cores > 0) {
            MachineConfig mcfg;
            mcfg.num_cores = cores;
            mcfg.core = cfg;
            mcfg.noc = noc;
            mcfg.quantum = quantum;
            machine = std::make_unique<ManyCoreMachine>(prog, mcfg);
            dump_mem = &machine->memory(0);
            if (!restore_path.empty()) {
                std::ifstream in(restore_path, std::ios::binary);
                if (!in) {
                    std::fprintf(stderr, "cannot open %s\n",
                                 restore_path.c_str());
                    return 1;
                }
                machine->restoreCheckpoint(in);
            }
            MachineStats s;
            if (want_ckpt) {
                // Same segmenting discipline as the single-core
                // path; machine runUntil() splits bit-identically
                // and always stops on a quantum barrier.
                long long pending_at = ckpt_at;
                for (;;) {
                    Cycle stop = cfg.max_cycles;
                    if (pending_at >= 0 &&
                        machine->now() <=
                            static_cast<Cycle>(pending_at))
                        stop = static_cast<Cycle>(pending_at);
                    else if (ckpt_every > 0)
                        stop = (machine->now() / ckpt_every + 1) *
                               ckpt_every;
                    s = machine->runUntil(stop, host_threads);
                    if (machine->finished() ||
                        machine->now() >= cfg.max_cycles)
                        break;
                    std::string out = ckpt_out;
                    if (ckpt_every > 0)
                        out += "." + std::to_string(machine->now());
                    std::ofstream os(out, std::ios::binary);
                    if (!os) {
                        std::fprintf(stderr, "cannot open %s\n",
                                     out.c_str());
                        return 1;
                    }
                    machine->saveCheckpoint(os);
                    pending_at = -1;
                }
            } else {
                s = machine->run(host_threads);
            }
            if (want_json)
                std::cout << toJson(s).dump(2) << '\n';
            else
                printMachineStats(s);
        } else if (engine == "core") {
            MultithreadedProcessor cpu(prog, mem, cfg);
            setup_sinks(cfg.num_slots);
            if (sink)
                cpu.setEventSink(sink);
            if (!restore_path.empty()) {
                std::ifstream in(restore_path, std::ios::binary);
                if (!in) {
                    std::fprintf(stderr, "cannot open %s\n",
                                 restore_path.c_str());
                    return 1;
                }
                cpu.restoreCheckpoint(in);
            }
            RunStats s;
            if (want_ckpt) {
                // Segment the run at the checkpoint cycles;
                // runUntil() makes the split bit-identical to one
                // run() call.
                long long pending_at = ckpt_at;
                for (;;) {
                    Cycle stop = cfg.max_cycles;
                    if (pending_at >= 0 &&
                        cpu.now() <= static_cast<Cycle>(pending_at))
                        stop = static_cast<Cycle>(pending_at);
                    else if (ckpt_every > 0)
                        stop = (cpu.now() / ckpt_every + 1) *
                               ckpt_every;
                    s = cpu.runUntil(stop);
                    if (cpu.finished() ||
                        cpu.now() >= cfg.max_cycles)
                        break;
                    std::string out = ckpt_out;
                    if (ckpt_every > 0)
                        out += "." + std::to_string(cpu.now());
                    std::ofstream os(out, std::ios::binary);
                    if (!os) {
                        std::fprintf(stderr, "cannot open %s\n",
                                     out.c_str());
                        return 1;
                    }
                    cpu.saveCheckpoint(os);
                    pending_at = -1;
                }
            } else {
                s = cpu.run();
            }
            report(s);
            if (want_detail && !want_json) {
                std::printf("--- detail ---\n");
                cpu.detail().dump(std::cout);
            }
        } else if (engine == "baseline") {
            BaselineConfig bcfg;
            bcfg.width = cfg.width;
            bcfg.fus = cfg.fus;
            bcfg.max_cycles = cfg.max_cycles;
            bcfg.fast_forward = cfg.fast_forward;
            BaselineProcessor cpu(prog, mem, bcfg);
            setup_sinks(1);
            if (sink)
                cpu.setEventSink(sink);
            report(cpu.run());
        } else if (engine == "interp" || engine == "fast") {
            fastpath::FastEngine fast(prog, mem, icfg);
            const InterpResult r =
                engine == "fast" ? fast.run() : fast.runReference();
            if (want_json) {
                RunStats s;
                s.instructions = r.steps;
                s.finished = r.completed;
                std::cout << toJson(s).dump(2) << '\n';
            } else {
                std::printf("instructions  %llu\n",
                            (unsigned long long)r.steps);
                std::printf("finished      %s\n",
                            r.completed ? "yes" : "NO");
            }
        } else {
            usage(argv[0]);
        }

        for (Addr a : dump_words)
            std::printf("[0x%08x] = %u\n", a, dump_mem->read32(a));
        for (Addr a : dump_doubles)
            std::printf("[0x%08x] = %g\n", a,
                        dump_mem->readDouble(a));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}
