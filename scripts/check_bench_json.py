#!/usr/bin/env python3
"""Check google-benchmark JSON files: build stamp and perf guards.

    python3 scripts/check_bench_json.py [--fast-floor] [--trace-guard]
                                        [--mc-eff] FILE...

Exits 1 with a "bench guard:" message unless every FILE parses with
no repeated key in any object, and its context carries the stamp the
bench scripts write: smtsim_build_type (which must be "Release"),
smtsim_git_sha, smtsim_compiler and smtsim_nproc. google-benchmark
writes its own library_build_type, the build type of the benchmark
library rather than of smtsim, so the stamp uses keys that cannot
collide with it: a parser keeping the last of two equal keys would
let either value win.

Guards (bench/bench_simspeed.cc and bench/bench_manycore.cc rows,
each ratio taken within one file, so they hold on any host):

  --fast-floor   the functional engine's chunk loop (BM_Fastpath)
                 reaches at least SMTSIM_BENCH_FAST_X (default 3)
                 times the MIPS of the same engine's reference
                 stepping (BM_Interpreter).
  --trace-guard  the core with its event sink detached
                 (BM_CoreTraceOff) costs at most SMTSIM_BENCH_TRACE_PCT
                 (default 2) percent more CPU time than BM_Core/4,
                 comparing each row's minimum over the repetitions of
                 an interleaved run; each row needs at least
                 TRACE_REPS of them. Other tenants and frequency
                 changes only ever add time, so the minimum is the
                 steadiest estimate of a row's own cost.
  --mc-eff       the 16-core machine on 4 host threads
                 (BM_ManyCore/16/4/real_time) reaches at least
                 SMTSIM_BENCH_MC_EFF (default 0.3) parallel efficiency,
                 t1 / (4 * t4) in real time, over 1 host thread
                 (BM_ManyCore/16/1/real_time). Skipped when the stamp
                 records fewer than 4 CPUs: barrier hand-offs on an
                 oversubscribed host measure the scheduler, not the
                 simulator.

Setting any of these variables to "skip" turns its guard off.
"""

import json
import os
import sys

STAMP = ("smtsim_build_type", "smtsim_git_sha", "smtsim_compiler",
         "smtsim_nproc")
TRACE_REPS = 15


def unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("duplicate key %r" % key)
        obj[key] = value
    return obj


def check_stamp(path, doc):
    ctx = doc.get("context") if isinstance(doc, dict) else None
    if not isinstance(ctx, dict):
        return "%s: no context object" % path
    missing = [key for key in STAMP if not ctx.get(key)]
    if missing:
        return "%s: context lacks %s" % (path, ", ".join(missing))
    if ctx["smtsim_build_type"] != "Release":
        return "%s: context.smtsim_build_type is %r, expected " \
               "'Release'" % (path, ctx["smtsim_build_type"])
    return None


def limit(var, default):
    value = os.environ.get(var, default)
    return None if value == "skip" else float(value)


def rows(doc, *names):
    by_name = {b["name"]: b for b in doc.get("benchmarks", [])}
    try:
        return [by_name.get(n + "_median") or by_name[n] for n in names]
    except KeyError as missing:
        raise ValueError("row %s missing" % missing)


def minima(doc, names, at_least):
    """Each row's least cpu_time over its repetitions (aggregate rows
    skipped); a row with fewer than at_least is an error."""
    times = {n: [] for n in names}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") == "iteration" and \
                b.get("name") in times:
            times[b["name"]].append(b["cpu_time"])
    for name in names:
        if len(times[name]) < at_least:
            raise ValueError("row %s has %d repetitions, needs %d"
                             % (name, len(times[name]), at_least))
    return [min(times[n]) for n in names]


def fast_floor(path, doc):
    need = limit("SMTSIM_BENCH_FAST_X", "3")
    if need is None:
        print("fast-engine floor skipped", file=sys.stderr)
        return None
    ref, fast = (r["MIPS"] for r in
                 rows(doc, "BM_Interpreter", "BM_Fastpath"))
    ratio = fast / ref
    print("chunk loop: %.1f MIPS vs reference stepping %.1f MIPS "
          "(%.2fx)" % (fast, ref, ratio), file=sys.stderr)
    if ratio < need:
        return "%s: chunk-loop speedup %.2fx is below the required " \
               "%.1fx over reference stepping" % (path, ratio, need)
    return None


def trace_guard(path, doc):
    pct = limit("SMTSIM_BENCH_TRACE_PCT", "2")
    if pct is None:
        print("tracing-overhead guard skipped", file=sys.stderr)
        return None
    base, off = minima(doc, ("BM_Core/4", "BM_CoreTraceOff"), TRACE_REPS)
    over = 100.0 * (off / base - 1.0)
    print("tracing disabled: %+.2f%% vs BM_Core/4 (minima of %d+ "
          "repetitions)" % (over, TRACE_REPS), file=sys.stderr)
    if over > pct:
        return "%s: tracing-disabled overhead %.2f%% exceeds %.1f%% " \
               "(event emission must hide behind a null-sink check)" \
               % (path, over, pct)
    return None


def mc_eff(path, doc):
    need = limit("SMTSIM_BENCH_MC_EFF", "0.3")
    if need is None:
        print("parallel-efficiency guard skipped", file=sys.stderr)
        return None
    ncpu = doc["context"]["smtsim_nproc"]
    if not ncpu.isdigit() or int(ncpu) < 4:
        print("parallel-efficiency guard skipped: host had %s CPU(s), "
              "need >= 4 to run 4 host threads in parallel" % ncpu,
              file=sys.stderr)
        return None
    one, four = rows(doc, "BM_ManyCore/16/1/real_time",
                     "BM_ManyCore/16/4/real_time")
    t1, t4 = one["real_time"], four["real_time"]
    eff = t1 / (4.0 * t4)
    print("16-core machine: 1 thread %.1f vs 4 threads %.1f (%s) -> "
          "parallel efficiency %.2f" % (t1, t4, one["time_unit"], eff),
          file=sys.stderr)
    if eff < need:
        return "%s: 4-thread parallel efficiency %.2f is below the " \
               "required %.2f (quantum barrier or worker-pool overhead " \
               "regressed)" % (path, eff, need)
    return None


def check(path, guards):
    try:
        with open(path) as f:
            doc = json.load(f, object_pairs_hook=unique_keys)
        for guard in [check_stamp] + guards:
            err = guard(path, doc)
            if err:
                return err
    except (OSError, ValueError, KeyError) as err:
        return "%s: %s" % (path, err)
    return None


def main():
    flags = {"--fast-floor": fast_floor, "--trace-guard": trace_guard,
             "--mc-eff": mc_eff}
    guards = [flags[a] for a in sys.argv[1:] if a in flags]
    paths = [a for a in sys.argv[1:] if a not in flags]
    if not paths or any(p.startswith("--") for p in paths):
        sys.exit("usage: check_bench_json.py [--fast-floor] "
                 "[--trace-guard] [--mc-eff] FILE...")
    for path in paths:
        err = check(path, guards)
        if err:
            sys.exit("bench guard: " + err)


if __name__ == "__main__":
    main()
