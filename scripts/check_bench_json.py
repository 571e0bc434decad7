#!/usr/bin/env python3
"""Check the build stamp of a google-benchmark JSON file.

    python3 scripts/check_bench_json.py BENCH_simspeed.json

Exits 1 with a "bench guard:" message unless the file parses with no
repeated key in any object, and its context carries the stamp the
bench scripts write: smtsim_build_type (which must be "Release"),
smtsim_git_sha, smtsim_compiler and smtsim_nproc. google-benchmark
writes its own library_build_type, the build type of the benchmark
library rather than of smtsim, so the stamp uses keys that cannot
collide with it: a parser keeping the last of two equal keys would
let either value win.
"""

import json
import sys

STAMP = ("smtsim_build_type", "smtsim_git_sha", "smtsim_compiler",
         "smtsim_nproc")


def unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("duplicate key %r" % key)
        obj[key] = value
    return obj


def check(path):
    try:
        with open(path) as f:
            doc = json.load(f, object_pairs_hook=unique_keys)
    except (OSError, ValueError) as err:
        return "%s: %s" % (path, err)
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


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: check_bench_json.py FILE")
    err = check(sys.argv[1])
    if err:
        sys.exit("bench guard: " + err)


if __name__ == "__main__":
    main()
