#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Usage (from the repository root):

    python3 pscbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds `pscbench` (the repository's src/
libraries plus the benchmark program in pscbench/src) into .bench_build/pscbench;
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. A traced run also
writes its spans to .bench_build/pscbench/spans-<workload>-<seed>.json.
BENCHMARK.json is the one list of metric names and units: the program
prints bare values, and this script rejects a name the list does not hold,
attaches the units, and reports a per-layer metric the workload does not
exercise as 0.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pscbench")


def fail(msg):
    print("pscbench: " + msg, file=sys.stderr)
    return 2


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "pscbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def with_units(values, trace):
    """The metrics object of the result line, in BENCHMARK.json order, or
    an error message."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    unlisted = sorted(set(values) - set(units))
    if unlisted:
        return None, "metrics not in BENCHMARK.json: %s" % unlisted
    missing = sorted(set(units) - set(values))
    if missing and not trace:
        return None, "end-to-end metrics missing: %s" % missing
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec}, None


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("program sources (src/) are missing next to pscbench/")
    trace = "0"
    if "--trace" in argv and argv.index("--trace") + 1 < len(argv):
        trace = argv[argv.index("--trace") + 1]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        return fail("build failed: %s" % e)
    proc = subprocess.run([os.path.join(BUILD, "pscbench"), *argv,
                           "--trace-dir", BUILD],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return proc.returncode or fail("no JSON result line")
    result["metrics"], error = with_units(result["metrics"], trace != "0")
    if error:
        return fail(error)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
