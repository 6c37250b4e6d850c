#!/usr/bin/env python3
"""The benchmark's own test: campaign outputs do not depend on threads.

For one seed, sweep_independent and flashcrowd_shared_faulted must print
the same output_digest at 1 thread and at the hardware thread count.
Run from the repository root:

    python3 pscbench/test_determinism.py [--seed N]

Exits 0 when every digest pair matches.
"""
import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build step)


def digest(workload, seed, threads):
    out = subprocess.run(
        [os.path.join(run.BUILD, "pscbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.001", "--trace", "0",
         "--threads", str(threads)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    for line in out.splitlines():
        if line.startswith("output_digest "):
            return line.split()[1]
    raise RuntimeError("no output_digest from %s" % workload)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    run.build()
    nproc = os.cpu_count() or 1
    ok = True
    for workload in ("sweep_independent", "flashcrowd_shared_faulted"):
        one = digest(workload, args.seed, 1)
        many = digest(workload, args.seed, nproc)
        same = one == many
        ok = ok and same
        print("%-26s threads=1 %s threads=%d %s %s"
              % (workload, one, nproc, many, "ok" if same else "MISMATCH"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
