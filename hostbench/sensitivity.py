#!/usr/bin/env python3
"""Layer-sensitivity check: rerun the workloads with macro-stepping off.

    python3 hostbench/sensitivity.py

For every workload and each of three seeds this runs the benchmark
for BENCHMARK.json's run_seconds twice: once as is and once with
FLEP_MACRO_MAX_CHUNKS=0 in the environment (the program's switch that
forces the per-chunk slow path), alternating which goes first. It
prints each end-to-end metric's median both ways, the change, and
whether the change exceeds the metric's bound in BENCHMARK.json.

Expected: op_p50_ms on fleet and hetero_fleet worsens beyond its bound
(macro-stepping carries those workloads), while paper_pairs' op
metrics stay within their bounds (its co-runs barely use the fast
path). setup_s worsens on every workload: the offline phase simulates
solo kernels, which macro-stepping does speed up.
Macro-stepping is a host-speed mechanism only, so the simulated-result
digest must be identical both ways; a mismatch fails the check.
"""

import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 3


def run(workload, seed, seconds, macro_off):
    env = dict(os.environ)
    env.pop("FLEP_MACRO_MAX_CHUNKS", None)
    if macro_off:
        env["FLEP_MACRO_MAX_CHUNKS"] = "0"
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True,
        universal_newlines=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(m.group(1) for m in
                  (re.match(r"digest .*: ([0-9a-f]+)$", l) for l in lines)
                  if m)
    return result, digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    spec = {m["name"]: m for m in manifest["end_to_end"]}
    seconds = manifest["run_seconds"]

    ok = True
    for w in manifest["workloads"]:
        workload = w["name"]
        values = {False: {}, True: {}}
        for seed in range(1, SEEDS + 1):
            order = [False, True] if seed % 2 else [True, False]
            digests = {}
            for macro_off in order:
                result, digests[macro_off] = run(
                    workload, seed, seconds, macro_off)
                if not result["correct"]:
                    print("%s seed %d: output check failed" %
                          (workload, seed))
                    ok = False
                for name, m in result["metrics"].items():
                    values[macro_off].setdefault(name, []).append(
                        m["value"])
            if digests[False] != digests[True]:
                print("%s seed %d: digest differs with macro-stepping "
                      "off (%s vs %s)" % (workload, seed, digests[False],
                                          digests[True]))
                ok = False
        print("%s (%d seeds, FLEP_MACRO_MAX_CHUNKS=0 vs default)" %
              (workload, SEEDS))
        for name, m in spec.items():
            base = statistics.median(values[False][name])
            off = statistics.median(values[True][name])
            worse = (off - base) / base
            if m["better"] == "higher":
                worse = -worse
            verdict = ("WORSE beyond bound" if worse > m["bound"]
                       else "within bound")
            print("  %-18s %12.4f -> %12.4f %-5s  %+7.1f%% worse "
                  "(bound %.0f%%)  %s" %
                  (name, base, off, m["unit"], 100 * worse,
                   100 * m["bound"], verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
