#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs each workload of BENCHMARK.json ten times, seeds 1 to 10, and prints for
every end-to-end metric the median and the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound. A spread above a third of its bound is flagged. Run from
the repo root (about 20 minutes):

    python3 benchmark/spread.py
"""

import json
import statistics
import subprocess
import sys
import time

manifest = json.load(open("BENCHMARK.json"))
flagged = 0
for w in (w["name"] for w in manifest["workloads"]):
    values = {m["name"]: [] for m in manifest["end_to_end"]}
    for seed in range(1, 11):
        t0 = time.time()
        run = subprocess.run(
            manifest["command"]
            + ["--workload", w, "--seed", str(seed)]
            + ["--seconds", str(manifest["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if run.returncode != 0 or not result["correct"] or result["failed"]:
            sys.exit(f"{w} seed {seed}: run failed ({result['failed']} failed operations)")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"# {w} seed {seed}: {time.time() - t0:.1f} s", file=sys.stderr, flush=True)
    print(w)
    for m in manifest["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med
        note = ""
        if m["name"] != "setup_s" and spread > m["bound"] / 3:
            note = "  > bound/3"
            flagged += 1
        print(
            f"  {m['name']:<22} median {med:>12.4f} {m['unit']:<7}"
            f" spread {100 * spread:6.2f}%  bound {100 * m['bound']:5.1f}%{note}",
            flush=True,
        )
sys.exit(1 if flagged else 0)
