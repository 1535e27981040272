#!/usr/bin/env bash
# Build the benchmark, run the smoke matrix, and guard against name drift:
#   1. BENCHMARK.json must be exactly what the tables in src/spec.rs
#      generate (a workload or metric name lives in one place);
#   2. BENCHMARK.json must satisfy the driver's limits;
#   3. every workload, in both passes, must print exactly the metric names
#      BENCHMARK.json lists for that pass - no more, no fewer - with every
#      correctness check passing.
# Run from anywhere; takes well under a minute after the first build.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/booster-benchmark"

"$bin" --emit-manifest | diff -u BENCHMARK.json - ||
    { echo "BENCHMARK.json differs from benchmark/src/spec.rs (regenerate with --emit-manifest)"; exit 1; }

python3 - "$bin" <<'EOF'
import json, re, subprocess, sys, time

bin = sys.argv[1]
m = json.load(open("BENCHMARK.json"))
assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in m[k]]
assert len(names) == len(set(names)), "a name is used twice"
assert all(name.match(n) for n in names), "a name is out of the allowed alphabet"
assert 2 <= len(m["workloads"]) <= 8 and 1 <= len(m["end_to_end"]) <= 16
assert 1 <= len(m["per_layer"]) <= 128 and 1 <= m["run_seconds"] <= 60
assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
assert all(set(e) == {"name", "unit", "better", "bound"} and 0 <= e["bound"] <= 0.25 for e in m["end_to_end"])
assert all(set(p) == {"name", "unit", "better"} for p in m["per_layer"])
assert all(unit.match(x["unit"]) and x["better"] in ("lower", "higher") for x in m["end_to_end"] + m["per_layer"])
setup = [e for e in m["end_to_end"] if e["name"] == "setup_s"]
assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
runs = 4 + 22 * len(m["workloads"])
print(f"manifest ok: {len(m['workloads'])} workloads, {len(m['end_to_end'])} end-to-end, "
      f"{len(m['per_layer'])} per-layer metrics; the driver makes {runs} runs")

t0 = time.time()
for trace, key in ((0, "end_to_end"), (1, "per_layer")):
    want = {x["name"] for x in m[key]}
    for w in m["workloads"]:
        run = subprocess.run(
            [bin, "--workload", w["name"], "--seed", "1", "--smoke", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        got = set(result["metrics"])
        assert got == want, f"{w['name']} trace {trace}: missing {want - got}, unknown {got - want}"
        for x in m[key]:
            assert result["metrics"][x["name"]]["unit"] == x["unit"], x["name"]
        assert run.returncode == 0 and result["correct"] and result["failed"] == 0, \
            f"{w['name']} trace {trace}: {result['failed']} failed operations"
        assert result["attempted"] >= 1
print(f"smoke ok: every workload printed exactly the manifest's names in both passes "
      f"({time.time() - t0:.1f} s)")
EOF
