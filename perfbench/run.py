#!/usr/bin/env python3
"""Build and run the repository benchmark (see NOTES.md).

    python3 perfbench/run.py --workload paper|collapse|explore --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The benchmark is built from source with
dune (no build cache, nothing written outside the repository), then run
in this process's working directory; its last line of stdout is the
result object. --smoke is the benchmark's own test: tiny sizes, every
metric named in BENCHMARK.json present with its unit, and a corrupted
reference value counted as a failure.
"""

import json
import math
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "BENCH_0010.json"):
        if not os.path.exists(need):
            die(f"{need} not found: run from the repository root")
    env = dict(os.environ)
    # dune's cache and config live under XDG dirs; keep them in the tree.
    state = os.path.abspath(".perfbench")
    os.makedirs(state, exist_ok=True)
    env["XDG_CACHE_HOME"] = os.path.join(state, "cache")
    env["XDG_CONFIG_HOME"] = os.path.join(state, "config")
    env["DUNE_CACHE"] = "disabled"
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def run(args):
    """Run the benchmark; return (exit code, stdout lines)."""
    r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True)
    return r.returncode, r.stdout.splitlines()


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expect = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def result(args):
        code, lines = run(args)
        if code != 0 or not lines:
            problems.append(f"{args}: exit {code}")
            return None
        return json.loads(lines[-1])

    for w in spec["workloads"]:
        name = w["name"]
        for trace in ("0", "1"):
            args = ["--workload", name, "--seed", "42", "--seconds", "1",
                    "--trace", trace, "--tiny"]
            r = result(args)
            if r is None:
                continue
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: keys {sorted(r)}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"{name} trace {trace}: not correct: {r}")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != expect[trace]:
                problems.append(f"{name} trace {trace}: metrics {got}")
            for k, v in r["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{name} trace {trace}: {k} = {v['value']}")
            if trace == "1" and got == expect[trace]:
                m = r["metrics"]
                selfs = sum(v["value"] for k, v in m.items() if k.startswith("bench.self_s."))
                if not math.isclose(selfs, m["bench.root_s"]["value"], rel_tol=1e-6):
                    problems.append(f"{name}: self times {selfs} != root span")
        # A spoiled reference must be counted, not ignored.
        r = result(["--workload", name, "--seed", "42", "--seconds", "1",
                    "--trace", "0", "--tiny", "--corrupt-reference"])
        if r is not None and (r["correct"] or r["failed"] < 1):
            problems.append(f"{name}: corrupted reference not counted: {r}")
        # Another seed: checked for identical results across passes.
        r = result(["--workload", name, "--seed", "7", "--seconds", "1",
                    "--trace", "0", "--tiny"])
        if r is not None and (not r["correct"] or r["failed"] != 0):
            problems.append(f"{name} seed 7: not correct: {r}")
    for p in problems:
        print("SMOKE FAILED:", p)
    print("smoke OK" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    args = sys.argv[1:]
    build()
    if args == ["--smoke"]:
        sys.exit(smoke())
    code, lines = run(args)
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
