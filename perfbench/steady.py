#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/steady.py --workload ber-receivers --seeds 1-10 [--trace 0] [--repeat 2]

For each end-to-end metric (per-layer with ``--trace 1``) it prints the
median, the quartiles and the spread: the distance between the first and
third quartile of the per-run values, as a share of their median.  With
``--repeat 2`` every seed runs twice; the CSV digests and, when traced,
the exact counters must then be identical between the two runs of a
seed, and the second set's medians are compared with the first's.
Runs whose checks failed are listed; their figures still count.  Each run
is a fresh process, one after the other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = (int(v) for v in spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1]), elapsed


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help='"lo-hi" or a comma list')
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="sets of runs over the same seeds")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    sets = []
    ok = True
    incorrect = []
    for rep in range(args.repeat):
        runs = []
        for seed in seed_list(args.seeds):
            record, result, elapsed = run_once(args.workload, seed, seconds, args.trace)
            runs.append((seed, record, result))
            figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if k in bounds)
            print(f"set {rep + 1} seed {seed}: {elapsed:.1f}s, correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {figures}", flush=True)
            if not result["correct"]:
                incorrect.append((rep + 1, seed, record["failures"]))
        sets.append(runs)

    for rep, runs in enumerate(sets, start=1):
        print(f"\nset {rep}: {args.workload}, {len(runs)} runs, {seconds}s each")
        for name in runs[0][2]["metrics"]:
            values = [r[2]["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            med, q1, q3, sp = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
                ok &= sp <= bound
            print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {sp:7.2%} {flag}")

    if len(sets) > 1:
        print("\nsame seed, different sets:")
        for runs in sets[1:]:
            for (seed, rec_a, _), (_, rec_b, _) in zip(sets[0], runs):
                same = rec_a["digests"] == rec_b["digests"] and rec_a.get("exact") == rec_b.get("exact")
                ok &= same
                if not same:
                    print(f"  seed {seed}: digests or exact counters differ")
            for name, bound in bounds.items():
                if bound is None or name not in sets[0][0][2]["metrics"]:
                    continue
                first = statistics.median(r[2]["metrics"][name]["value"] for r in sets[0])
                second = statistics.median(r[2]["metrics"][name]["value"] for r in runs)
                change = second / first - 1.0
                ok &= change <= bound
                print(f"  {name:40s} second median vs first {change:+.2%} (bound {bound:.0%})")
        print("  digests and exact counters identical" if ok else "")
    for rep, seed, failures in incorrect:
        print(f"set {rep} seed {seed} failed checks: {failures}")
    print("\nSTEADY" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
