#!/usr/bin/env python3
"""antsel benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload tier1-fixtures --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py): tier1-fixtures, outage-general-L,
ber-receivers.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time of
a fresh interpreter importing antsel.cli and antsel.verify), ``wall_s``
(median time of one round, in seconds at the reference host's speed:
see reference_probe) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics,
the per-case rates and ``trace.overhead_s``.  Metric names and units
come from BENCHMARK.json.

The next-to-last stdout line is a JSON record (environment, per-round
times, CSV digests, exact counters, failures); the last line is the
result.  Seed 1 is the default; seed 97 is held out for checking claims.
"""

from __future__ import annotations

import os

# Single-threaded BLAS for this process and every process it starts; set
# before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 97
SETUP_REPEATS = 3
PROBE_SMALL_S = 0.129
PROBE_BLOCK_S = 0.146
WORKLOAD_NAMES = ("tier1-fixtures", "outage-general-L", "ber-receivers")


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"], help="length of the measured section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args, spec


def measure_setup(repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and verifier."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import antsel.cli, antsel.verify"
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "openblas": openblas, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


class RoundRunner:
    """Rounds of one workload: runs them, checks every output, and keeps
    the attempt and failure counts."""

    def __init__(self, workload, out_dir: str) -> None:
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, label: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{label}: {failure}")

    def round(self, wrap=None) -> list:
        """Run each case once, through the functions ``wrap(fn, layer)``
        gives when set, and check the outputs."""
        from workloads import invoke, unwrapped

        outcomes = [invoke(case, self.out_dir, wrap or unwrapped) for case in self.workload.cases]
        for outcome in outcomes:
            failure = None
            try:
                self.workload.check(outcome)
            except ValueError as exc:
                failure = str(exc)
            digest = outcome.digest()
            if failure is None and digest is not None:
                if self.digests.setdefault(outcome.case.name, digest) != digest:
                    failure = "CSV differs from the first round's"
            self.record(outcome.case.name, failure)
        for label, failure in self.workload.check_round(outcomes):
            self.record(label, failure)
        return outcomes


def _small_matrix_work(rng) -> None:
    z = rng.standard_normal((5000, 8, 8, 2))
    A = z[..., 0] + 1j * z[..., 1]
    heights = 1.0 / np.real(np.einsum("bkk->bk", np.linalg.inv(np.einsum("bik,bij->bkj", A.conj(), A))))
    np.sort(heights.ravel())
    for k in range(1800):
        np.linalg.pinv(A[k, :3, :2])


def _channel_block_work(rng) -> None:
    z = rng.standard_normal((120_000, 3, 3, 2))
    H = z[..., 0] + 1j * z[..., 1]
    np.sort(np.real(np.einsum("bri,bri->bi", H.conj(), H)).ravel())
    np.einsum("bri,brj->bij", H.conj(), H)


#: Parts of the reference probe: fixed numpy work that uses no antsel code,
#: each with its median time between rounds on the host where the bounds
#: were set (2 vCPUs, Intel Xeon, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31).
#: "small": batched 8x8 inverses and a loop of small numpy calls;
#: "block": a large block of 3x3 channel-sized normals and their Gram matrices.
PROBE_PARTS = {"small": (_small_matrix_work, PROBE_SMALL_S), "block": (_channel_block_work, PROBE_BLOCK_S)}


def reference_probe(parts: tuple[str, ...]) -> float:
    """Geometric mean of the times of the probe parts named in ``parts``.

    On a host with shared CPUs (the 2-vCPU Xeon where the bounds were
    set) speed drifts by about a quarter for minutes at a time, and
    small-matrix and memory-heavy work drift by different amounts.  Each
    workload names the parts that are like its own work; a round's time
    over the probe time next to it cancels most of that drift.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64)))
    log_sum = 0.0
    for name in parts:
        start = time.perf_counter()
        PROBE_PARTS[name][0](rng)
        log_sum += math.log(time.perf_counter() - start)
    return math.exp(log_sum / len(parts))


def probe_reference_s(parts: tuple[str, ...]) -> float:
    """The probe time of ``parts`` on the host where the bounds were set."""
    return math.exp(sum(math.log(PROBE_PARTS[name][1]) for name in parts) / len(parts))


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(runner: RoundRunner, seconds: float, tracer=None) -> dict:
    """Closed loop of rounds until ``seconds`` have passed, each untraced
    round between two reference probes.  With a tracer, each untraced
    round is followed by a traced one."""
    walls, probes, traced_walls, layer_rounds, spans = [], [], [], [], []
    case_seconds = defaultdict(list)
    start = time.perf_counter()
    parts = runner.workload.probe_parts
    before = reference_probe(parts)
    while True:
        outcomes = runner.round()
        after = reference_probe(parts)
        walls.append(sum(o.seconds for o in outcomes))
        probes.append((before + after) / 2.0)
        before = after
        for o in outcomes:
            case_seconds[o.case.name].append(o.seconds)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                outcomes = runner.round(tracer.wrap)
            finally:
                tracer.remove()
            traced_walls.append(sum(o.seconds for o in outcomes))
            layer_rounds.append(tracer.metrics(sum(o.bytes_written for o in outcomes)))
            spans.append(tracer.spans)
            before = reference_probe(parts)
        if time.perf_counter() - start >= seconds:
            break
    return {"walls": walls, "probes": probes, "traced_walls": traced_walls, "layer_rounds": layer_rounds,
            "spans": spans, "case_seconds": dict(case_seconds)}


def rates(workload, case_seconds: dict) -> dict[str, float]:
    """Median trials/s or frames/s of each case."""
    return {
        f"{workload.rate_metric}.{case.name}": _median([case.work / s for s in case_seconds[case.name]])
        for case in workload.cases if workload.rate_metric
    }


def layer_metrics(runner: RoundRunner, measured: dict) -> dict[str, float]:
    """Median times over the traced rounds; exact counters must agree."""
    from tracing import EXACT_COUNTERS

    rounds = measured["layer_rounds"]
    out = {name: _median([r[name] for r in rounds]) for name in rounds[0]}
    for i, r in enumerate(rounds[1:], start=2):
        moved = [name for name in EXACT_COUNTERS if r[name] != rounds[0][name]]
        runner.record(f"traced round {i} counters", f"{moved} differ from round 1" if moved else None)
    for name in EXACT_COUNTERS:
        out[name] = rounds[0][name]
    out["trace.overhead_s"] = _median(measured["traced_walls"]) - _median(measured["walls"])
    return out


def write_spans(path: Path, rounds: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, spans in enumerate(rounds):
            for name, start, end, parent in spans:
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    if not (SRC / "antsel" / "__init__.py").is_file():
        print(f"error: no antsel source tree under {SRC}", file=sys.stderr)
        return 2
    setup = measure_setup(SETUP_REPEATS) if args.trace == 0 else []

    sys.path.insert(0, str(SRC))
    import antsel
    from tracing import EXACT_COUNTERS, Tracer
    from workloads import RATE_METRICS, WORKLOADS

    if not Path(antsel.__file__).resolve().is_relative_to(SRC):
        print(f"error: antsel imported from {antsel.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        runner = RoundRunner(workload, out_dir)
        # replays first: outside the measured section, and they warm the same paths
        replayed = workload.replays(out_dir)
        for label, failure in replayed:
            runner.record(label, failure)
        if not replayed:  # nothing to replay: an untimed, checked round warms the paths instead
            runner.round()
        measured = measure(runner, args.seconds, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    case_rates = rates(workload, measured["case_seconds"])
    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
        "seconds": args.seconds, "env": environment(), "setup_samples_s": setup,
        "round_wall_s": measured["walls"], "probe_s": measured["probes"],
        "traced_round_wall_s": measured["traced_walls"],
        "case_seconds": measured["case_seconds"], "rates": case_rates, "digests": runner.digests,
    }
    if args.trace == 0:
        values = {
            "setup_s": _median(setup),
            "wall_s": probe_reference_s(workload.probe_parts) * _median([w / p for w, p in zip(measured["walls"], measured["probes"])]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        values = layer_metrics(runner, measured)
        values.update(dict.fromkeys(RATE_METRICS, 0.0) | case_rates)
        busy = {k: v for k, v in values.items() if k.endswith(("busy_s", "self_s"))}
        traced_wall = _median(measured["traced_walls"])
        record["layer_share"] = {k: v / traced_wall for k, v in busy.items()}
        record["exact"] = {k: values[k] for k in EXACT_COUNTERS}
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        write_spans(trace_path, measured["spans"])
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        wanted = spec["per_layer"]

    failed = len(runner.failures)
    values["failed_share"] = failed / runner.attempted
    record["failures"] = runner.failures
    record["failed_share"] = values["failed_share"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for failure in runner.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
