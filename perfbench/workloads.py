"""The benchmark's workloads: the CLI invocations of one round, the checks
on every output, and the replays that recompute the start of an output
through the per-draw public API.

A round runs each case of a workload once, one invocation after the
other (closed loop, one client).  Every invocation goes through
``antsel.cli.main(argv)`` with ``--workers 1``, except the verifier's QR
oracle, which has no command of its own and is called on
``antsel.verify`` directly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from antsel import cli, verify
from antsel.channel import complex_gaussian, stream_generator
from antsel.receivers import LinkBudget, qpsk_demodulate, simulate_frame, vblast_order
from antsel.selection import select

OUTAGE_SHAPE = (8, 8, 4)  # (n_t, n_r, L)
OUTAGE_GRID = "logspace:0.5,6,24"
#: (rule, trials per invocation): sized so a round runs about two seconds,
#: which gives a run enough rounds for a steady median.
OUTAGE_RULES = (("maxmin", 6_000), ("random", 6_000), ("qr-greedy", 30_000))

SNR_GRID = "8,14,20"
FRAME_SYMBOLS = 50
#: (metric name, (n_t, n_r, L), rule, receiver, extra flags, frames):
#: frame counts give each case a similar share of a round of about two
#: seconds.
BER_CASES = (
    ("zf", (3, 3, 2), "qr-greedy", "zf", (), 6_000),
    ("mmse", (3, 3, 2), "qr-greedy", "mmse", (), 1_500),
    ("df-zf", (3, 3, 2), "qr-greedy", "df-zf", (), 7_000),
    ("df-mmse", (3, 3, 2), "qr-greedy", "df-mmse", (), 800),
    ("df-zf-L3", (4, 4, 3), "maxmin", "df-zf", ("--ordering", "vblast"), 300),
    ("df-mmse-L3", (4, 4, 3), "qr-greedy", "df-mmse", (), 450),
)

#: tier1-fixtures: the fixtures of ``antsel verify --scale quick`` whose
#: outputs have exact properties, at the trial counts of that scale, all
#: on the workload seed (so the rules redraw the same channels).
FIXTURE_OUTAGE_RULES = ("maxmin", "random", "first-fixed", "first-ordered", "qr-greedy")
FIXTURE_OUTAGE_TRIALS = 500_000
FIXTURE_OUTAGE_GRID = "logspace:0.02,0.5,32"  # verify.OUTAGE_GRID
FIXTURE_BER_RULES = ("qr-greedy", "first-fixed")
FIXTURE_BER_FRAMES = 20_000
FIXTURE_BER_SNR_DB = "14"
FIXTURE_ORACLE_DRAWS = 100

#: Every per-case rate, over all workloads.
RATE_METRICS = tuple(f"trials_per_s.{rule}" for rule, _ in OUTAGE_RULES) + tuple(
    f"frames_per_s.{case[0]}" for case in BER_CASES
)

#: Draws (outage) or frames (BER) recomputed per case by the replays.
REPLAY_COUNT = 100


@dataclass(frozen=True)
class Case:
    """One CLI invocation of a round."""

    name: str
    argv: tuple[str, ...]
    work: int = 0          # trials or frames asked for; 0 when no rate applies
    writes_csv: bool = True
    call: tuple = ()       # (name in antsel.verify, *args): called instead of the CLI


@dataclass(frozen=True)
class Outcome:
    case: Case
    seconds: float
    code: int
    stdout: str
    stderr: str
    csv_bytes: bytes | None
    result: object = None  # return value of a ``call`` case

    @property
    def bytes_written(self) -> int:
        return len(self.stdout.encode()) + len(self.csv_bytes or b"")

    def digest(self) -> str | None:
        return hashlib.sha256(self.csv_bytes).hexdigest() if self.csv_bytes is not None else None


def unwrapped(fn, layer: str):
    return fn


def invoke(case: Case, out_dir: str, wrap=unwrapped, argv_tail: tuple[str, ...] = ()) -> Outcome:
    """Run one invocation in-process; only the call itself is timed.
    ``wrap(fn, layer)`` gives the function that is called (a traced one
    in traced rounds)."""
    if case.call:
        fn = wrap(getattr(verify, case.call[0]), "verify")
        start = time.perf_counter()
        result = fn(*case.call[1:])
        return Outcome(case, time.perf_counter() - start, 0, "", "", None, result)
    main = wrap(cli.main, "cli")
    argv = list(case.argv) + list(argv_tail)
    path = None
    if case.writes_csv:
        path = os.path.join(out_dir, f"{case.name}.csv")
        argv += ["--out", path]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - start
    csv_bytes = None
    if path is not None and os.path.exists(path):
        with open(path, "rb") as fh:
            csv_bytes = fh.read()
        os.remove(path)
    return Outcome(case, seconds, code, out.getvalue(), err.getvalue(), csv_bytes)


def derived_seed(seed: int, label: str) -> int:
    """Seed of its own for one case, so no two cases share draws."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{label}".encode()).digest()[:4], "big")


def _csv_rows(outcome: Outcome, header: list[str]) -> list[list[str]]:
    if outcome.code != 0:
        raise ValueError(f"exit code {outcome.code}: {outcome.stderr.strip()}")
    if outcome.csv_bytes is None:
        raise ValueError("no CSV written")
    rows = list(csv.reader(io.StringIO(outcome.csv_bytes.decode("utf-8"))))
    if not rows or rows[0] != header:
        raise ValueError(f"CSV header {rows[:1]} is not {header}")
    return rows[1:]


def outage_hits(outcome: Outcome) -> tuple[list[float], list[int], list[int]]:
    rows = _csv_rows(outcome, ["x", "hits", "trials", "p_hat", "stderr"])
    return [float(r[0]) for r in rows], [int(r[1]) for r in rows], [int(r[2]) for r in rows]


def check_outage(outcome: Outcome) -> None:
    """Trials as asked, monotone hits and at least 3 nonzero points."""
    _, hits, trials = outage_hits(outcome)
    if any(n != outcome.case.work for n in trials):
        raise ValueError(f"trials column {set(trials)} is not {outcome.case.work}")
    if any(b < a for a, b in zip(hits, hits[1:])):
        raise ValueError(f"hits are not monotone: {hits}")
    if sum(h > 0 for h in hits) < 3:
        raise ValueError(f"fewer than 3 nonzero points: {hits}")


def ber_errors(outcome: Outcome) -> tuple[list[int], list[int]]:
    rows = _csv_rows(outcome, ["snr_db", "bit_errors", "bits", "ber"])
    return [int(r[1]) for r in rows], [int(r[2]) for r in rows]


def check_ber(outcome: Outcome, L: int, points: int) -> None:
    """frames x L x symbols x 2 bits at each of ``points`` SNRs, and bit
    errors that do not rise with SNR."""
    errors, bits = ber_errors(outcome)
    expected = outcome.case.work * L * FRAME_SYMBOLS * 2
    if len(bits) != points or any(b != expected for b in bits):
        raise ValueError(f"bits column {bits} is not {expected} at every point")
    if any(b > a for a, b in zip(errors, errors[1:])):
        raise ValueError(f"BER rises with SNR: {errors}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Cases of one round, per-output checks and replays."""

    name = ""
    rate_metric = ""  # "trials_per_s" or "frames_per_s"; empty when none
    #: parts of the reference probe (see run.reference_probe) like this
    #: workload's own work
    probe_parts = ("small", "block")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cases = self.build_cases()

    def build_cases(self) -> tuple[Case, ...]:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> None:
        """Raise ValueError if the output of one invocation is wrong."""
        raise NotImplementedError

    def check_round(self, outcomes: list[Outcome]) -> list[tuple[str, str | None]]:
        """(label, failure or None) per check across the invocations of one round."""
        return []

    def replays(self, out_dir: str) -> list[tuple[str, str | None]]:
        """(label, failure or None) per replayed case."""
        return []


class Tier1Fixtures(Workload):
    """The work of ``antsel verify --scale quick`` that has exact checks.

    verify's gating rows are hypothesis tests; at the quick scale one of
    them rejects on some seeds, so its verdict is not an output check.
    This workload runs the same fixtures through the CLI and checks what
    must hold on every seed: the analytic self-test, the five-rule
    (3,3,2) outage curves on common draws with their ordering, the DF BER
    pair's bit counts, and the QR oracle's identity.
    """

    name = "tier1-fixtures"

    def build_cases(self):
        seed = str(self.seed)
        cases = [Case("selftest", ("analytic", "selftest"), writes_csv=False)]
        for rule in FIXTURE_OUTAGE_RULES:
            cases.append(Case(f"outage.{rule}", (
                "outage", "--nt", "3", "--nr", "3", "--L", "2", "--rule", rule,
                "--trials", str(FIXTURE_OUTAGE_TRIALS), "--seed", seed, "--x-grid", FIXTURE_OUTAGE_GRID,
                "--workers", "1"), work=FIXTURE_OUTAGE_TRIALS))
        for rule in FIXTURE_BER_RULES:
            cases.append(Case(f"ber.{rule}", (
                "ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", rule, "--receiver", "df-zf",
                "--snr-db", FIXTURE_BER_SNR_DB, "--frames", str(FIXTURE_BER_FRAMES),
                "--frame-symbols", str(FRAME_SYMBOLS), "--seed", seed, "--workers", "1"),
                work=FIXTURE_BER_FRAMES))
        cases.append(Case("qr-oracle", (), writes_csv=False,
                          call=("qr_df_stage_oracle", FIXTURE_ORACLE_DRAWS, self.seed)))
        return tuple(cases)

    def check(self, outcome):
        kind = outcome.case.name.split(".", 1)[0]
        if kind == "selftest":
            if outcome.code != 0:
                raise ValueError(f"exit code {outcome.code}: {outcome.stderr.strip()}")
            payload = json.loads(outcome.stdout)
            failing = [c["name"] for c in payload["checks"] if not c["passed"]]
            if failing or not payload["passed"]:
                raise ValueError(f"self-test checks failed: {failing}")
        elif kind == "outage":
            check_outage(outcome)
        elif kind == "ber":
            check_ber(outcome, L=2, points=1)
        else:
            worst, first_pick_ok = outcome.result
            if not (worst < 1e-9 and first_pick_ok):
                raise ValueError(f"worst relative error {worst:.2e}, first pick max-norm: {first_pick_ok}")

    def check_round(self, outcomes):
        """On common draws each rule's scalar bounds the next one's, so
        hits of first-ordered <= first-fixed <= maxmin <= random."""
        by_name = {o.case.name: o for o in outcomes}
        chain = ("first-ordered", "first-fixed", "maxmin", "random")
        results = []
        for lo, hi in zip(chain, chain[1:]):
            label = f"{lo} hits <= {hi} hits"
            try:
                a = outage_hits(by_name[f"outage.{lo}"])[1]
                b = outage_hits(by_name[f"outage.{hi}"])[1]
            except ValueError as exc:
                results.append((label, str(exc)))
                continue
            results.append((label, f"{a} vs {b}" if any(x > y for x, y in zip(a, b)) else None))
        return results


class OutageGeneralL(Workload):
    name = "outage-general-L"
    rate_metric = "trials_per_s"
    probe_parts = ("small",)  # small-matrix inverses only, no large blocks

    def build_cases(self):
        n_t, n_r, L = OUTAGE_SHAPE
        return tuple(
            Case(rule, ("outage", "--nt", str(n_t), "--nr", str(n_r), "--L", str(L), "--rule", rule,
                        "--trials", str(trials), "--seed", str(self.seed), "--x-grid", OUTAGE_GRID,
                        "--workers", "1"), work=trials)
            for rule, trials in OUTAGE_RULES
        )

    def check(self, outcome):
        check_outage(outcome)

    def check_round(self, outcomes):
        by_rule = {o.case.name: o for o in outcomes}
        label = "maxmin hits <= random hits"
        try:
            maxmin = outage_hits(by_rule["maxmin"])[1]
            rand = outage_hits(by_rule["random"])[1]
        except ValueError as exc:
            return [(label, str(exc))]
        return [(label, f"{maxmin} vs {rand}" if any(a > b for a, b in zip(maxmin, rand)) else None)]

    def replays(self, out_dir):
        """The first draws of chunk 0, regenerated in the documented order
        (stream (seed, 0), then the channel block, then rule randomness)
        and put through ``selection.select`` one draw at a time."""
        n_t, n_r, L = OUTAGE_SHAPE
        results = []
        for case in self.cases:
            label = f"replay {case.name}"
            ref = invoke(case, out_dir, argv_tail=("--trials", str(REPLAY_COUNT)))
            try:
                grid, hits, _ = outage_hits(ref)
            except ValueError as exc:
                results.append((label, str(exc)))
                continue
            rng = stream_generator(self.seed, 0)
            H = complex_gaussian(rng, (REPLAY_COUNT, n_r, n_t))
            scalars = []
            for b in range(REPLAY_COUNT):
                outcome = select(case.name, H[b], L, rng)
                if case.name == "qr-greedy":  # height of the first decoded layer
                    scalars.append(outcome.metrics.heights[outcome.decode_order[0]])
                else:
                    scalars.append(outcome.metrics.min_height)
            replayed = [int(np.sum(np.asarray(scalars) <= x)) for x in grid]
            results.append((label, None if replayed == hits else f"replayed {replayed} != {hits}"))
        return results


class BerReceivers(Workload):
    name = "ber-receivers"
    rate_metric = "frames_per_s"

    def build_cases(self):
        cases = []
        for name, (n_t, n_r, L), rule, receiver, extra, frames in BER_CASES:
            argv = ("ber", "--nt", str(n_t), "--nr", str(n_r), "--L", str(L), "--rule", rule,
                    "--receiver", receiver, *extra, "--snr-db", SNR_GRID, "--frames", str(frames),
                    "--frame-symbols", str(FRAME_SYMBOLS), "--seed", str(derived_seed(self.seed, name)),
                    "--workers", "1")
            cases.append(Case(name, argv, work=frames))
        return tuple(cases)

    def _spec(self, case: Case):
        return next(spec for spec in BER_CASES if spec[0] == case.name)

    def check(self, outcome):
        check_ber(outcome, L=self._spec(outcome.case)[1][2], points=len(SNR_GRID.split(",")))

    def replays(self, out_dir):
        """The first frames regenerated in the documented order (channels,
        bits, noise), selected with ``selection.select`` and detected with
        ``receivers.simulate_frame`` on the columns in decode order."""
        snrs = [float(v) for v in SNR_GRID.split(",")]
        results = []
        for case in self.cases:
            label = f"replay {case.name}"
            ref = invoke(case, out_dir, argv_tail=("--frames", str(REPLAY_COUNT)))
            try:
                errors, _ = ber_errors(ref)
            except ValueError as exc:
                results.append((label, str(exc)))
                continue
            _, (n_t, n_r, L), rule, receiver, extra, _ = self._spec(case)
            seed = int(case.argv[case.argv.index("--seed") + 1])
            rng = stream_generator(seed, 0)
            H = complex_gaussian(rng, (REPLAY_COUNT, n_r, n_t))
            bits = rng.integers(0, 2, size=(REPLAY_COUNT, L, FRAME_SYMBOLS, 2))
            noise = complex_gaussian(rng, (REPLAY_COUNT, n_r, FRAME_SYMBOLS))
            replayed = [0] * len(snrs)
            for b in range(REPLAY_COUNT):
                outcome = select(rule, H[b], L, rng)
                subset = outcome.subset.indices
                if "--ordering" in extra:
                    if extra[extra.index("--ordering") + 1] != "vblast":
                        raise ValueError(f"no replay for ordering {extra}")
                    order = vblast_order(H[b][:, list(subset)], LinkBudget(rho0=1.0, L=L))
                else:
                    order = outcome.decode_order
                cols = [subset[p] for p in order]
                for i, snr_db in enumerate(snrs):
                    frame = simulate_frame(H[b][:, cols], LinkBudget(rho0=10.0 ** (snr_db / 10.0), L=L),
                                           bits[b], noise[b], receiver=receiver,
                                           decode_order=tuple(range(L)))
                    replayed[i] += int(np.sum(qpsk_demodulate(frame.detected) != bits[b]))
            results.append((label, None if replayed == errors else f"replayed {replayed} != {errors}"))
        return results


WORKLOADS = {w.name: w for w in (Tier1Fixtures, OutageGeneralL, BerReceivers)}
