"""Configuration-driven command line: run experiments, evaluate the closed
forms, and verify the statistical contracts.

Curves land in CSV (one row per grid point, '.' decimal separator, LF
endings); scalar reports and run manifests land in JSON.  A manifest plus
this tool reproduces every output bit for bit.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, analytic
from .channel import RNG_LAYOUT
from .montecarlo import (
    ExperimentConfig,
    FitError,
    _ber_chunk_size,
    _check_grid,
    estimate_ber,
    estimate_outage,
    fit_slope,
)
from .selection import RULES
from .receivers import FEEDBACK_MODES, ORDERING_MODES, RECEIVERS


class UsageError(Exception):
    """Invalid command-line input (maps to exit code 2)."""


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run: resolved configuration, seed,
    timestamps and the files the run produced.

    ``effective_chunk_size`` is the chunk the run was split into, which
    keys the random streams: ``config.chunk_size`` for outage runs, and
    for BER runs that size capped by the received-sample budget.
    ``library_versions`` names the python, numpy and scipy releases, and
    ``rng_layout`` the package's draw layout (``channel.RNG_LAYOUT``).
    """

    tool: str
    version: str
    command: str
    created_utc: str
    finished_utc: str
    master_seed: int
    workers: int
    config: dict
    outputs: tuple[str, ...]
    effective_chunk_size: int
    library_versions: dict
    rng_layout: int = RNG_LAYOUT
    slope_fit: dict | None = None


def parse_grid(spec: str, require_positive: bool = False) -> tuple[float, ...]:
    """Parse a grid given as "logspace:lo,hi,n", "linspace:lo,hi,n" or a
    comma list; the result must pass ``montecarlo._check_grid`` (non-empty,
    finite, strictly increasing)."""
    s = spec.strip()
    try:
        if s.startswith(("logspace:", "linspace:")):
            kind, _, rest = s.partition(":")
            parts = [p.strip() for p in rest.split(",")]
            if len(parts) != 3:
                raise UsageError(f"{kind} grid needs lo,hi,count: got {spec!r}")
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 2:
                raise UsageError(f"grid needs at least 2 points, got {count}")
            if kind == "logspace" and lo <= 0:
                raise UsageError(f"logspace grid needs a positive start, got {lo}")
            with np.errstate(all="ignore"):  # non-finite ends space to non-finite points, which _check_grid names
                values = (np.geomspace if kind == "logspace" else np.linspace)(lo, hi, count)
        else:
            values = [float(tok) for tok in s.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse grid {spec!r}: {exc}") from None
    try:
        grid = _check_grid(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if require_positive and grid[0] <= 0:
        raise UsageError(f"grid values must be positive, got {spec!r}")
    return grid


def _resolve_seed(value: int | None) -> int:
    """Explicit flag wins; the ANTSEL_SEED environment variable is the
    fallback; the default is 0."""
    if value is not None:
        return int(value)
    env = os.environ.get("ANTSEL_SEED")
    if env is None or env.strip() == "":
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"ANTSEL_SEED must be an integer, got {env!r}") from None


@functools.lru_cache(maxsize=None)
def _library_version_items() -> tuple[tuple[str, str], ...]:
    # package metadata gives the versions without importing scipy
    import importlib.metadata

    return (
        ("python", platform.python_version()),
        ("numpy", importlib.metadata.version("numpy")),
        ("scipy", importlib.metadata.version("scipy")),
    )


def _library_versions() -> dict:
    """Python, numpy and scipy releases, read once per process; every
    call returns a dict of its own."""
    return dict(_library_version_items())


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _fmt(value: float) -> str:
    return repr(float(value))


def _outage_run(args: argparse.Namespace, fields: dict) -> tuple:
    """The outage curve and slope fit of ``args`` as (config, CSV header,
    CSV rows, manifest fields); ``fields`` are the shared config fields."""
    config = ExperimentConfig(trial_count=args.trials, grid=parse_grid(args.x_grid, require_positive=True), **fields)
    curve = estimate_outage(config, workers=args.workers)
    # fitted before any output is written: a rejected --min-hits leaves none
    try:
        fit = asdict(fit_slope(curve, min_hits=args.min_hits))
    except FitError as exc:
        fit = {"error": str(exc)}
    rows = [
        [_fmt(x), h, n, _fmt(p), _fmt(s)]
        for x, h, n, p, s in zip(curve.abscissa, curve.hits, curve.trials, curve.p_hat(), curve.stderr())
    ]
    return config, ["x", "hits", "trials", "p_hat", "stderr"], rows, dict(
        effective_chunk_size=config.chunk_size, slope_fit=fit)


def _ber_run(args: argparse.Namespace, fields: dict) -> tuple:
    """The BER curve of ``args``, returned as :func:`_outage_run` returns its curve."""
    config = ExperimentConfig(
        trial_count=args.frames, grid=parse_grid(args.snr_db), receiver=args.receiver, feedback=args.feedback,
        ordering=args.ordering, frame_symbols=args.frame_symbols, **fields,
    )
    curve = estimate_ber(config, workers=args.workers)
    rows = [[_fmt(x), e, b, _fmt(e / b)] for x, e, b in zip(curve.abscissa, curve.hits, curve.trials)]
    return config, ["snr_db", "bit_errors", "bits", "ber"], rows, dict(effective_chunk_size=_ber_chunk_size(config))


def _manifest_path(out: str) -> str:
    """Where a run writes the manifest of its CSV at ``out``."""
    return out + ".manifest.json"


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment (``args.run``: :func:`_outage_run` or
    :func:`_ber_run`) and record it: the CSV at ``args.out`` and its
    manifest beside it, both written only once the run has succeeded."""
    seed = _resolve_seed(args.seed)
    started = _utc_now()
    fields = dict(n_t=args.nt, n_r=args.nr, L=args.L, rule=args.rule, master_seed=seed, chunk_size=args.chunk_size)
    config, header, rows, recorded = args.run(args, fields)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    manifest = RunManifest(
        tool="antsel", version=__version__, command=args.command,
        created_utc=started, finished_utc=_utc_now(), master_seed=seed,
        workers=args.workers, config=asdict(config), outputs=(args.out,),
        library_versions=_library_versions(), **recorded,
    )
    with open(_manifest_path(args.out), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
    return 0


def _coefficient_report(args: argparse.Namespace) -> dict:
    coeff = analytic.outage_coefficient(args.nt, args.nr)
    return {
        "kind": "outage-expansion-coefficient",
        "n_t": coeff.n_t,
        "n_r": coeff.n_r,
        "M": coeff.m,
        "leading": coeff.leading,
        "b_m": coeff.b_m,
        "tail_sum": coeff.tail_sum,
        "c": list(coeff.c),
        "a": list(coeff.a),
    }


def _quadrature_report(args: argparse.Namespace) -> dict:
    grid = parse_grid(args.x_grid, require_positive=True)
    probabilities, slope = analytic.quadrature_slope(grid, args.nt, args.nr, restricted=args.restricted)
    return {
        "kind": "outage-quadrature",
        "n_t": args.nt,
        "n_r": args.nr,
        "restricted": bool(args.restricted),
        "points": [{"x": x, "probability": p} for x, p in zip(grid, probabilities)],
        "loglog_slope": slope,
    }


def _dmt_report(args: argparse.Namespace) -> dict:
    grid = parse_grid(args.r_grid)
    return {
        "kind": "diversity-multiplexing-curve",
        "n_t": args.nt,
        "n_r": args.nr,
        "L": args.L,
        "bound": args.bound,
        "points": [{"r": r, "d": analytic.dmt_curve(args.nt, args.nr, args.L, r, bound=args.bound)} for r in grid],
    }


def _selftest_report(args: argparse.Namespace) -> dict:
    from .verify import analytic_selftest

    outcomes = analytic_selftest()
    return {
        "kind": "analytic-selftest",
        "checks": [{"name": o.name, "passed": o.passed, "detail": o.detail} for o in outcomes],
        "passed": all(o.passed for o in outcomes),
    }


def _cmd_analytic(args: argparse.Namespace) -> int:
    """Emit the JSON report of one ``analytic`` subcommand (``args.report``);
    exit 1 when the report holds a failed check."""
    payload = args.report(args)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if payload.get("passed", True) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    seed = _resolve_seed(args.seed)
    outcomes = run_verification(scale=args.scale, seed=seed, workers=args.workers)
    width = max(len(o.name) for o in outcomes)
    print(f"verification scale={args.scale} seed={seed}")
    for o in outcomes:
        flag = "PASS" if o.passed else ("FAIL" if o.gating else "info")
        print(f"  {o.name:<{width}}  {flag:<4}  [{o.seconds:6.2f}s]  {o.detail}")
    gating_ok = all(o.passed for o in outcomes if o.gating)
    print("result:", "PASS" if gating_ok else "FAIL")
    return 0 if gating_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parse reads it
    and leaves it unchanged, and building it costs more than a one-trial
    run."""
    parser = argparse.ArgumentParser(
        prog="antsel",
        description="Monte Carlo and analytic verification of transmit antenna selection diversity.",
    )
    parser.add_argument("--version", action="version", version=f"antsel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    grid_help = 'comma list ("0.01,0.1,1") or "logspace:lo,hi,n" / "linspace:lo,hi,n"'

    p_out = sub.add_parser("outage", help="estimate an outage curve and fit its log-log slope")
    p_ber = sub.add_parser("ber", help="estimate a bit-error-rate curve")
    for p_run, run in ((p_out, _outage_run), (p_ber, _ber_run)):
        p_run.add_argument("--nt", type=int, required=True, help="transmit antennas")
        p_run.add_argument("--nr", type=int, required=True, help="receive antennas")
        p_run.add_argument("--L", type=int, required=True, help="selected streams")
        p_run.add_argument("--rule", choices=RULES, required=True)
        p_run.add_argument("--seed", type=int, default=None, help="master seed (fallback: ANTSEL_SEED, then 0)")
        p_run.add_argument("--chunk-size", type=int, default=100_000)
        p_run.add_argument("--workers", type=int, default=1)
        p_run.add_argument("--out", required=True, help="CSV output path (manifest lands beside it)")
        p_run.set_defaults(func=_cmd_run, run=run)

    p_out.add_argument("--trials", type=int, required=True)
    p_out.add_argument("--x-grid", required=True, help=f"threshold grid: {grid_help}")
    p_out.add_argument("--min-hits", type=int, default=10, help="slope fit hit floor")

    p_ber.add_argument("--receiver", choices=RECEIVERS, default="df-zf")
    p_ber.add_argument("--feedback", choices=FEEDBACK_MODES, default="actual")
    p_ber.add_argument("--ordering", choices=ORDERING_MODES, default=None,
                       help="decode-order override (default: the rule's native order)")
    p_ber.add_argument("--snr-db", required=True, help=f"SNR grid in dB: {grid_help}")
    p_ber.add_argument("--frames", type=int, required=True, help="channel draws per SNR point")
    p_ber.add_argument("--frame-symbols", type=int, default=50, help="QPSK symbols per stream per frame")

    p_an = sub.add_parser("analytic", help="closed-form tables and the identity self-test")
    an_sub = p_an.add_subparsers(dest="analytic_cmd", required=True)

    p_coeff = an_sub.add_parser("coefficient", help="small-threshold expansion coefficients")
    p_quad = an_sub.add_parser("quadrature", help="outage of the bounding variable by quadrature")
    p_dmt = an_sub.add_parser("dmt", help="diversity-multiplexing tradeoff table")
    p_self = an_sub.add_parser("selftest", help="check every closed-form identity; exit 1 on failure")
    for p_dims in (p_coeff, p_quad, p_dmt):
        p_dims.add_argument("--nt", type=int, required=True)
        p_dims.add_argument("--nr", type=int, required=True)

    p_quad.add_argument("--x-grid", required=True, help=f"threshold grid: {grid_help}")
    p_quad.add_argument("--restricted", action="store_true", help="condition the angles into (0, psi0)")

    p_dmt.add_argument("--L", type=int, required=True)
    p_dmt.add_argument("--r-grid", required=True, help=f"multiplexing gains: {grid_help}")
    p_dmt.add_argument("--bound", choices=("lower", "upper", "exact-l2"), default="exact-l2")

    for p_report, report in ((p_coeff, _coefficient_report), (p_quad, _quadrature_report), (p_dmt, _dmt_report),
                             (p_self, _selftest_report)):
        p_report.add_argument("--out", default=None)
        p_report.set_defaults(func=_cmd_analytic, report=report)

    p_ver = sub.add_parser("verify", help="run the statistical and analytic verification suite")
    p_ver.add_argument("--scale", choices=("quick", "full"), default="quick")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; an ``--out`` path whose directory is missing, or
    that names a directory, is a usage error, raised before the command
    does any work, and so is a run's manifest path that names a
    directory."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None) or ""
        out_dir = os.path.dirname(out) or "."
        if not os.path.isdir(out_dir):
            raise UsageError(f"output directory {out_dir!r} does not exist")
        if os.path.isdir(out):
            raise UsageError(f"output path {out!r} is a directory")
        if args.func is _cmd_run and os.path.isdir(_manifest_path(out)):
            raise UsageError(f"manifest path {_manifest_path(out)!r} is a directory")
        return args.func(args)
    except (UsageError, ValueError) as exc:  # invalid parameter combinations are usage problems too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
