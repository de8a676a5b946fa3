"""Conformance of the validity rules: a rejected value raises the same
message whichever public entry point it enters by.

Each case names one rule and one value it rejects, and sends that value
through every public entry point that takes it: the selection calls, the
experiment configuration and engines, the analytic functions and the
command line (``antsel outage|ber`` and ``antsel analytic
coefficient|quadrature|dmt``; ``analytic selftest`` takes none of these
values).  An API call must raise ``ValueError``; a command must exit 2
with one ``error:`` line.  All the messages of a case must be equal.

Receiver and feedback names reach the command line only through
argparse's choices, which reject them before the package sees them, so
those cases call the API alone; so do the threshold cases, whose values
the command line's grid check rejects first.  The seed range is checked
twice, with messages that name the argument (``ExperimentConfig``'s
``master_seed`` and ``channel.stream_generator``'s ``seed``), so its
case only requires the shared reason.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np
import pytest

from antsel.analytic import (
    AnalyticSpec,
    dmt_curve,
    leading_coefficient_exact,
    outage_coefficient,
    pr_outage_quadrature,
    quadrature_slope,
    random_pair_outage,
    theta_cdf,
    theta_pdf,
)
from antsel.channel import complex_gaussian, stream_generator
from antsel.cli import main
from antsel.montecarlo import (
    EmpiricalCurve,
    ExperimentConfig,
    estimate_ber,
    estimate_dmt_gains,
    estimate_outage,
    estimate_outage_rules,
    fit_slope,
    independence_suite,
    lemma_harness,
)
from antsel.receivers import LinkBudget, detect_df, df_stage_snrs, simulate_frame
from antsel.selection import AntennaSubset, enumerate_subsets, select, select_block, subset_metrics


def _channel(n_r, n_t):
    return complex_gaussian(stream_generator(41, 0), (n_r, n_t))


def _config(**fields):
    base = dict(n_t=3, n_r=3, L=2, rule="maxmin", trial_count=10, master_seed=0, grid=(0.1, 0.2))
    return ExperimentConfig(**{**base, **fields})


def _shape_entries(n_t, n_r, L):
    """Every entry point that takes the shape (n_t, n_r, L)."""
    H = _channel(n_r, n_t)
    dims = ["--nt", str(n_t), "--nr", str(n_r), "--L", str(L)]
    entries = {
        "select": lambda: select("maxmin", H, L),
        "select_block": lambda: select_block("qr-greedy", H[None], L),
        "ExperimentConfig": lambda: _config(n_t=n_t, n_r=n_r, L=L),
        "AnalyticSpec": lambda: AnalyticSpec(n_t, n_r, L),
        "dmt_curve": lambda: dmt_curve(n_t, n_r, L, 0.5, bound="lower"),
        "antsel outage": ["outage", *dims, "--rule", "maxmin", "--trials", "10", "--x-grid", "0.1,0.2"],
        "antsel ber": ["ber", *dims, "--rule", "maxmin", "--frames", "10", "--snr-db", "10"],
        "antsel analytic dmt": ["analytic", "dmt", *dims, "--r-grid", "0.5", "--bound", "lower"],
    }
    if L >= 1:
        entries["subset_metrics"] = lambda: subset_metrics(H, AntennaSubset(tuple(range(L))))
    if n_r >= L:
        entries["enumerate_subsets"] = lambda: enumerate_subsets(n_t, L)
    return entries


def _pair_entries(n_t, n_r):
    """Every entry point that takes a two-stream shape (n_t, n_r)."""
    dims = ["--nt", str(n_t), "--nr", str(n_r)]
    entries = _shape_entries(n_t, n_r, 2)
    entries.update({
        "leading_coefficient_exact": lambda: leading_coefficient_exact(n_t, n_r),
        "outage_coefficient": lambda: outage_coefficient(n_t, n_r),
        "AnalyticSpec at its default L": lambda: AnalyticSpec(n_t, n_r),
        "pr_outage_quadrature": lambda: pr_outage_quadrature(0.1, n_t, n_r),
        "quadrature_slope": lambda: quadrature_slope([0.1, 0.2], n_t, n_r),
        "antsel analytic coefficient": ["analytic", "coefficient", *dims],
        "antsel analytic quadrature": ["analytic", "quadrature", *dims, "--x-grid", "0.1,0.2"],
    })
    return entries


def _receive_pair_entries():
    """The pair shape with one receive antenna, and the pair-angle laws."""
    entries = _pair_entries(3, 1)
    entries.update({
        "theta_pdf": lambda: theta_pdf(0.5, 1),
        "theta_cdf": lambda: theta_cdf(0.5, 1),
        "random_pair_outage": lambda: random_pair_outage(0.1, 1),
    })
    return entries


def _grid_entries(points, spec):
    """Every entry point that takes an abscissa grid: ``points`` for the
    API and the same grid written as the command-line ``spec``."""
    return {
        "ExperimentConfig": lambda: _config(grid=points),
        "estimate_dmt_gains": lambda: estimate_dmt_gains(3, 3, 2, "maxmin", {0.5: points}, 10),
        "antsel outage": ["outage", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--trials", "10",
                          "--x-grid", spec],
        "antsel ber": ["ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--frames", "10",
                       "--snr-db", spec],
        "antsel analytic quadrature": ["analytic", "quadrature", "--nt", "3", "--nr", "3", "--x-grid", spec],
        "antsel analytic dmt": ["analytic", "dmt", "--nt", "3", "--nr", "3", "--L", "2", "--r-grid", spec],
    }


def _threshold_entries(x):
    """Every entry point that takes an outage threshold of the closed forms."""
    return {
        "pr_outage_quadrature": lambda: pr_outage_quadrature(x, 3, 3),
        "pr_outage_quadrature of an array": lambda: pr_outage_quadrature(np.array([0.1, x]), 3, 3),
        "random_pair_outage": lambda: random_pair_outage(x, 3),
        "quadrature_slope": lambda: quadrature_slope([0.1, x], 3, 3),
    }


def _trial_entries(count):
    """Every entry point that takes a trial count."""
    return {
        "estimate_outage": lambda: estimate_outage(_config(trial_count=count)),
        "estimate_outage_rules": lambda: estimate_outage_rules(_config(trial_count=count), ("maxmin", "random")),
        "estimate_ber": lambda: estimate_ber(_config(trial_count=count, grid=(10.0,))),
        "estimate_dmt_gains": lambda: estimate_dmt_gains(3, 3, 2, "maxmin", {0.5: [10.0, 20.0, 30.0]}, count),
        "lemma_harness": lambda: lemma_harness("III", (1, 2), count),
        "independence_suite": lambda: independence_suite(4, 3, count),
        "antsel outage": ["outage", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--trials", str(count),
                          "--x-grid", "0.1,0.2"],
        "antsel ber": ["ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--frames", str(count),
                       "--snr-db", "10"],
    }


def _frame_args():
    H = _channel(3, 2)
    rng = stream_generator(42, 0)
    bits = rng.integers(0, 2, size=(2, 4, 2))
    noise = complex_gaussian(rng, (3, 4))
    return H, LinkBudget(10.0, 2), bits, noise


def _mode_entries(receiver="zf", feedback="actual"):
    """Every entry point that takes a receiver or a feedback mode name."""
    H, budget, bits, noise = _frame_args()
    entries = {
        "ExperimentConfig": lambda: _config(receiver=receiver, feedback=feedback),
        "simulate_frame": lambda: simulate_frame(H, budget, bits, noise, receiver=receiver, feedback=feedback),
    }
    if receiver == "zf":
        entries["detect_df"] = lambda: detect_df(H, noise, budget, (1, 0), feedback=feedback)
    return entries


def _order_entries(order):
    """Every entry point that takes a decode order."""
    H, budget, bits, noise = _frame_args()
    return {
        "df_stage_snrs": lambda: df_stage_snrs(H, budget, order),
        "detect_df": lambda: detect_df(H, noise, budget, order),
        "simulate_frame": lambda: simulate_frame(H, budget, bits, noise, receiver="df-zf", decode_order=order),
    }


def _seed_entries(seed):
    """Every entry point that takes a master seed."""
    return {
        "ExperimentConfig": lambda: _config(master_seed=seed),
        "lemma_harness": lambda: lemma_harness("III", (1, 2), 10, master_seed=seed),
        "independence_suite": lambda: independence_suite(4, 3, 10, master_seed=seed),
        "stream_generator": lambda: stream_generator(seed, 0),
        "antsel outage": ["outage", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--trials", "10",
                          "--x-grid", "0.1,0.2", f"--seed={seed}"],
        "antsel ber": ["ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--frames", "10",
                       "--snr-db", "10", f"--seed={seed}"],
    }


#: (rule, rejected value) -> the entry points that take the value.
CASES = {
    "(a) subset size above n_t": lambda: _shape_entries(2, 3, 3),
    "(a) subset size zero": lambda: _shape_entries(3, 3, 0),
    "shape n_r below L": lambda: _shape_entries(4, 2, 3),
    "(b) pair with one transmit antenna": lambda: _pair_entries(1, 3),
    "(b, c) pair with one receive antenna": _receive_pair_entries,
    "(d) decreasing grid": lambda: _grid_entries((0.5, 0.1), "0.5,0.1"),
    "(d) repeated grid point": lambda: _grid_entries((0.1, 0.1), "0.1,0.1"),
    "(d) nan grid point": lambda: _grid_entries((0.1, math.nan), "0.1,nan"),
    "(d) infinite grid point": lambda: _grid_entries((0.1, math.inf), "0.1,inf"),
    "(d) empty grid": lambda: _grid_entries((), ","),
    "threshold zero": lambda: _threshold_entries(0.0),
    "negative threshold": lambda: _threshold_entries(-1.0),
    "nan threshold": lambda: _threshold_entries(math.nan),
    "infinite threshold": lambda: _threshold_entries(math.inf),
    "slope of one threshold": lambda: {
        "quadrature_slope": lambda: quadrature_slope([0.1], 3, 3),
        "antsel analytic quadrature": ["analytic", "quadrature", "--nt", "3", "--nr", "3", "--x-grid", "0.1"],
    },
    "slope fit hit floor zero": lambda: {
        "fit_slope": lambda: fit_slope(EmpiricalCurve((0.1, 0.2, 0.3), (10, 20, 30), (100,) * 3), min_hits=0),
        "antsel outage": ["outage", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--trials", "10",
                          "--x-grid", "0.1,0.2", "--min-hits", "0"],
    },
    "(e) no trials": lambda: _trial_entries(0),
    "(e) negative trials": lambda: _trial_entries(-5),
    "(f) unknown receiver": lambda: _mode_entries(receiver="sphere"),
    "(f) unknown feedback mode": lambda: _mode_entries(feedback="oracle"),
    "(h) repeated stream in the decode order": lambda: _order_entries((0, 0)),
    "(h) decode order out of range": lambda: _order_entries((1, 2)),
}


def _message(entry, tmp_path) -> str:
    """The message with which ``entry`` rejects its value: a callable's
    ``ValueError``, or the one ``error:`` line of a command that exits 2."""
    if callable(entry):
        with pytest.raises(ValueError) as info:
            entry()
        return str(info.value)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*entry, "--out", str(tmp_path / "out.csv")])
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), (entry, code, lines)
    return lines[0][len("error: "):]


@pytest.mark.parametrize("case", list(CASES))
def test_one_message_per_rule(case, tmp_path):
    messages = {name: _message(entry, tmp_path) for name, entry in CASES[case]().items()}
    assert len(set(messages.values())) == 1, messages


@pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["negative", "two-to-the-64"])
def test_seed_range_shares_its_reason(seed, tmp_path):
    messages = {name: _message(entry, tmp_path) for name, entry in _seed_entries(seed).items()}
    assert all(f"must lie in [0, 2^64), got {seed}" in m for m in messages.values()), messages


def test_analytic_shape_errors_read_alike(tmp_path):
    """The two analytic reports of a two-stream shape reject (1, 3) with
    one error line."""
    coefficient = _message(["analytic", "coefficient", "--nt", "1", "--nr", "3"], tmp_path)
    quadrature = _message(["analytic", "quadrature", "--nt", "1", "--nr", "3", "--x-grid", "0.1,0.2"], tmp_path)
    assert coefficient == quadrature == "need 1 <= L <= n_t, got L = 2 and n_t = 1"

