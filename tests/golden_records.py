"""Golden records of the contract's outputs, under ``tests/golden/``.

Each record is an output of the package that the contract reads, so a
change that moves any of them shows as a failed test and a diff of a
committed file:

- ``verification_rows.json``: the rows of
  ``run_verification("full", 20250809, workers=2)``, every field but
  ``seconds`` (asserted in ``test_acceptance.py`` from its module run);
- ``analytic_selftest.json``: the ``antsel analytic selftest`` report;
- ``analytic_quadrature.json`` and ``analytic_quadrature_restricted.json``:
  the ``antsel analytic quadrature`` report of the README grid, without
  and with ``--restricted``;
- ``outage_closed_forms.json``: ``pr_outage_quadrature`` and
  ``random_pair_outage`` on fixed shapes and thresholds, as ``float.hex``.

The CLI reports are compared byte for byte; the others as parsed JSON,
whose floats are exact.  Like the golden counts, the records are
bit-exact on one numpy and BLAS build.  A change that moves a record
re-pins it (``python tests/golden_records.py`` rewrites every record)
and lists old -> new in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import numpy as np

from antsel import analytic, cli, verify

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 20250809

#: File name -> argv of each CLI report, without ``--out``.
CLI_REPORTS = {
    "analytic_selftest.json": ["analytic", "selftest"],
    "analytic_quadrature.json": ["analytic", "quadrature", "--nt", "3", "--nr", "3",
                                 "--x-grid", "logspace:1e-4,1e-2,25"],
    "analytic_quadrature_restricted.json": ["analytic", "quadrature", "--nt", "3", "--nr", "3",
                                            "--x-grid", "logspace:1e-4,1e-2,25", "--restricted"],
}

#: (n_t, n_r) shapes and thresholds of the ``pr_outage_quadrature`` record.
QUADRATURE_SHAPES = ((2, 2), (3, 3), (4, 3), (5, 4), (3, 4))
QUADRATURE_THRESHOLDS = (*verify.QUADRATURE_SLOPE_GRID, 1e-3, 0.1, 1.0, 5.0, 50.0)
#: n_r values and thresholds of the ``random_pair_outage`` record.
PAIR_RECEIVE_COUNTS = (2, 3, 4, 5)
PAIR_THRESHOLDS = (1e-12, 1e-6, *verify.OUTAGE_GRID, 5.0, 1e6)


def table_rows(outcomes) -> list[dict]:
    """The rows of a verification table without their ``seconds``, as JSON
    values."""
    return [{"name": o.name, "passed": o.passed, "gating": o.gating, "detail": o.detail,
             "criteria": list(o.criteria)} for o in outcomes]


def closed_forms() -> dict:
    """Both closed-form outage curves on their record's inputs, every float
    as ``float.hex``."""
    def hexes(values):
        return [float(v).hex() for v in np.atleast_1d(values)]

    return {
        "pr_outage_quadrature": [
            {"n_t": n_t, "n_r": n_r, "restricted": restricted, "x": hexes(QUADRATURE_THRESHOLDS),
             "outage": hexes(analytic.pr_outage_quadrature(np.array(QUADRATURE_THRESHOLDS), n_t, n_r,
                                                           restricted=restricted))}
            for n_t, n_r in QUADRATURE_SHAPES for restricted in (False, True)],
        "random_pair_outage": [
            {"n_r": n_r, "x": hexes(PAIR_THRESHOLDS),
             "outage": hexes(analytic.random_pair_outage(np.array(PAIR_THRESHOLDS), n_r))}
            for n_r in PAIR_RECEIVE_COUNTS],
    }


def dumps(value) -> str:
    return json.dumps(value, indent=2) + "\n"


def read(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def main() -> int:
    """Rewrite every record from the installed package."""
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CLI_REPORTS.items():
        if cli.main([*argv, "--out", str(GOLDEN / name)]) != 0:
            raise SystemExit(f"{name}: the command failed")
    (GOLDEN / "outage_closed_forms.json").write_text(dumps(closed_forms()), encoding="utf-8")
    rows = table_rows(verify.run_verification("full", SEED, workers=2))
    (GOLDEN / "verification_rows.json").write_text(dumps(rows), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
