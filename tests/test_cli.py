import ast
import csv
import dataclasses
import importlib.metadata
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from antsel.channel import RNG_LAYOUT, SingularMatrixError
from antsel.cli import _library_versions, main, parse_grid, UsageError
from antsel.montecarlo import EmpiricalCurve, fit_slope
from antsel.verify import ber_ordering_measurement, check_ber_ordering


LIBRARY_VERSIONS = {
    "python": platform.python_version(),
    "numpy": importlib.metadata.version("numpy"),
}


def read_curve_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


class TestGridParsing:
    def test_comma_list(self):
        assert parse_grid("0.1, 0.2,0.5") == (0.1, 0.2, 0.5)

    def test_logspace(self):
        vals = parse_grid("logspace:1e-3,1,25")
        assert len(vals) == 25
        assert vals[0] == pytest.approx(1e-3)
        assert vals[-1] == pytest.approx(1.0)

    def test_linspace(self):
        assert parse_grid("linspace:0,30,7") == tuple(np.linspace(0, 30, 7))

    def test_decreasing_rejected(self):
        with pytest.raises(UsageError):
            parse_grid("0.5,0.1")

    def test_garbage_rejected(self):
        with pytest.raises(UsageError):
            parse_grid("logspace:1e-3,1")
        with pytest.raises(UsageError):
            parse_grid("one,two")
        for spec in ("0.1,nan", "nan", "0.1,inf", "-inf,0.1", "logspace:1e-3,inf,5", "linspace:0,nan,3"):
            with pytest.raises(UsageError, match="finite"):
                parse_grid(spec)

    @pytest.mark.parametrize("spec,positive,message", [
        ("logspace:1e-3,1,1", False, "at least 2 points"),
        ("linspace:0,1,0", False, "at least 2 points"),
        ("logspace:0,1,5", False, "positive start"),
        ("logspace:-1,1,5", False, "positive start"),
        (",", False, "is empty"),
        (" , ,", False, "is empty"),
        ("0,0.1", True, "must be positive"),
        ("-0.5,0.1", True, "must be positive"),
    ], ids=["count-one", "count-zero", "zero-log-start", "negative-log-start", "empty-list", "blank-list",
            "zero-outage-point", "negative-outage-point"])
    def test_rejections_name_their_reason(self, spec, positive, message):
        with pytest.raises(UsageError, match=message):
            parse_grid(spec, require_positive=positive)


class TestOutageCommand:
    def run_outage(self, tmp_path, name="curve.csv", extra=(), seed="9"):
        out = tmp_path / name
        code = main([
            "outage", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin",
            "--trials", "20000", "--seed", seed, "--x-grid", "logspace:0.02,0.5,12",
            "--out", str(out), *extra,
        ])
        assert code == 0
        return out

    def test_csv_format_and_monotone_probability(self, tmp_path):
        out = self.run_outage(tmp_path)
        rows = read_curve_csv(out)
        assert list(rows[0].keys()) == ["x", "hits", "trials", "p_hat", "stderr"]
        p = [float(r["p_hat"]) for r in rows]
        assert all(b >= a for a, b in zip(p, p[1:]))

    def test_manifest_roundtrip_refit(self, tmp_path):
        out = self.run_outage(tmp_path)
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        rows = read_curve_csv(out)
        curve = EmpiricalCurve(
            tuple(float(r["x"]) for r in rows),
            tuple(int(r["hits"]) for r in rows),
            tuple(int(r["trials"]) for r in rows),
        )
        # the manifest holds every field of the refit, through JSON
        assert manifest["slope_fit"] == json.loads(json.dumps(dataclasses.asdict(fit_slope(curve, min_hits=10))))
        assert manifest["config"]["master_seed"] == 9
        assert manifest["config"]["grid"] == [float(r["x"]) for r in rows]
        assert manifest["effective_chunk_size"] == manifest["config"]["chunk_size"] == 100_000
        assert manifest["library_versions"] == LIBRARY_VERSIONS

    def test_bit_identical_reruns_and_workers(self, tmp_path):
        a = self.run_outage(tmp_path, "a.csv")
        b = self.run_outage(tmp_path, "b.csv")
        c = self.run_outage(tmp_path, "c.csv", extra=("--workers", "2", "--chunk-size", "6000"))
        d = self.run_outage(tmp_path, "d.csv", extra=("--workers", "1", "--chunk-size", "6000"))
        assert a.read_bytes() == b.read_bytes()
        assert c.read_bytes() == d.read_bytes()

    def test_random_rule_dominated_by_maxmin(self, tmp_path):
        mm = self.run_outage(tmp_path, "mm.csv")
        out = tmp_path / "rnd.csv"
        assert main([
            "outage", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "random",
            "--trials", "20000", "--seed", "9", "--x-grid", "logspace:0.02,0.5,12",
            "--out", str(out),
        ]) == 0
        p_mm = [float(r["p_hat"]) for r in read_curve_csv(mm)]
        p_rnd = [float(r["p_hat"]) for r in read_curve_csv(out)]
        assert all(a <= b for a, b in zip(p_mm, p_rnd))

    def test_malformed_grid_exits_two(self, tmp_path):
        code = main([
            "outage", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin",
            "--trials", "100", "--x-grid", "0.5,0.1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        # non-finite points are usage errors for every grid flag, and write nothing
        for argv in (
            ["outage", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin",
             "--trials", "1000", "--x-grid", "0.1,nan", "--out", str(tmp_path / "n.csv")],
            ["ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--snr-db", "nan",
             "--frames", "10", "--out", str(tmp_path / "n.csv")],
            ["analytic", "quadrature", "--nt", "3", "--nr", "3", "--x-grid", "0.1,nan",
             "--out", str(tmp_path / "n.json")],
        ):
            assert main(argv) == 2
        assert list(tmp_path.iterdir()) == []

    def test_zero_min_hits_exits_two(self, tmp_path, monkeypatch, capsys):
        # the hit floor is checked before the run, which once ran every trial first
        monkeypatch.setattr("antsel.cli.estimate_outage", never)
        assert main(outage_argv(tmp_path / "x.csv", "--min-hits", "0")) == 2
        assert capsys.readouterr().err == "error: min_hits must be at least 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_workers_exit_two(self, tmp_path, capsys):
        assert main(outage_argv(tmp_path / "x.csv", "--workers", "-3")) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANTSEL_SEED", "777")
        out = tmp_path / "env.csv"
        assert main([
            "outage", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin",
            "--trials", "1000", "--x-grid", "0.1,0.2", "--out", str(out),
        ]) == 0
        manifest = json.loads((tmp_path / "env.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 777


class TestBerCommand:
    def test_extreme_snr_all_zero(self, tmp_path):
        out = tmp_path / "ber.csv"
        assert main([
            "ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "qr-greedy",
            "--receiver", "df-zf", "--snr-db", "80,90", "--frames", "200",
            "--frame-symbols", "10", "--seed", "4", "--out", str(out),
        ]) == 0
        rows = read_curve_csv(out)
        assert list(rows[0].keys()) == ["snr_db", "bit_errors", "bits", "ber"]
        assert all(int(r["bit_errors"]) == 0 for r in rows)

    def test_manifest_records_effective_chunk_and_versions(self, tmp_path):
        out = tmp_path / "ber.csv"
        assert main([
            "ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--snr-db", "10",
            "--frames", "50", "--frame-symbols", "1000", "--chunk-size", "5000", "--seed", "4",
            "--out", str(out),
        ]) == 0
        manifest = json.loads((tmp_path / "ber.csv.manifest.json").read_text())
        # 2 * 10^6 received samples per chunk over 3 rows x 1000 symbols
        assert manifest["config"]["chunk_size"] == 5000
        assert manifest["effective_chunk_size"] == 666
        assert manifest["library_versions"] == LIBRARY_VERSIONS

    def test_manifests_own_their_version_dicts(self):
        # the versions are read once per process; each manifest gets a dict of its own
        first = _library_versions()
        first["numpy"] = "edited"
        second = _library_versions()
        assert second == LIBRARY_VERSIONS
        assert second is not _library_versions()

    @pytest.mark.parametrize("grid,point", [("10,4000", "4000.0"), ("-4000,10", "-4000.0")], ids=["4000", "-4000"])
    def test_snr_without_a_linear_value_exits_two(self, tmp_path, capsys, grid, point):
        out = tmp_path / "ber.csv"
        assert main(["ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "qr-greedy",
                     f"--snr-db={grid}", "--frames", "10", "--out", str(out)]) == 2
        assert f"SNR point {point} dB" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_receiver_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "qr-greedy",
                "--receiver", "turbo", "--snr-db", "10", "--frames", "10",
                "--out", str(tmp_path / "z.csv"),
            ])
        assert exc.value.code == 2

    def test_figure_style_ordering_comparison(self, tmp_path):
        # greedy selection beats first-layer selection under decision feedback
        bers = {}
        for rule in ("qr-greedy", "first-fixed"):
            out = tmp_path / f"{rule}.csv"
            assert main([
                "ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", rule,
                "--receiver", "df-zf", "--snr-db", "14", "--frames", "30000",
                "--seed", "21", "--out", str(out),
            ]) == 0
            row = read_curve_csv(out)[0]
            bers[rule] = (int(row["bit_errors"]), int(row["bits"]))
        ber = ber_ordering_measurement(14.0, bers["qr-greedy"], bers["first-fixed"])
        outcome = check_ber_ordering(ber)
        assert outcome.passed, outcome.detail


class TestAnalyticCommand:
    def test_coefficient_report(self, tmp_path, capsys):
        assert main(["analytic", "coefficient", "--nt", "3", "--nr", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["M"] == 4
        assert payload["leading"] == pytest.approx(1 / 120, rel=1e-12)

    def test_dmt_table(self, tmp_path, capsys):
        assert main(["analytic", "dmt", "--nt", "3", "--nr", "3", "--L", "2", "--r-grid", "0,1,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["d"] for p in payload["points"]] == [4.0, 2.0, 0.0]

    def test_quadrature_report(self, tmp_path):
        out = tmp_path / "quad.json"
        assert main(["analytic", "quadrature", "--nt", "3", "--nr", "3",
                     "--x-grid", "logspace:1e-4,1e-2,9", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["loglog_slope"] == pytest.approx(4.0, abs=0.05)

    def test_quadrature_slope_of_a_shallow_grid(self, capsys):
        assert main(["analytic", "quadrature", "--nt", "3", "--nr", "3", "--x-grid", "1e-5,1e-4,1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["loglog_slope"] == pytest.approx(4.0, abs=1e-3)

    def test_quadrature_underflow_exits_two(self, tmp_path, capsys):
        # the quadrature reads 0.0 at 1e-90 and a subnormal at 1e-80: no slope to fit
        out = tmp_path / "quad.json"
        assert main(["analytic", "quadrature", "--nt", "3", "--nr", "3", "--x-grid", "1e-90,1e-80,1e-70",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "probability at x = 1e-90" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_quadrature_of_one_point_exits_two_before_the_quadrature(self, tmp_path, monkeypatch, capsys):
        # polyfit once fitted a slope through the one point, with a RankWarning
        monkeypatch.setattr("antsel.analytic.pr_outage_quadrature", never)
        out = tmp_path / "quad.json"
        assert main(["analytic", "quadrature", "--nt", "3", "--nr", "3", "--x-grid", "0.1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: a slope needs at least 2 distinct thresholds, got 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_quadrature_that_underflows_at_a_shallow_point_exits_two(self, tmp_path, capsys):
        # at (12, 12), m = 121 and 121 x^121 is 0.0 at x = 1e-4, where the
        # tail's integrand overflows: a probability of 0.0, not a failure
        out = tmp_path / "quad.json"
        assert main(["analytic", "quadrature", "--nt", "12", "--nr", "12", "--x-grid", "1e-4,1e-3,1e-2",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "quadrature probability at x = 0.0001 is 0.0, below the smallest normal float" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_quadrature_past_saturation(self, capsys):
        # the Gamma law is 1.0 in double precision at both points, so both
        # probabilities are exactly 1
        assert main(["analytic", "quadrature", "--nt", "3", "--nr", "3", "--x-grid", "1e6,1e7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["probability"] for p in payload["points"]] == [1.0, 1.0]
        assert payload["loglog_slope"] == pytest.approx(0.0, abs=1e-12)

    def test_selftest_passes(self, capsys):
        assert main(["analytic", "selftest"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_invalid_dimensions_exit_two(self, capsys):
        assert main(["analytic", "coefficient", "--nt", "1", "--nr", "3"]) == 2


class TestVerifyPlumbing:
    def test_bad_scale_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scale", "huge"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("gating, code, result", [(True, 1, "FAIL"), (False, 0, "PASS")])
    def test_only_gating_rows_fail_the_run(self, monkeypatch, capsys, gating, code, result):
        from antsel import verify

        rows = [verify.CheckOutcome("holds", True, True, "ok"), verify.CheckOutcome("breaks", False, gating, "bad")]
        monkeypatch.setattr(verify, "run_verification", lambda **kwargs: rows)
        assert main(["verify", "--seed", "3"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"result: {result}"
        assert ("FAIL" if gating else "info") in lines[2]

    def test_mutated_angle_law_is_detected(self, monkeypatch):
        # stand-in for an injected-bug build: a wrong angle-law exponent
        # must fail the marginal KS check
        import antsel.analytic as analytic_mod
        from antsel import verify

        true_cdf = analytic_mod.theta_cdf
        monkeypatch.setattr(analytic_mod, "theta_cdf", lambda t, n_r: true_cdf(t, n_r + 1))
        pv_h, pv_a = verify.marginal_ks_pvalues(3, 20_000, seed=0)
        assert pv_a < 0.01
        assert pv_h > 0.01  # the height law is untouched


def outage_argv(out, *extra):
    return ["outage", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--trials", "2000",
            "--x-grid", "logspace:0.05,0.5,6", "--out", str(out), *extra]


@pytest.mark.parametrize("command", ["outage", "ber"])
def test_manifest_records_the_rng_layout(tmp_path, command):
    out = tmp_path / "run.csv"
    argv = outage_argv(out) if command == "outage" else [
        "ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--snr-db", "10",
        "--frames", "50", "--frame-symbols", "10", "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["rng_layout"] == RNG_LAYOUT == 2


@pytest.mark.parametrize("engine", ["estimate_outage", "estimate_ber"])
def test_runtime_failure_exits_one(tmp_path, monkeypatch, capsys, engine):
    def broken(*args, **kwargs):
        raise RuntimeError("engine broke")

    monkeypatch.setattr(f"antsel.cli.{engine}", broken)
    out = tmp_path / "run.csv"
    argv = outage_argv(out) if engine == "estimate_outage" else [
        "ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--snr-db", "10",
        "--frames", "50", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "failure: engine broke\n"
    assert list(tmp_path.iterdir()) == []


def engine_argv(engine, out):
    """A command that runs ``engine`` and writes to ``out``."""
    return outage_argv(out) if engine == "estimate_outage" else [
        "ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--snr-db", "10",
        "--frames", "50", "--out", str(out)]


def never(*args, **kwargs):
    raise AssertionError("the computation ran")


ENGINES = ["estimate_outage", "estimate_ber"]
#: The work each ``analytic`` report runs, and the report's arguments.
REPORTS = pytest.mark.parametrize("work,argv", [
    ("antsel.analytic.outage_coefficient", ["coefficient", "--nt", "3", "--nr", "3"]),
    ("antsel.analytic.quadrature_slope", ["quadrature", "--nt", "3", "--nr", "3", "--x-grid", "0.1,0.2"]),
    ("antsel.analytic.dmt_curve", ["dmt", "--nt", "3", "--nr", "3", "--L", "2", "--r-grid", "0,1"]),
    ("antsel.verify.analytic_selftest", ["selftest"]),
], ids=["coefficient", "quadrature", "dmt", "selftest"])


@pytest.mark.parametrize("engine", ENGINES)
def test_missing_output_directory_exits_two_before_the_run(tmp_path, monkeypatch, capsys, engine):
    monkeypatch.setattr(f"antsel.cli.{engine}", never)
    missing = tmp_path / "missing"
    assert main(engine_argv(engine, missing / "run.csv")) == 2
    assert capsys.readouterr().err == f"error: output directory {str(missing)!r} does not exist\n"
    assert list(tmp_path.iterdir()) == []


@REPORTS
def test_missing_output_directory_exits_two_before_the_report(tmp_path, monkeypatch, capsys, work, argv):
    monkeypatch.setattr(work, never)
    missing = tmp_path / "missing"
    assert main(["analytic", *argv, "--out", str(missing / "report.json")]) == 2
    assert capsys.readouterr().err == f"error: output directory {str(missing)!r} does not exist\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("engine", ENGINES)
def test_directory_as_output_path_exits_two_before_the_run(tmp_path, monkeypatch, capsys, engine):
    monkeypatch.setattr(f"antsel.cli.{engine}", never)
    assert main(engine_argv(engine, tmp_path)) == 2
    assert capsys.readouterr().err == f"error: output path {str(tmp_path)!r} is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("engine", ENGINES)
def test_directory_as_manifest_path_exits_two_before_the_run(tmp_path, monkeypatch, capsys, engine):
    # the CSV was once written before the manifest failed to open
    monkeypatch.setattr(f"antsel.cli.{engine}", never)
    manifest = tmp_path / "run.csv.manifest.json"
    manifest.mkdir()
    assert main(engine_argv(engine, tmp_path / "run.csv")) == 2
    assert capsys.readouterr().err == f"error: manifest path {str(manifest)!r} is a directory\n"
    assert list(tmp_path.iterdir()) == [manifest]


@REPORTS
def test_directory_as_output_path_exits_two_before_the_report(tmp_path, monkeypatch, capsys, work, argv):
    monkeypatch.setattr(work, never)
    assert main(["analytic", *argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: output path {str(tmp_path)!r} is a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_singular_frame_exits_two(tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise SingularMatrixError("column 0 of a block lies in the span of the later columns up to rounding")

    monkeypatch.setattr("antsel.cli.estimate_ber", singular)
    argv = ["ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "maxmin", "--snr-db", "10",
            "--frames", "50", "--out", str(tmp_path / "run.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: column 0 of a block")
    assert list(tmp_path.iterdir()) == []


class TestSeedRange:
    """Seeds are read as one 64-bit word: out of range, or an environment
    seed that is not an integer, is a usage error."""

    @pytest.mark.parametrize("flag,env,message", [
        ("--seed=-1", None, "must lie in [0, 2^64)"),
        ("--seed=18446744073709551616", None, "must lie in [0, 2^64)"),
        (None, "-3", "must lie in [0, 2^64)"),
        (None, "seven", "ANTSEL_SEED must be an integer, got 'seven'"),
    ], ids=["negative-flag", "two-to-the-64-flag", "negative-env", "non-integer-env"])
    def test_out_of_range_seed_exits_two(self, tmp_path, monkeypatch, capsys, flag, env, message):
        if env is not None:
            monkeypatch.setenv("ANTSEL_SEED", env)
        out = tmp_path / "x.csv"
        assert main(outage_argv(out, *([flag] if flag else []))) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_verify_rejects_a_seed_before_running_any_row(self, monkeypatch, capsys):
        from antsel import verify

        monkeypatch.setattr(verify, "quadrature_anchor_ratio", lambda *args: pytest.fail("a row ran"))
        assert main(["verify", "--seed=-1"]) == 2
        assert "must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_verify_rejects_workers_before_running_any_row(self, monkeypatch, capsys, workers):
        from antsel import verify

        monkeypatch.setattr(verify, "quadrature_anchor_ratio", lambda *args: pytest.fail("a row ran"))
        assert main(["verify", f"--workers={workers}"]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err


def test_consecutive_calls_match_separate_processes(tmp_path, monkeypatch):
    # the parser is built once per process; a rejected argv in between
    # leaves nothing behind for the next call
    import antsel
    from antsel.cli import build_parser

    calls = [
        outage_argv("{dir}/a.csv", "--seed", "4"),
        ["ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "qr-greedy", "--snr-db", "6,12", "--frames", "300",
         "--frame-symbols", "10", "--seed", "4", "--out", "{dir}/b.csv"],
        ["outage", "--nt", "3", "--rule", "maxmin", "--out", "{dir}/c.csv"],
        outage_argv("{dir}/d.csv", "--seed=-1"),
        outage_argv("{dir}/e.csv", "--seed", "5", "--min-hits", "3"),
        ["ber", "--nt", "3", "--nr", "3", "--L", "2", "--rule", "first-fixed", "--receiver", "df-mmse",
         "--snr-db", "8", "--frames", "200", "--frame-symbols", "10", "--out", "{dir}/f.csv"],
    ]

    def run_all(run, folder):
        folder.mkdir()
        codes = [run([a.format(dir=folder) for a in argv]) for argv in calls]
        return codes, {p.name: p.read_bytes() for p in sorted(folder.glob("*.csv"))}

    def in_process(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    monkeypatch.delenv("ANTSEL_SEED", raising=False)
    src = os.path.dirname(os.path.dirname(os.path.abspath(antsel.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def separate(argv):
        return subprocess.run([sys.executable, "-m", "antsel", *argv], env=env, capture_output=True,
                              timeout=120).returncode

    together = run_all(in_process, tmp_path / "together")
    assert together == run_all(separate, tmp_path / "apart")
    assert together[0] == [0, 0, 2, 2, 0, 0]
    assert build_parser() is build_parser()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_package_imports_no_scipy():
    # a static guard over every module, so it also covers code that no subprocess test runs
    import antsel

    found = []
    for path in sorted(pathlib.Path(antsel.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_import_loads_no_scipy():
    # the package needs numpy alone, and scipy costs about a second to import.
    # The process pool costs 12-15 ms and is loaded only when a run uses more than one worker.
    import antsel

    src = os.path.dirname(os.path.dirname(os.path.abspath(antsel.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import antsel.cli, antsel.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')"
            " or m == 'concurrent.futures.process'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_analytic_path_loads_no_scipy_integrate(tmp_path):
    # the quadrature, the Gamma CDF and E_1 are in-house: the self-test, the
    # quadrature slope, random's exact curve and the quadrature command load
    # neither scipy.integrate nor scipy.special
    import antsel

    src = os.path.dirname(os.path.dirname(os.path.abspath(antsel.__file__)))
    out = tmp_path / "quad.json"
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "from antsel import analytic, cli, verify\n"
            "assert all(o.passed for o in verify.analytic_selftest())\n"
            "analytic.quadrature_slope([1e-3, 1e-2], 3, 3)\n"
            "analytic.random_pair_outage(0.1, 3)\n"
            "argv = ['analytic', 'quadrature', '--nt', '3', '--nr', '3', '--x-grid', '1e-3,1e-2']\n"
            f"assert cli.main([*argv, '--out', {str(out)!r}]) == 0\n"
            "print('scipy.integrate' in sys.modules, 'scipy.special' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False False"


@pytest.mark.parametrize("argv", [["analytic", "selftest"],
                                  ["analytic", "quadrature", "--nt", "3", "--nr", "3", "--x-grid", "1e-3,1e-2"],
                                  ["verify", "--scale", "quick"]],
                         ids=["selftest", "quadrature", "verify"])
def test_analytic_commands_run_with_scipy_unimportable(argv):
    import antsel

    src = os.path.dirname(os.path.dirname(os.path.abspath(antsel.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from antsel import cli\n"
            f"sys.exit(cli.main({argv!r}))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_verify_loads_no_scipy():
    # neither the first timed row nor any later one sees a scipy module
    import antsel

    src = os.path.dirname(os.path.dirname(os.path.abspath(antsel.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "from antsel import verify\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "anchor, seen = verify.quadrature_anchor_ratio, []\n"
            "def first_rows(*args):\n"
            "    seen.append(loaded())\n"
            "    return anchor(*args)\n"
            "verify.quadrature_anchor_ratio = first_rows\n"
            "assert all(o.passed for o in verify.run_verification('quick') if o.gating)\n"
            "print(seen[0], loaded())\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] []"
