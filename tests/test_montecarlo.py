import dataclasses
import itertools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from qr_oracle import reference_columns, reference_scalar

from antsel import montecarlo, selection, verify
from antsel.analytic import chi2n_cdf, pr_outage_quadrature, random_pair_outage, theta_cdf
from antsel.channel import complex_gaussian, gram_inverse_diag, projection_height_sq, stream_generator
from antsel.montecarlo import (
    EmpiricalCurve,
    ExperimentConfig,
    FitError,
    _apply_ordering,
    _ber_chunk,
    _ber_chunk_size,
    _ks_test,
    _outage_chunk,
    estimate_ber,
    estimate_dmt_gains,
    estimate_outage,
    fit_slope,
    independence_suite,
    lemma_harness,
    pair_angle,
)
from antsel.receivers import (
    FEEDBACK_MODES,
    ORDERING_MODES,
    RECEIVERS,
    LinkBudget,
    detect_df,
    detect_grid,
    qpsk_demodulate,
    qpsk_modulate,
    qpsk_slice,
    simulate_frame,
    stage_matrices,
)
from antsel.selection import (
    RULES,
    _gram,
    _lattice_heights,
    _lattice_max,
    _pair_table,
    _rule_pass,
    _subsets,
    enumerate_subsets,
    select_block,
    subset_metrics,
)

GRID = tuple(np.geomspace(0.02, 0.5, 16))

# (3,3,2) keeps the bare rule as its id; the general-L cases name their dimensions
PER_DRAW_CASES = [pytest.param(rule, (3, 3, 2), id=rule) for rule in RULES] + [
    pytest.param(rule, dims, id=f"{rule}-{dims[0]}x{dims[1]}x{dims[2]}")
    for dims, rules in (((5, 5, 3), ("maxmin", "random", "qr-greedy")),
                        ((6, 6, 4), ("maxmin", "random", "qr-greedy")),
                        ((5, 4, 2), RULES),
                        ((8, 8, 4), ("qr-greedy",)))
    for rule in rules
]


#: (receiver, feedback, L); the L = 2 cases keep "receiver-feedback" as their id
FAST_PATH_CASES = [
    pytest.param(receiver, feedback, L, id=f"{receiver}-{feedback}" + ("" if L == 2 else f"-L{L}"))
    for L in (2, 3) for receiver in ("zf", "mmse", "df-zf", "df-mmse") for feedback in ("actual", "genie")
]


#: (receiver, feedback, L) of the SNR-grid test; the L = 2 actual-feedback
#: cases keep the bare receiver as their id
GRID_CASES = [pytest.param(receiver, "actual", 2, id=receiver) for receiver in ("zf", "mmse", "df-zf", "df-mmse")] + [
    pytest.param("df-zf", "genie", 2, id="df-zf-genie"),
    pytest.param("df-mmse", "genie", 2, id="df-mmse-genie"),
    pytest.param("df-mmse", "actual", 3, id="df-mmse-L3"),
    pytest.param("df-mmse", "genie", 3, id="df-mmse-genie-L3"),
]


def nulling_oracle(H, y, rho0, receiver, feedback, transmitted):
    """Per-frame reference detector, columns of ``H`` in decode order.

    Stage s nulls the columns s..L-1 with the first row of the
    pseudo-inverse (ZF) or of inv(G + (L / rho0) I) H^H (MMSE), slices,
    and subtracts the sliced or true symbol from the received block;
    the linear receivers slice every row of the full nulling matrix.
    """
    L = H.shape[1]
    scale = math.sqrt(rho0 / L)

    def nulling(sub):
        if receiver in ("zf", "df-zf"):
            return np.linalg.pinv(sub)
        gram = sub.conj().T @ sub
        return np.linalg.inv(gram + (L / rho0) * np.eye(sub.shape[1])) @ sub.conj().T

    if receiver in ("zf", "mmse"):
        return qpsk_slice(nulling(H) @ y / scale)
    detected = np.empty((L, y.shape[1]), dtype=np.complex128)
    for stage in range(L):
        detected[stage] = qpsk_slice(nulling(H[:, stage:])[0] @ y / scale)
        fed_back = transmitted[stage] if feedback == "genie" else detected[stage]
        y = y - scale * np.outer(H[:, stage], fed_back)
    return detected


def received_block_detector(Heff, y, budget, receiver, feedback, transmitted):
    """Batched reference detector in the received-block domain: the
    stage matrices V of ``stage_matrices`` applied to the matched-filter
    output Heff^H y / s, then decision feedback that takes the leak times
    the sliced (or, under genie feedback, the true) symbol of each stage
    off the later stages.  Returns the (B, L, T) detected symbols."""
    Heff_h = Heff.conj().transpose(0, 2, 1)
    lam = budget.L / budget.rho0 if receiver in ("mmse", "df-mmse") else 0.0
    V, leak = stage_matrices(Heff_h @ Heff, receiver, lam)
    est = V @ ((Heff_h @ y) * (1.0 / budget.stream_scale))
    for stage in range(0 if leak is None else budget.L - 1):
        fed_back = transmitted[:, stage] if feedback == "genie" else qpsk_slice(est[:, stage])
        est[:, stage + 1:] -= leak[:, stage + 1:, stage, None] * fed_back[:, None, :]
    return qpsk_slice(est)


def lattice_table(H, L):
    """(C(n_t, L), B) worst-stream heights gathered from the lattice's blocks."""
    table = np.full((math.comb(H.shape[2], L), H.shape[0]), np.nan)
    for first, heights in _lattice_heights(_gram(H), L):
        assert np.isnan(table[first:first + len(heights)]).all()
        table[first:first + len(heights)] = heights
    assert not np.isnan(table).any()
    return table


def outage_config(rule, trials=20_000, seed=0, grid=GRID, **kw):
    return ExperimentConfig(n_t=3, n_r=3, L=2, rule=rule, trial_count=trials,
                            master_seed=seed, grid=grid, **kw)


class TestConfigValidation:
    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            outage_config("best-effort")

    def test_first_layer_needs_two_streams(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_t=4, n_r=4, L=3, rule="first-fixed", trial_count=10,
                             master_seed=0, grid=(0.1,))

    def test_decreasing_grid(self):
        with pytest.raises(ValueError):
            outage_config("maxmin", grid=(0.5, 0.1))

    @pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_point(self, point):
        with pytest.raises(ValueError, match="finite"):
            outage_config("maxmin", grid=(0.1, point))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            estimate_outage(outage_config("maxmin", trials=10), workers=workers)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["negative", "two-to-the-64"])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            outage_config("maxmin", seed=seed)

    def test_largest_seed(self):
        assert estimate_outage(outage_config("maxmin", trials=10, seed=2 ** 64 - 1)).trials[0] == 10

    @pytest.mark.parametrize("field,value,message", [
        ("ordering", "diagonal", "unknown ordering 'diagonal'"),
        ("chunk_size", 0, "chunk_size must be positive, got 0"),
        ("frame_symbols", 0, "frame_symbols must be positive, got 0"),
    ], ids=["ordering", "chunk-size", "frame-symbols"])
    def test_field_out_of_range(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            outage_config("maxmin", **{field: value})

    def test_curve_invariants(self):
        with pytest.raises(ValueError):
            EmpiricalCurve((0.1,), (5,), (3,))
        with pytest.raises(ValueError, match="abscissa, hits and trials must have equal length"):
            EmpiricalCurve((0.1, 0.2), (1,), (3,))

    def test_curve_without_trials_is_named(self):
        # p_hat would divide 0 by 0
        with pytest.raises(ValueError, match=r"trials must be at least 1 at every point, got \(0, 0, 0\)"):
            EmpiricalCurve((0.1, 0.2, 0.3), (0, 0, 0), (0, 0, 0))


class TestOutageEngine:
    def test_curve_is_monotone(self):
        curve = estimate_outage(outage_config("maxmin", trials=5_000))
        assert all(b >= a for a, b in zip(curve.hits, curve.hits[1:]))

    def test_saturated_threshold(self):
        curve = estimate_outage(outage_config("random", trials=10_000, grid=(1e3,)))
        assert curve.hits[0] / curve.trials[0] >= 0.999

    @pytest.mark.parametrize("rule,dims", PER_DRAW_CASES)
    def test_engine_matches_per_draw_api(self, rule, dims):
        # regenerate the chunk's channel block and replay the rules on the QR route
        n_t, n_r, L = dims
        rng = stream_generator(33, 0)
        H = complex_gaussian(rng, (300, n_r, n_t))
        scalars = _rule_pass((rule,), H.copy(), L, rng)[0]
        rng_replay = stream_generator(33, 0)
        H_replay = complex_gaussian(rng_replay, (300, n_r, n_t))
        subsets = enumerate_subsets(n_t, L)
        if rule == "random":
            idx = rng_replay.integers(0, len(subsets), size=300)
        for b in range(300):
            if rule == "random":
                expected = subset_metrics(H_replay[b], subsets[idx[b]]).min_height
            else:
                expected = reference_scalar(rule, H_replay[b], reference_columns(rule, H_replay[b], L))
            assert scalars[b] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("dims", [(5, 5, 3), (6, 6, 4)], ids=["5x5x3", "6x6x4"])
    def test_random_reads_the_lattice_entry_it_draws(self, dims):
        n_t, n_r, L = dims
        rng = stream_generator(34, 0)
        H = complex_gaussian(rng, (200, n_r, n_t))
        scalars = _rule_pass(("random",), H, L, rng)[0]
        rng_replay = stream_generator(34, 0)
        complex_gaussian(rng_replay, (200, n_r, n_t))
        idx = rng_replay.integers(0, math.comb(n_t, L), size=200)
        table = lattice_table(H, L)
        np.testing.assert_allclose(scalars, table[idx, np.arange(200)], rtol=1e-9)
        rank = np.empty(200, dtype=np.int64)
        np.testing.assert_array_equal(_lattice_max(_gram(H), L, rank), table.max(axis=0))
        np.testing.assert_array_equal(rank, table.argmax(axis=0))

    def test_lattice_passes_split_lanes_without_changing_results(self, pass_lanes):
        H = complex_gaussian(stream_generator(39, 0), (50, 5, 5))
        table = lattice_table(H, 3)
        widths = pass_lanes(7)
        np.testing.assert_array_equal(_rule_pass(("maxmin",), H, 3)[0], table.max(axis=0))
        np.testing.assert_array_equal(select_block("maxmin", H, 3), _subsets(5, 3)[table.argmax(axis=0)])
        assert max(widths) == 7

    def test_pair_table_and_greedy_split_lanes_without_changing_results(self, pass_lanes):
        H = complex_gaussian(stream_generator(41, 0), (50, 4, 5))
        def greedy(L):
            return _rule_pass(("qr-greedy",), H, L)[0], select_block("qr-greedy", H, L)

        table = _pair_table(H)
        whole = {L: greedy(L) for L in (2, 4)}
        widths = pass_lanes(7)
        for whole_part, split in zip(table, _pair_table(H)):
            np.testing.assert_array_equal(split, whole_part)
        for L, (scalars, cols) in whole.items():
            split_scalars, split_cols = greedy(L)
            np.testing.assert_array_equal(split_cols, cols)
            np.testing.assert_array_equal(split_scalars, scalars)
        assert max(widths) == 7

    @pytest.mark.parametrize("rule,L", [(rule, 2) for rule in selection.RULES]
                             + [("maxmin", 3), ("qr-greedy", 3), ("random", 3)])
    def test_chunk_draw_blocks_do_not_change_hits(self, pass_lanes, rule, L):
        # the chunk draws and reduces one block of channels at a time; seven-
        # channel blocks (100 is not a multiple of 7) and one block larger
        # than the chunk give the same hits.  random draws the chunk whole
        # and splits it into the same passes
        config = ExperimentConfig(n_t=4, n_r=3, L=L, rule=rule, trial_count=100, master_seed=48,
                                  grid=tuple(np.geomspace(0.3, 8.0, 30)))
        hits = []
        for block in (7, 105):
            widths = pass_lanes(block)
            hits.append(_outage_chunk(config, 2, 100, rules=(rule,))["hits"][0].tolist())
            assert max(widths) == min(block, 100)
        assert sum(0 < h < 100 for h in hits[0]) >= 5
        assert hits[0] == hits[1]

    def test_hits_count_the_values_at_or_below_each_point(self):
        # values on grid points count there; repeats count each time; -inf
        # counts everywhere, NaN nowhere, and a value above the grid nowhere
        grid = np.array([0.1, 0.5, 1.0, 2.0])
        rng = np.random.default_rng(5)
        values = np.concatenate([grid, grid[[1, 1, 3]], [-np.inf, -np.inf, np.nan, np.nan, 0.0, 7.0, np.inf],
                                 rng.uniform(-1.0, 3.0, 200)])
        rng.shuffle(values)
        hits = montecarlo._hits(grid, values)
        assert hits.dtype == np.int64
        np.testing.assert_array_equal(hits, [np.count_nonzero(values <= x) for x in grid])
        np.testing.assert_array_equal(hits, np.cumsum(np.bincount(np.searchsorted(grid, values), minlength=5))[:-1])
        np.testing.assert_array_equal(montecarlo._hits(grid, np.array([])), [0, 0, 0, 0])

    @pytest.mark.parametrize("rule", ["maxmin", "qr-greedy"])
    def test_chunk_memory_does_not_grow_with_trials(self, rule):
        # an (8,8,4) chunk holds one block of channels at a time and its
        # scalars; a whole 8x10^4-trial draw alone is 82 MB
        config = ExperimentConfig(n_t=8, n_r=8, L=4, rule=rule, trial_count=10, master_seed=49,
                                  grid=(1.0, 2.0))
        peaks = []
        for trials in (2 * 10 ** 4, 8 * 10 ** 4):
            tracemalloc.start()
            try:
                _outage_chunk(config, 0, trials, rules=(rule,))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_random_chunk_gathers_its_subsets_one_pass_at_a_time(self):
        # random draws the chunk's channels whole, since its ranks follow
        # them in the stream, but gathers the drawn columns pass by pass;
        # a whole-chunk gather adds half the draw again (1.56x)
        trials = 5 * 10 ** 4
        config = ExperimentConfig(n_t=8, n_r=8, L=4, rule="random", trial_count=10, master_seed=49, grid=(1.0, 2.0))
        tracemalloc.start()
        try:
            _outage_chunk(config, 0, trials, rules=("random",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * trials * 8 * 8 * 16, peak

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
    def test_chunks_keep_their_freed_blocks_mapped(self):
        # a fresh process, after one warm-up chunk: the arrays freed after each
        # block stay in the heap, where glibc's starting thresholds gave them
        # back and faulted in about 16k pages per (3,3,2) chunk again
        src = os.path.dirname(os.path.dirname(os.path.abspath(montecarlo.__file__)))
        code = (f"import resource, sys; sys.path.insert(0, {src!r})\n"
                "from antsel.montecarlo import ExperimentConfig, estimate_outage\n"
                "def run(trials):\n"
                "    estimate_outage(ExperimentConfig(n_t=3, n_r=3, L=2, rule='maxmin', trial_count=trials,"
                " master_seed=1, grid=(1.0,)))\n"
                "run(100_000)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "run(500_000)\n"
                "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 2000

    @pytest.mark.parametrize("libc", ["unloadable", "without-mallopt"])
    def test_heap_thresholds_are_left_alone_without_glibc(self, libc, monkeypatch):
        # the uncached body: a C library that will not load, or one without mallopt
        import ctypes

        asked = []

        def cdll(name):
            asked.append(name)
            if libc == "unloadable":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert montecarlo._keep_freed_heap.__wrapped__() is None
        assert asked == [None]

    def test_pair_rules_are_ordered_draw_by_draw(self):
        # first-ordered >= first-fixed >= maxmin >= random on common draws, exactly
        H = complex_gaussian(stream_generator(42, 0), (20_000, 3, 3))
        scalars = _rule_pass(("first-ordered", "first-fixed", "maxmin", "random"), H, 2, stream_generator(42, 1))
        for upper, lower in zip(scalars, scalars[1:]):
            assert np.all(upper >= lower)
        assert np.any(scalars[0] > scalars[1]) and np.any(scalars[2] > scalars[3])

    def test_greedy_allocates_far_less_than_the_channel_block(self):
        H = complex_gaussian(stream_generator(43, 0), (30_000, 8, 8))
        tracemalloc.start()
        try:
            select_block("qr-greedy", H, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the Gram matrix and its Cholesky rows live one lane pass at a time;
        # projecting the whole block at every step took more than H itself
        assert peak < H.nbytes / 3

    @pytest.mark.parametrize("rule", ["maxmin", "random", "qr-greedy"])
    def test_single_stream_heights_are_column_norms(self, rule):
        rng = stream_generator(35, 0)
        H = complex_gaussian(rng, (100, 3, 4))
        scalars = _rule_pass((rule,), H, 1, rng)[0]
        norms = np.sum(np.abs(H) ** 2, axis=1)
        if rule == "random":
            rng_replay = stream_generator(35, 0)
            complex_gaussian(rng_replay, (100, 3, 4))
            expected = norms[np.arange(100), rng_replay.integers(0, 4, size=100)]
        else:
            expected = norms.max(axis=1)
        np.testing.assert_allclose(scalars, expected, rtol=1e-12)
        np.testing.assert_array_equal(select_block("maxmin", H, 1)[:, 0], norms.argmax(axis=1))

    @pytest.mark.parametrize("dims", [(3, 5, 3), (4, 4, 4)], ids=["3x5x3", "4x4x4"])
    def test_all_columns_form_the_one_subset(self, dims):
        n_t, n_r, L = dims
        rng = stream_generator(36, 0)
        H = complex_gaussian(rng, (50, n_r, n_t))
        subset = enumerate_subsets(n_t, L)[0]
        expected = [subset_metrics(H[b], subset).min_height for b in range(50)]
        for rule in ("maxmin", "random"):
            np.testing.assert_allclose(_rule_pass((rule,), H, L, stream_generator(36, 1))[0], expected, rtol=1e-9)
        np.testing.assert_array_equal(select_block("maxmin", H, L), np.tile(np.arange(n_t), (50, 1)))

    @pytest.mark.parametrize("rule", ["maxmin", "random"])
    def test_decode_columns_general_l(self, rule):
        rng = stream_generator(37, 0)
        H = complex_gaussian(rng, (100, 5, 5))
        cols = select_block(rule, H, 3, rng)
        subsets = enumerate_subsets(5, 3)
        if rule == "random":
            rng_replay = stream_generator(37, 0)
            complex_gaussian(rng_replay, (100, 5, 5))
            picks = [subsets[i].indices for i in rng_replay.integers(0, len(subsets), size=100)]
        else:
            picks = [reference_columns("maxmin", H[b], 3) for b in range(100)]
        np.testing.assert_array_equal(cols, np.array(picks))

    @pytest.mark.parametrize("rule", ["maxmin", "first-fixed", "first-ordered", "qr-greedy"])
    def test_decode_columns_pair_rules(self, rule):
        # columns first-decoded first, as the QR-route rule gives them
        H = complex_gaussian(stream_generator(46, 0), (200, 4, 5))
        cols = select_block(rule, H, 2)
        expected = [reference_columns(rule, H[b], 2) for b in range(200)]
        np.testing.assert_array_equal(cols, np.array(expected))

    def test_worker_invariance_and_determinism(self):
        config = outage_config("maxmin", trials=9_000, seed=5, chunk_size=2_500)
        solo = estimate_outage(config, workers=1)
        again = estimate_outage(config, workers=1)
        pooled = estimate_outage(config, workers=2)
        assert solo == again == pooled

    def test_sandwich_between_rules(self):
        # the all-pairs-low event implies the selection outage event
        ff = estimate_outage(outage_config("first-fixed", trials=50_000, seed=6))
        mm = estimate_outage(outage_config("maxmin", trials=50_000, seed=6))
        assert all(a <= b for a, b in zip(ff.hits, mm.hits))

    def test_maxmin_curve_dominates_random(self):
        mm = estimate_outage(outage_config("maxmin", trials=50_000, seed=7))
        rnd = estimate_outage(outage_config("random", trials=50_000, seed=7))
        assert all(a <= b for a, b in zip(mm.hits, rnd.hits))

    def test_generic_l_path(self):
        config = ExperimentConfig(n_t=4, n_r=4, L=3, rule="maxmin", trial_count=2_000,
                                  master_seed=8, grid=(0.05, 0.2, 0.8))
        curve = estimate_outage(config)
        assert all(b >= a for a, b in zip(curve.hits, curve.hits[1:]))


class TestSlopeFit:
    def test_exact_cubic(self):
        xs = [0.1, 0.2, 0.3, 0.4, 0.5]
        trials = 10 ** 6
        hits = [round(x ** 3 * trials) for x in xs]
        fit = fit_slope(EmpiricalCurve(tuple(xs), tuple(hits), (trials,) * 5))
        assert fit.slope == pytest.approx(3.0, abs=1e-9)
        assert fit.points_used == 5

    def test_gamma_head_slope(self):
        xs = np.geomspace(1e-3, 1e-1, 12)
        # plain least squares on the exact tabulated curve recovers the
        # small-threshold exponent
        unweighted = np.polyfit(np.log(xs), np.log(chi2n_cdf(xs, 2)), 1)[0]
        assert unweighted == pytest.approx(2.0, abs=0.02)
        # the binomial weighting leans on the large-x points, where the
        # local slope has already drifted below the asymptote
        trials = 10 ** 12
        hits = [int(round(chi2n_cdf(x, 2) * trials)) for x in xs]
        fit = fit_slope(EmpiricalCurve(tuple(xs), tuple(hits), (trials,) * len(xs)))
        assert fit.slope == pytest.approx(2.0, abs=0.05)

    def test_quadrature_curve_slope(self):
        xs = np.geomspace(1e-3, 1e-2, 10)
        trials = 10 ** 16
        hits = [int(round(pr_outage_quadrature(x, 3, 3) * trials)) for x in xs]
        fit = fit_slope(EmpiricalCurve(tuple(xs), tuple(hits), (trials,) * len(xs)))
        assert fit.slope == pytest.approx(4.0, abs=0.05)

    def test_insufficient_points(self):
        curve = EmpiricalCurve((0.1, 0.2), (100, 200), (1000, 1000))
        with pytest.raises(FitError, match="usable points"):
            fit_slope(curve)

    def test_min_hits_below_one(self):
        curve = EmpiricalCurve((0.1, 0.2, 0.3, 0.4), (0, 0, 5, 9), (1000,) * 4)
        with pytest.raises(ValueError, match="min_hits"):
            fit_slope(curve, min_hits=0)

    @pytest.mark.parametrize("p_max", [1.0, 1.5, 0.0, -0.1, math.nan],
                             ids=["one", "above-one", "zero", "negative", "nan"])
    def test_p_max_outside_the_unit_interval(self, p_max):
        # at p_max = 1 a saturated point would enter with weight hits / (1 - 1)
        curve = EmpiricalCurve((0.1, 0.2, 0.4, 0.8), (20, 50, 90, 100), (100,) * 4)
        with pytest.raises(ValueError, match=rf"p_max must lie in \(0, 1\), got {p_max}"):
            fit_slope(curve, p_max=p_max)

    def test_non_positive_abscissa_is_named(self):
        curve = EmpiricalCurve((0.0, 0.1, 0.2, 0.3), (10, 12, 14, 16), (1000,) * 4)
        with pytest.raises(FitError, match="x = 0.0 is not"):
            fit_slope(curve)

    def test_saturated_points_excluded(self):
        xs = (0.1, 0.2, 0.3, 0.4, 10.0)
        trials = 10 ** 6
        hits = tuple(round(min(x ** 3, 1.0) * trials) for x in xs)
        fit = fit_slope(EmpiricalCurve(xs, hits, (trials,) * 5))
        assert fit.fit_range[1] <= 0.5


#: Thresholds of random's exact-curve test per (n_t, n_r, L): the first
#: bin of (5, 4, 2) expects 37 of 10^6 draws.
RANDOM_EXACT_GRIDS = {(3, 3, 2): np.geomspace(0.02, 0.5, 6), (5, 4, 2): np.geomspace(0.05, 1.0, 6)}


@pytest.mark.parametrize("dims", list(RANDOM_EXACT_GRIDS), ids=lambda d: "x".join(map(str, d)))
def test_random_outage_matches_its_exact_curve(dims):
    # A chi-square over the disjoint bins between thresholds (cumulative
    # hits correlate across thresholds), 6 degrees of freedom, at its upper
    # 10^-3 point: 22.46.  Over seeds 0-40 at 10^6 trials the statistic read
    # at most 17.2 for (3,3,2) and 18.1 for (5,4,2).
    from scipy import stats

    grid, trials = RANDOM_EXACT_GRIDS[dims], 10 ** 6
    config = ExperimentConfig(*dims, rule="random", trial_count=trials, master_seed=7, grid=tuple(grid))
    observed = np.diff([0, *estimate_outage(config).hits, trials])
    expected = trials * np.diff([0.0, *(random_pair_outage(x, dims[1]) for x in grid), 1.0])
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.isf(1e-3, len(grid)), (chi2, observed, expected)


class TestBerEngine:
    def test_noiseless_limit(self):
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="qr-greedy", trial_count=100,
                                  master_seed=9, grid=(90.0,), receiver="df-zf", frame_symbols=25)
        curve = estimate_ber(config)
        assert curve.hits[0] == 0
        assert curve.trials[0] == 100 * 2 * 25 * 2

    def test_awgn_oracle_single_antenna(self):
        rho_db, frames, T = 6.0, 30_000, 50
        config = ExperimentConfig(n_t=1, n_r=1, L=1, rule="maxmin", trial_count=frames,
                                  master_seed=10, grid=(rho_db,), receiver="zf", frame_symbols=T)
        curve = estimate_ber(config)
        # fading single antenna: average the AWGN law over the channel gain
        from scipy import integrate, special

        def awgn(snr):  # Gray QPSK bit error rate Q(sqrt(snr))
            return 0.5 * special.erfc(math.sqrt(snr) / math.sqrt(2))

        rho = 10 ** (rho_db / 10)
        p1, _ = integrate.quad(lambda g: awgn(rho * g) * math.exp(-g), 0, np.inf)
        p2, _ = integrate.quad(lambda g: awgn(rho * g) ** 2 * math.exp(-g), 0, np.inf)
        n = curve.trials[0]
        assert n == frames * 2 * T
        # a frame's 2T bits share one gain g, so its errors are Binomial(2T,
        # p(g)) given g: the variance per frame adds the spread of 2T p(g)
        sigma = math.sqrt(frames * (2 * T * (p1 - p2) + (2 * T) ** 2 * (p2 - p1 ** 2)))
        assert abs(curve.hits[0] - p1 * n) < 4 * sigma

    def test_worker_invariance(self):
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="first-fixed", trial_count=2_000,
                                  master_seed=11, grid=(10.0, 14.0), receiver="df-zf",
                                  chunk_size=700, frame_symbols=10)
        assert estimate_ber(config, workers=1) == estimate_ber(config, workers=2)

    @pytest.mark.parametrize("grid,point", [((10.0, 4000.0), "4000.0"), ((-4000.0, 10.0), "-4000.0")],
                             ids=["4000", "-4000"])
    def test_snr_without_a_finite_positive_linear_value(self, monkeypatch, grid, point):
        # the point is rejected before any chunk draws its channels
        monkeypatch.setattr(montecarlo, "_ber_chunk", lambda *args, **kwargs: pytest.fail("a chunk ran"))
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="qr-greedy", trial_count=100,
                                  master_seed=0, grid=grid, receiver="df-zf")
        with pytest.raises(ValueError, match=f"SNR point {point} dB"):
            estimate_ber(config)
        with pytest.raises(ValueError, match=f"SNR point {point} dB"):
            montecarlo.estimate_ber_rules(config, ("qr-greedy", "first-fixed"))

    def test_chunk_cap_respects_memory_budget(self):
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="maxmin", trial_count=10 ** 6,
                                  master_seed=0, grid=(10.0,), frame_symbols=1000)
        assert _ber_chunk_size(config) * 3 * 1000 <= 2_000_000

    def test_ber_chunk_peak_memory(self):
        # a one-point (3,3,2) df-zf chunk at the sample cap holds its
        # channels and bits whole but draws its noise and detects in
        # cache-sized blocks of frames: about 0.5x the bytes of the chunk's
        # noise, or 1.35x when the noise is drawn whole (as under random);
        # detecting the whole chunk at once on (B, L, T) blocks takes about 4x
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="qr-greedy", trial_count=10 ** 6,
                                  master_seed=46, grid=(14.0,), receiver="df-zf", frame_symbols=50)
        frames = _ber_chunk_size(config)
        assert frames == 13_333
        noise_bytes = frames * config.n_r * config.frame_symbols * 16
        tracemalloc.start()
        try:
            _ber_chunk(config, 0, frames, rules=(config.rule,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * noise_bytes

    @pytest.mark.parametrize("L,rule", [(2, "qr-greedy"), (2, "random"), (3, "maxmin"), (3, "random")])
    def test_block_split_invariance(self, monkeypatch, L, rule):
        # detection and counting are per frame, so one-frame, seven-frame and
        # whole-chunk blocks give identical counts; 30 frames is not a
        # multiple of 7, and random draws its subsets after the noise
        frames, T = 30, 4
        for receiver, feedback, ordering in itertools.product(
                ("zf", "mmse", "df-zf", "df-mmse"), ("actual", "genie"), (None, "fixed", "vblast", "qr-reverse")):
            config = ExperimentConfig(n_t=4, n_r=3, L=L, rule=rule, trial_count=frames, master_seed=47,
                                      grid=(0.0, 6.0, 12.0), receiver=receiver, feedback=feedback,
                                      ordering=ordering, frame_symbols=T)
            counts = []
            for block in (1, 7, frames + 5):
                monkeypatch.setattr(montecarlo, "_BER_BLOCK_SAMPLES", block * L * T)
                tallies = _ber_chunk(config, 0, frames, rules=(rule,))
                counts.append((tallies["errors"][0].tolist(), tallies["bits"].tolist()))
            assert counts[0][0][0] > 0
            assert counts[0] == counts[1] == counts[2], (receiver, feedback, ordering)

    @pytest.mark.parametrize("receiver,feedback,L", FAST_PATH_CASES)
    def test_fast_path_matches_receivers_api(self, receiver, feedback, L):
        rng = stream_generator(12, L - 2)  # the L = 2 cases draw from stream 0
        frames, T, rho0 = 40, 8, 10.0
        Heff = complex_gaussian(rng, (frames, 3, L))
        bits = rng.integers(0, 2, size=(frames, L, T, 2))
        symbols = qpsk_modulate(bits)
        noise = complex_gaussian(rng, (frames, 3, T))
        budget = LinkBudget(rho0, L)
        (fast,) = [qpsk_slice(est) for est in detect_grid(Heff, symbols, noise, receiver, feedback, (budget,))]
        scale = budget.stream_scale
        for b in range(frames):
            y = scale * (Heff[b] @ symbols[b]) + noise[b]
            oracle = nulling_oracle(Heff[b], y, rho0, receiver, feedback, symbols[b])
            np.testing.assert_array_equal(fast[b], oracle)
            # the received-block route (x = 0), but for genie feedback
            det = detect_df(Heff[b], y, budget, tuple(range(L)), feedback=feedback,
                            transmitted=symbols[b] if feedback == "genie" else None, receiver=receiver)
            np.testing.assert_array_equal(fast[b], det)

    @pytest.mark.parametrize("receiver,feedback,L", GRID_CASES)
    def test_snr_grid_reuses_only_snr_free_work(self, receiver, feedback, L):
        # every point of a multi-point grid equals the received-block
        # reference and the per-frame oracle; the estimates are sliced as
        # they come, since the next point overwrites them
        rng = stream_generator(45, L - 2)
        frames, T = 30, 6
        Heff = complex_gaussian(rng, (frames, 3, L))
        bits = rng.integers(0, 2, size=(frames, L, T, 2))
        noise = complex_gaussian(rng, (frames, 3, T))
        symbols = qpsk_modulate(bits)
        grid = (4.0, 10.0, 16.0)
        budgets = [LinkBudget(10.0 ** (snr_db / 10.0), L) for snr_db in grid]
        points = [qpsk_slice(est) for est in detect_grid(Heff, symbols, noise, receiver, feedback, budgets)]
        assert len(points) == len(grid)
        for budget, fast in zip(budgets, points):
            y = budget.stream_scale * np.einsum("brl,blt->brt", Heff, symbols) + noise
            np.testing.assert_array_equal(fast, received_block_detector(Heff, y, budget, receiver, feedback,
                                                                        symbols))
            for b in range(frames):
                np.testing.assert_array_equal(fast[b], nulling_oracle(Heff[b], y[b], budget.rho0, receiver, feedback,
                                                                      symbols[b]))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 2, 5), (30, 3, 4)])
    def test_raw_word_bits_match_the_integers_route(self, shape):
        # the chunk's bits, then its next normal draw, then random's subset
        # draw, all as if the bits came from rng.integers(0, 2)
        raw, ref = stream_generator(48, 3), stream_generator(48, 3)
        for rng in (raw, ref):
            complex_gaussian(rng, (shape[0], 3, 4))  # the channel draw before the bits
        bits = montecarlo._draw_bits(raw, shape)
        assert bits.dtype == bool and bits.shape == shape + (2,)
        np.testing.assert_array_equal(bits, ref.integers(0, 2, size=shape + (2,)).astype(bool))
        np.testing.assert_array_equal(raw.standard_normal(2 * 3 * shape[0] * shape[2]),
                                      ref.standard_normal(2 * 3 * shape[0] * shape[2]))
        subsets = math.comb(4, 2)
        np.testing.assert_array_equal(raw.integers(0, subsets, size=shape[0]),
                                      ref.integers(0, subsets, size=shape[0]))

    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("rule", ["qr-greedy", "maxmin", "random"])
    def test_chunk_counts_match_received_block_route(self, rule, L):
        # an independent route: draw as documented (bits through
        # rng.integers), form y = s Heff x + n and detect it with the
        # received-block reference, which works on the matched-filter
        # output of y
        frames, T, grid = 25, 6, (0.0, 6.0, 12.0, 18.0)
        for receiver, feedback, ordering in itertools.product(RECEIVERS, FEEDBACK_MODES, (None,) + ORDERING_MODES):
            config = ExperimentConfig(n_t=4, n_r=3, L=L, rule=rule, trial_count=frames, master_seed=49,
                                      grid=grid, receiver=receiver, feedback=feedback, ordering=ordering,
                                      frame_symbols=T)
            rng = stream_generator(49, 0)
            H = complex_gaussian(rng, (frames, 3, 4))
            bits = rng.integers(0, 2, size=(frames, L, T, 2))
            noise = complex_gaussian(rng, (frames, 3, T))
            cols = _apply_ordering(config, H, select_block(rule, H, L, rng))
            Heff = np.take_along_axis(H, cols[:, None, :], axis=2)
            symbols = qpsk_modulate(bits)
            expected = []
            for snr_db in grid:
                budget = LinkBudget(10.0 ** (snr_db / 10.0), L)
                received = budget.stream_scale * (Heff @ symbols) + noise
                detected = received_block_detector(Heff, received, budget, receiver, feedback, symbols)
                expected.append(int(np.count_nonzero(qpsk_demodulate(detected) != bits)))
            tallies = _ber_chunk(config, 0, frames, rules=(rule,))
            assert expected[0] > 0
            assert tallies["errors"][0].tolist() == expected, (receiver, feedback, ordering)
            assert tallies["bits"].tolist() == [bits.size] * len(grid)

    @pytest.mark.parametrize("rule", ["qr-greedy", "random"])
    def test_simulate_frame_replays_chunk_counts(self, rule):
        # the first 100 frames of chunk 0, redrawn as documented and put
        # through simulate_frame one frame and one SNR point at a time,
        # give the chunk's bit errors exactly: both run detect_grid on the
        # symbols and the noise
        frames, T, grid = 100, 50, (8.0, 14.0, 20.0)
        for receiver in RECEIVERS:
            config = ExperimentConfig(n_t=3, n_r=3, L=2, rule=rule, trial_count=frames, master_seed=50,
                                      grid=grid, receiver=receiver, frame_symbols=T)
            rng = stream_generator(50, 0)
            H = complex_gaussian(rng, (frames, 3, 3))
            bits = rng.integers(0, 2, size=(frames, 2, T, 2))
            noise = complex_gaussian(rng, (frames, 3, T))
            cols = select_block(rule, H, 2, rng)
            replayed = [0] * len(grid)
            for b in range(frames):
                for i, snr_db in enumerate(grid):
                    frame = simulate_frame(H[b][:, cols[b]], LinkBudget(10.0 ** (snr_db / 10.0), 2), bits[b],
                                           noise[b], receiver=receiver, decode_order=(0, 1))
                    replayed[i] += int(np.count_nonzero(qpsk_demodulate(frame.detected) != bits[b]))
            assert replayed[0] > 0
            assert _ber_chunk(config, 0, frames, rules=(rule,))["errors"][0].tolist() == replayed, receiver

    @pytest.mark.parametrize("ordering", ["vblast", "qr-reverse"])
    def test_batched_orderings_match_projection_oracle(self, ordering):
        draws, L = 250, 3
        config = ExperimentConfig(n_t=5, n_r=4, L=L, rule="maxmin", trial_count=draws,
                                  master_seed=40, grid=(10.0,))
        H = complex_gaussian(stream_generator(40, 0), (draws, 4, 5))
        cols = select_block("maxmin", H, L)
        ordered = _apply_ordering(dataclasses.replace(config, ordering=ordering), H, cols)
        for b in range(draws):
            sub = H[b][:, cols[b]]
            if ordering == "vblast":
                # decode first the stream with the largest height against the rest
                perm, rest = [], list(range(L))
                while rest:
                    heights = [projection_height_sq(sub, k, [j for j in rest if j != k]).height_sq for k in rest]
                    perm.append(rest.pop(int(np.argmax(heights))))
            else:
                # greedy selection by height onto the complement of the picks, decoded in reverse
                picks = []
                for _ in range(L):
                    heights = [-1.0 if k in picks else projection_height_sq(sub, k, picks).height_sq
                               for k in range(L)]
                    picks.append(int(np.argmax(heights)))
                perm = picks[::-1]
            np.testing.assert_array_equal(ordered[b], cols[b][perm])

    def test_mmse_loop_path_runs(self):
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="maxmin", trial_count=50,
                                  master_seed=13, grid=(12.0,), receiver="df-mmse", frame_symbols=10)
        curve = estimate_ber(config)
        assert curve.trials[0] == 50 * 2 * 10 * 2

    def test_ordering_override_changes_layers_not_randomness(self):
        base = ExperimentConfig(n_t=3, n_r=3, L=2, rule="qr-greedy", trial_count=400,
                                master_seed=14, grid=(10.0,), receiver="df-zf", frame_symbols=10)
        native = estimate_ber(base)
        forced = estimate_ber(ExperimentConfig(n_t=3, n_r=3, L=2, rule="qr-greedy", trial_count=400,
                                               master_seed=14, grid=(10.0,), receiver="df-zf",
                                               frame_symbols=10, ordering="qr-reverse"))
        # the greedy rule's native order is exactly the reverse-selection order
        assert native == forced


class TestDmt:
    def test_gain_out_of_range(self):
        with pytest.raises(ValueError):
            estimate_dmt_gains(3, 3, 2, "maxmin", {2.0: [10, 20, 30]}, 1000)

    @pytest.mark.parametrize("grid,point", [((10.0, 4000.0), "4000.0"), ((-4000.0, 10.0), "-4000.0")],
                             ids=["4000", "-4000"])
    def test_snr_without_a_finite_positive_linear_value(self, monkeypatch, grid, point):
        # the point is named before any chunk runs and before 10^(dB/10)
        # overflows or underflows in an array
        monkeypatch.setattr(montecarlo, "_outage_chunk", lambda *args, **kwargs: pytest.fail("a chunk ran"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"SNR point {point} dB"):
                estimate_dmt_gains(3, 3, 2, "maxmin", {1.0: list(grid)}, trials=100)
            with pytest.raises(ValueError, match=f"SNR point {point} dB"):
                estimate_dmt_gains(3, 3, 2, "maxmin", {0.5: [10.0, 20.0], 1.0: list(grid)}, 100)

    def test_needs_a_gain(self):
        with pytest.raises(ValueError, match="at least one multiplexing gain"):
            estimate_dmt_gains(3, 3, 2, "maxmin", {}, 1000)

    def test_zero_gain_reduces_to_outage_slope(self):
        fit = estimate_dmt_gains(3, 3, 2, "maxmin", {0.0: np.linspace(6, 20, 12)}, 300_000, master_seed=15)[0.0]
        assert 3.0 <= fit.slope <= 4.8

    def test_unit_gain_window(self):
        fit = estimate_dmt_gains(3, 3, 2, "maxmin", {1.0: np.linspace(12, 40, 12)}, 300_000, master_seed=15)[1.0]
        assert 1.4 <= fit.slope <= 2.6

    def test_diversity_collapses_near_full_rate(self):
        fit = estimate_dmt_gains(3, 3, 2, "maxmin", {1.5: np.linspace(20, 50, 12)}, 300_000, master_seed=15)[1.5]
        assert 0.5 <= fit.slope <= 1.5


#: (n_t, n_r, L) of the multi-rule bit-identity tests
MULTI_RULE_DIMS = [(3, 3, 2), (5, 4, 2), (4, 4, 3), (4, 6, 3)]


class TestMultiRulePasses:
    """One draw per chunk serves every rule, and each curve is the
    single-rule run's, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("with_random", [False, True], ids=["no-random", "with-random"])
    @pytest.mark.parametrize("dims", MULTI_RULE_DIMS, ids=lambda d: "x".join(map(str, d)))
    def test_outage_rules_match_single_rule_runs(self, dims, with_random, workers):
        n_t, n_r, L = dims
        rules = tuple(r for r in RULES if (L == 2 or not r.startswith("first")) and (with_random or r != "random"))
        # three chunks of which the last is short
        config = ExperimentConfig(n_t=n_t, n_r=n_r, L=L, rule=rules[0], trial_count=5_000, master_seed=61,
                                  grid=tuple(np.geomspace(0.01, 20.0, 30)), chunk_size=2_100)
        curves = montecarlo.estimate_outage_rules(config, rules, workers=workers)
        assert tuple(curves) == rules
        for rule in rules:
            single = estimate_outage(dataclasses.replace(config, rule=rule))
            assert sum(0 < h < 5_000 for h in single.hits) >= 5
            assert curves[rule] == single, rule

    @pytest.mark.parametrize("receiver", ["df-zf", "df-mmse"])
    @pytest.mark.parametrize("rules", [("qr-greedy", "first-fixed"), ("first-ordered", "random", "maxmin")],
                             ids=["ordering-pair", "with-random"])
    def test_ber_rules_match_single_rule_runs(self, monkeypatch, receiver, rules):
        # 23-frame detection blocks, so the rules share several noise
        # slices per chunk
        monkeypatch.setattr(montecarlo, "_BER_BLOCK_SAMPLES", 23 * 2 * 10)
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule=rules[0], trial_count=700, master_seed=62,
                                  grid=(4.0, 10.0), chunk_size=300, receiver=receiver, frame_symbols=10)
        curves = montecarlo.estimate_ber_rules(config, rules)
        assert tuple(curves) == rules
        for rule in rules:
            single = estimate_ber(dataclasses.replace(config, rule=rule))
            assert all(h > 0 for h in single.hits)
            assert curves[rule] == single, rule

    def test_ber_rules_match_across_workers(self):
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="qr-greedy", trial_count=1_500, master_seed=63,
                                  grid=(10.0,), chunk_size=600, receiver="df-zf", frame_symbols=10)
        rules = ("qr-greedy", "first-fixed")
        assert montecarlo.estimate_ber_rules(config, rules) == montecarlo.estimate_ber_rules(config, rules, workers=2)

    @pytest.mark.parametrize("rules,L", [((), 2), (("maxmin", "maxmin"), 2), (("maxmin", "first-fixed"), 3),
                                         (("maxmin", "best-effort"), 2)],
                             ids=["empty", "duplicate", "first-layer-at-L3", "unknown"])
    def test_rejects_invalid_rule_lists(self, rules, L):
        config = ExperimentConfig(n_t=4, n_r=4, L=L, rule="maxmin", trial_count=100, master_seed=0, grid=(1.0,))
        with pytest.raises(ValueError):
            montecarlo.estimate_outage_rules(config, rules)
        with pytest.raises(ValueError):
            montecarlo.estimate_ber_rules(config, rules)

    def test_verify_measurements_match_single_rule_runs(self):
        seed, trials = 64, 300_000
        fits = verify.outage_slope_fits(trials, seed)
        for rule in RULES:
            config = ExperimentConfig(n_t=3, n_r=3, L=2, rule=rule, trial_count=trials, master_seed=seed,
                                      grid=verify.OUTAGE_GRID)
            assert fits[rule] == fit_slope(estimate_outage(config)), rule
        frames, snr_db = 3_000, 12.0
        counts = []
        for rule in ("qr-greedy", "first-fixed"):
            curve = estimate_ber(ExperimentConfig(n_t=3, n_r=3, L=2, rule=rule, trial_count=frames, master_seed=seed,
                                                  grid=(snr_db,), receiver="df-zf", frame_symbols=50))
            counts.append((curve.hits[0], curve.trials[0]))
        assert verify.ber_ordering_test(frames, snr_db, seed) == verify.ber_ordering_measurement(snr_db, *counts)


class TestRunChunks:
    @staticmethod
    def forbid_pools(monkeypatch):
        import concurrent.futures

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)

    def test_one_chunk_plan_runs_in_process(self, monkeypatch):
        config = outage_config("maxmin", trials=3_000, seed=65, chunk_size=3_000)
        ber_config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="qr-greedy", trial_count=400, master_seed=65,
                                      grid=(10.0,), receiver="df-zf", frame_symbols=10)
        expected = (estimate_outage(config), estimate_ber(ber_config), lemma_harness("IV", (1, 1), 200_000, 65))
        self.forbid_pools(monkeypatch)
        assert (estimate_outage(config, workers=2), estimate_ber(ber_config, workers=2),
                lemma_harness("IV", (1, 1), 200_000, 65, workers=2)) == expected
        # a plan of two chunks still goes through the pool
        with pytest.raises(AssertionError, match="pool"):
            estimate_outage(dataclasses.replace(config, chunk_size=2_000), workers=2)


def test_dmt_gains_share_one_outage_run():
    # one run over the union of both grids' thresholds fits each gain as
    # a run of its own does
    grids = {0.0: np.linspace(6, 20, 12), 1.0: np.linspace(12, 40, 12)}
    fits = estimate_dmt_gains(3, 3, 2, "maxmin", grids, 100_000, master_seed=26)
    assert fits == {r: estimate_dmt_gains(3, 3, 2, "maxmin", {r: rho_db}, 100_000, master_seed=26)[r]
                    for r, rho_db in grids.items()}


class TestLemmaHarness:
    """Each harness at smoke scale, judged by the acceptance verdict."""

    @staticmethod
    def assert_holds(lemma, params, seed):
        outcome = verify.check_lemmas({lemma: lemma_harness(lemma, params, 400_000, master_seed=seed)})
        assert outcome.passed, outcome.detail

    def test_lemma_three(self):
        self.assert_holds("III", (1, 2), 16)

    def test_lemma_four(self):
        self.assert_holds("IV", (1, 1), 17)

    def test_lemma_five(self):
        self.assert_holds("V", (2, 1), 18)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lemma_harness("VII", (1,), 100)
        for exponent in (0, math.inf, math.nan):
            with pytest.raises(ValueError, match="exponents must be finite and positive"):
                lemma_harness("III", (exponent,), 100)
        for parameters in ((2.5, 1), (2, 1, 1)):
            with pytest.raises(ValueError, match="lemma V takes"):
                lemma_harness("V", parameters, 100)

    def test_no_trials(self):
        with pytest.raises(ValueError, match="trial count must be at least 1, got 0"):
            lemma_harness("III", (1, 2), 0)

    @pytest.mark.parametrize("lemma, params", [("IV", (1, 1)), ("V", (2, 1))])
    def test_memory_does_not_grow_with_trials(self, lemma, params):
        # each chunk of 10^6 draws is counted and dropped before the next
        peaks = []
        for trials in (10 ** 6, 4 * 10 ** 6):
            tracemalloc.start()
            try:
                lemma_harness(lemma, params, trials, master_seed=21)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_workers_do_not_change_fits(self):
        # three chunks of 10^6 draws; the hits add up in plan order
        fits = [lemma_harness("IV", (1, 1), 2_500_000, master_seed=22, workers=w) for w in (1, 2)]
        assert fits[0] == fits[1]


class TestKsTest:
    """The in-house KS test against ``scipy.stats.kstest`` at the size of
    the marginal-law samples: the statistic bit for bit, the p-value
    within 1e-5 relative for p in [1e-6, 0.99]."""

    N = verify.MARGINAL_SAMPLES

    @pytest.mark.parametrize("n_r", [2, 3])
    def test_matches_scipy_on_the_marginal_laws(self, n_r):
        from scipy import stats

        norms, fwd, _ = _pair_table(complex_gaussian(stream_generator(3, 0), (self.N, n_r, 2)))
        heights = fwd[0]
        for sample, cdf in ((heights, lambda v: chi2n_cdf(v, n_r - 1)),
                            (pair_angle(heights, norms[0]), lambda v: theta_cdf(v, n_r))):
            d, p = _ks_test(sample, cdf)
            reference = stats.kstest(sample, cdf)
            assert d == reference.statistic
            assert type(p) is float and p == pytest.approx(reference.pvalue, rel=1e-5)

    def test_matches_scipy_across_the_p_range(self):
        # an evenly spaced sample against a uniform law stretched by s: d is about
        # s + 1/(2n), so z = d sqrt(n) sweeps the p-values from 1 down past 1e-6
        from scipy import stats

        x = (np.arange(self.N) + 0.5) / self.N
        checked = []
        for z in [0.0, 0.44, *np.linspace(0.5, 2.8, 24)]:
            def cdf(v, s=z / math.sqrt(self.N)):
                return np.minimum(v * (1 + s), 1.0)
            d, p = _ks_test(x, cdf)
            reference = stats.kstest(x, cdf)
            assert d == reference.statistic
            if z == 0.0:
                assert p == reference.pvalue == 1.0
            if 1e-6 <= reference.pvalue <= 0.99:
                assert p == pytest.approx(reference.pvalue, rel=1e-5), z
                checked.append(reference.pvalue)
        assert min(checked) < 2e-6 and max(checked) > 0.989, checked


class TestIndependenceSuite:
    """The suite at smoke scale, judged by the acceptance verdict."""

    def test_small_run_passes(self):
        outcome = verify.check_independence((4, 3), independence_suite(4, 3, 150_000, master_seed=19))
        assert outcome.passed, outcome.detail
        assert outcome.detail == "22 checks hold"

    def test_negative_control_detected(self):
        stats = independence_suite(4, 3, 50_000, master_seed=20)
        assert verify.check_independence((4, 3), stats).passed
        assert abs(stats["control_correlation"]) > verify.CONTROL_CORR_FLOOR

    def test_needs_three_antennas(self):
        with pytest.raises(ValueError):
            independence_suite(2, 3, 1000)

    def test_no_trials(self):
        with pytest.raises(ValueError, match="trial count must be at least 1, got 0"):
            independence_suite(4, 3, 0)

    def test_workers_do_not_change_statistics(self):
        # chunks of 200k and 50k trials
        stats = [independence_suite(4, 3, 250_000, master_seed=23, workers=w) for w in (1, 2)]
        assert stats[0] == stats[1]

    def test_memory_does_not_grow_with_trials(self):
        # chunks return counts and sums, and chunk 0 its KS draws
        peaks = []
        for trials in (250_000, 10 ** 6):
            tracemalloc.start()
            try:
                independence_suite(4, 3, trials, master_seed=24)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_statistics_match_whole_sample_routes(self):
        # the chunks' sums against np.corrcoef, and their counts against
        # means, on the concatenated draws of both chunks
        n_t, n_r, seed, trials = 4, 3, 25, 250_000
        norms, fwd = [], []
        for i, count in ((0, 200_000), (1, 50_000)):
            table = _pair_table(complex_gaussian(stream_generator(seed, i), (count, n_r, n_t)))
            norms.append(table[0][0])
            fwd.append(table[1])
        norm0, fwd = np.concatenate(norms), np.concatenate(fwd, axis=1)
        chain = fwd[[0, 3, 5]]  # pairs (0,1), (1,2), (2,3) in lexicographic rank
        angles = np.arcsin(np.sqrt(np.clip(fwd[:3] / norm0, 0.0, 1.0)))  # column 0 against 1, 2, 3
        pairs = {f"chain heights ({i},{i + 1})x({j},{j + 1})": (chain[i], chain[j])
                 for i, j in itertools.combinations(range(3), 2)}
        pairs.update({f"reference angles (0,{i + 1})x(0,{j + 1})": (angles[i], angles[j])
                      for i, j in itertools.combinations(range(3), 2)})
        pairs["norm vs angle"] = (norm0, angles[0])
        stats = independence_suite(n_t, n_r, trials, master_seed=seed)
        assert list(stats["correlations"]) == list(pairs)
        for name, (x, y) in pairs.items():
            assert abs(stats["correlations"][name] - np.corrcoef(x, y)[0, 1]) <= 1e-12, name
        assert abs(stats["control_correlation"] - np.corrcoef(chain[0], fwd[1])[0, 1]) <= 1e-12
        gaps = {}
        for name, (x, y) in (("chain heights (0,1)x(1,2)", chain[:2]), ("chain heights (1,2)x(2,3)", chain[1:]),
                             ("reference angles (0,1)x(0,2)", angles[:2])):
            for a, b in itertools.product((0.5, 1.0), repeat=2):
                fx, fy = float(np.mean(x <= a)), float(np.mean(y <= b))
                fxy = float(np.mean((x <= a) & (y <= b)))
                sigma = math.sqrt(max(fx * (1 - fx) * fy * (1 - fy), 1e-300) / trials)
                gaps[f"{name} product CDF at ({a}, {b})"] = (abs(fxy - fx * fy), sigma)
        assert stats["cdf_gaps"] == gaps


class TestLatticeAccuracy:
    """Gram-route heights on near-collinear columns against the QR oracle.

    The last column is a random combination of columns 0..L-2 plus a part
    orthogonal to them, scaled so the squared size of that part is
    ``ratio`` times the combination's.  The subset (0..L-2, last) then has
    a worst-stream height of order ``ratio`` times its largest squared
    norm, the deep-threshold regime of the high-SNR curves.  Each Gram
    route (the lattice, the L = 2 pair table, the greedy's last pick)
    must meet the same bounds.
    """

    RATIOS = np.geomspace(1e-2, 1e-12, 11)
    DRAWS = 100

    def errors(self, n_t, L, route):
        """Per ratio: median height/norm, and the relative errors of
        ``route`` and of the batched-inverse route against the oracle.

        "lattice" and "pairs" give the subset's worst-stream height from
        the lattice or the pair table; "greedy" runs the greedy selection
        on the subset's columns and gives its last pick's height, which the
        oracle measures against the earlier picks.
        """
        rng = stream_generator(38, 0)
        base = complex_gaussian(rng, (self.DRAWS, L + 1, n_t))
        coef = complex_gaussian(rng, (self.DRAWS, L - 1))
        spare = complex_gaussian(rng, (self.DRAWS, L + 1))
        sub = list(range(L - 1)) + [n_t - 1]
        rank = [s.indices for s in enumerate_subsets(n_t, L)].index(tuple(sub))
        comb = np.einsum("brk,bk->br", base[:, :, :L - 1], coef)
        q, _ = np.linalg.qr(base[:, :, :L - 1])
        orth = spare - np.einsum("brk,bk->br", q, np.einsum("brk,br->bk", q.conj(), spare))
        orth *= (np.linalg.norm(comb, axis=1) / np.linalg.norm(orth, axis=1))[:, None]
        rows = []
        for ratio in self.RATIOS:
            H = base.copy()
            H[:, :, n_t - 1] = comb + math.sqrt(ratio) * orth
            if route == "lattice":
                values = lattice_table(H, L)[rank]
            elif route == "pairs":
                _, fwd, bwd = _pair_table(H)
                values = np.minimum(fwd, bwd)[rank]
            else:
                values = _rule_pass(("qr-greedy",), H[:, :, sub], L)[0]
                cols = select_block("qr-greedy", H[:, :, sub], L)[None]
            depth, err_route, err_inverse = [], [], []
            for b in range(self.DRAWS):
                H_s = H[b][:, sub]
                if route == "greedy":
                    last, earlier = cols[0, b, 0], cols[0, b, 1:]  # the last pick is decoded first
                    oracle = projection_height_sq(H_s, last, earlier).height_sq
                    inverse = float(1.0 / gram_inverse_diag(H_s)[last])
                else:
                    oracle = min(projection_height_sq(H_s, k, [c for c in range(L) if c != k]).height_sq
                                 for k in range(L))
                    inverse = float((1.0 / gram_inverse_diag(H_s)).min())
                depth.append(oracle / np.max(np.sum(np.abs(H_s) ** 2, axis=0)))
                err_route.append(abs(values[b] - oracle) / oracle)
                err_inverse.append(abs(inverse - oracle) / oracle)
            rows.append((float(np.median(depth)), np.array(err_route), np.array(err_inverse)))
        return rows

    def check(self, rows):
        def first_past(route):
            # height/norm of the first ratio whose median relative error passes 1e-6
            return next((depth for depth, *errs in rows if np.median(errs[route]) > 1e-6), 0.0)

        # the Gram route passes 1e-6 no earlier than the inverse-Gram route
        assert first_past(0) <= first_past(1)
        # the documented limit: median past 1e-6 only below height/norm 1e-10 ...
        assert first_past(0) < 1e-10
        for depth, gram_route, inverse in rows:
            # ... every draw within 1e-6 down to height/norm 1e-9 ...
            if depth >= 1e-9:
                assert gram_route.max() < 1e-6
            # ... and no route-specific loss at any depth
            assert np.median(gram_route) <= 3.0 * np.median(inverse) + 1e-15

    @pytest.mark.parametrize("dims", [(5, 3), (6, 4)], ids=["nt5-L3", "nt6-L4"])
    def test_lattice_no_worse_than_inverse_route(self, dims):
        self.check(self.errors(*dims, "lattice"))

    @pytest.mark.parametrize("n_t", [3, 5], ids=["nt3", "nt5"])
    def test_pair_table_no_worse_than_inverse_route(self, n_t):
        self.check(self.errors(n_t, 2, "pairs"))

    @pytest.mark.parametrize("dims", [(3, 2), (5, 3), (6, 4)], ids=["nt3-L2", "nt5-L3", "nt6-L4"])
    def test_greedy_no_worse_than_inverse_route(self, dims):
        self.check(self.errors(*dims, "greedy"))
