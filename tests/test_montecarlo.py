import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qr_oracle import reference_columns, reference_scalar

from antsel import montecarlo, selection, verify
from antsel.analytic import chi2n_cdf, pr_outage_quadrature
from antsel.channel import complex_gaussian, gram_inverse_diag, projection_height_sq, stream_generator
from antsel.montecarlo import (
    EmpiricalCurve,
    ExperimentConfig,
    FitError,
    _apply_ordering,
    _ber_chunk,
    _ber_chunk_size,
    _detect_grid,
    estimate_ber,
    estimate_dmt,
    estimate_outage,
    fit_slope,
    independence_suite,
    lemma_harness,
)
from antsel.receivers import (
    FEEDBACK_MODES,
    ORDERING_MODES,
    RECEIVERS,
    LinkBudget,
    detect_block,
    detect_df,
    detect_linear,
    qpsk_demodulate,
    qpsk_modulate,
    qpsk_slice,
)
from antsel.selection import (
    RULES,
    _greedy_selection_block,
    _lattice_heights,
    _maxmin_block,
    _outage_scalars,
    _pair_table,
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


def lattice_table(H, L):
    """(C(n_t, L), B) worst-stream heights gathered from the lattice's blocks."""
    table = np.full((math.comb(H.shape[2], L), H.shape[0]), np.nan)
    for first, heights in _lattice_heights(H, L):
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

    def test_curve_invariants(self):
        with pytest.raises(ValueError):
            EmpiricalCurve((0.1,), (5,), (3,))


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
        scalars = _outage_scalars(rule, H.copy(), L, rng)
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
        scalars = _outage_scalars("random", H, L, rng)
        rng_replay = stream_generator(34, 0)
        complex_gaussian(rng_replay, (200, n_r, n_t))
        idx = rng_replay.integers(0, math.comb(n_t, L), size=200)
        table = lattice_table(H, L)
        np.testing.assert_allclose(scalars, table[idx, np.arange(200)], rtol=1e-9)
        best, arg = _maxmin_block(H, L)
        np.testing.assert_array_equal(best, table.max(axis=0))
        np.testing.assert_array_equal(arg, table.argmax(axis=0))

    def test_lattice_passes_split_lanes_without_changing_results(self, monkeypatch):
        H = complex_gaussian(stream_generator(39, 0), (50, 5, 5))
        table = lattice_table(H, 3)
        monkeypatch.setattr(selection, "_LATTICE_LANES", 7)
        best, arg = _maxmin_block(H, 3)
        np.testing.assert_array_equal(best, table.max(axis=0))
        np.testing.assert_array_equal(arg, table.argmax(axis=0))

    def test_pair_table_and_greedy_split_lanes_without_changing_results(self, monkeypatch):
        H = complex_gaussian(stream_generator(41, 0), (50, 4, 5))
        table = _pair_table(H)
        greedy = {L: _greedy_selection_block(H, L) for L in (2, 4)}
        monkeypatch.setattr(selection, "_LATTICE_LANES", 7)
        for whole, split in zip(table, _pair_table(H)):
            np.testing.assert_array_equal(split, whole)
        for L, (chosen, picked) in greedy.items():
            split_chosen, split_picked = _greedy_selection_block(H, L)
            np.testing.assert_array_equal(split_chosen, chosen)
            np.testing.assert_array_equal(split_picked, picked)

    def test_pair_rules_are_ordered_draw_by_draw(self):
        # first-ordered >= first-fixed >= maxmin >= random on common draws, exactly
        H = complex_gaussian(stream_generator(42, 0), (20_000, 3, 3))
        scalars = [_outage_scalars(rule, H, 2, stream_generator(42, 1))
                   for rule in ("first-ordered", "first-fixed", "maxmin", "random")]
        for upper, lower in zip(scalars, scalars[1:]):
            assert np.all(upper >= lower)
        assert np.any(scalars[0] > scalars[1]) and np.any(scalars[2] > scalars[3])

    def test_greedy_allocates_far_less_than_the_channel_block(self):
        H = complex_gaussian(stream_generator(43, 0), (30_000, 8, 8))
        tracemalloc.start()
        try:
            _greedy_selection_block(H, 4)
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
        scalars = _outage_scalars(rule, H, 1, rng)
        norms = np.sum(np.abs(H) ** 2, axis=1)
        if rule == "random":
            rng_replay = stream_generator(35, 0)
            complex_gaussian(rng_replay, (100, 3, 4))
            expected = norms[np.arange(100), rng_replay.integers(0, 4, size=100)]
        else:
            expected = norms.max(axis=1)
        np.testing.assert_allclose(scalars, expected, rtol=1e-12)
        np.testing.assert_array_equal(_maxmin_block(H, 1)[1], norms.argmax(axis=1))

    @pytest.mark.parametrize("dims", [(3, 5, 3), (4, 4, 4)], ids=["3x5x3", "4x4x4"])
    def test_all_columns_form_the_one_subset(self, dims):
        n_t, n_r, L = dims
        rng = stream_generator(36, 0)
        H = complex_gaussian(rng, (50, n_r, n_t))
        subset = enumerate_subsets(n_t, L)[0]
        expected = [subset_metrics(H[b], subset).min_height for b in range(50)]
        for rule in ("maxmin", "random"):
            np.testing.assert_allclose(_outage_scalars(rule, H, L, stream_generator(36, 1)), expected, rtol=1e-9)
        np.testing.assert_array_equal(_maxmin_block(H, L)[1], 0)

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

    def test_saturated_points_excluded(self):
        xs = (0.1, 0.2, 0.3, 0.4, 10.0)
        trials = 10 ** 6
        hits = tuple(round(min(x ** 3, 1.0) * trials) for x in xs)
        fit = fit_slope(EmpiricalCurve(xs, hits, (trials,) * 5))
        assert fit.fit_range[1] <= 0.5


class TestBerEngine:
    def test_noiseless_limit(self):
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="qr-greedy", trial_count=100,
                                  master_seed=9, grid=(90.0,), receiver="df-zf", frame_symbols=25)
        curve = estimate_ber(config)
        assert curve.hits[0] == 0
        assert curve.trials[0] == 100 * 2 * 25 * 2

    def test_awgn_oracle_single_antenna(self):
        rho_db = 6.0
        config = ExperimentConfig(n_t=1, n_r=1, L=1, rule="maxmin", trial_count=2_000,
                                  master_seed=10, grid=(rho_db,), receiver="zf", frame_symbols=50)
        curve = estimate_ber(config)
        # fading single antenna: average the AWGN law over the channel gain
        from scipy import integrate

        from antsel.receivers import qpsk_bit_error_rate

        rho = 10 ** (rho_db / 10)
        p, _ = integrate.quad(lambda g: qpsk_bit_error_rate(rho * g) * math.exp(-g), 0, np.inf)
        n = curve.trials[0]
        sigma = math.sqrt(p * (1 - p) * n)
        assert abs(curve.hits[0] - p * n) < 4 * sigma

    def test_worker_invariance(self):
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="first-fixed", trial_count=2_000,
                                  master_seed=11, grid=(10.0, 14.0), receiver="df-zf",
                                  chunk_size=700, frame_symbols=10)
        assert estimate_ber(config, workers=1) == estimate_ber(config, workers=2)

    def test_chunk_cap_respects_memory_budget(self):
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="maxmin", trial_count=10 ** 6,
                                  master_seed=0, grid=(10.0,), frame_symbols=1000)
        assert _ber_chunk_size(config) * 3 * 1000 <= 2_000_000

    def test_ber_chunk_peak_memory(self):
        # a one-point (3,3,2) df-zf chunk at the sample cap holds its noise
        # whole but detects in cache-sized blocks of frames: about 1.35x the
        # noise block's bytes; detecting the whole chunk at once on (B, L, T)
        # blocks takes about 3x, or about 4x while the noise is held
        config = ExperimentConfig(n_t=3, n_r=3, L=2, rule="qr-greedy", trial_count=10 ** 6,
                                  master_seed=46, grid=(14.0,), receiver="df-zf", frame_symbols=50)
        frames = _ber_chunk_size(config)
        assert frames == 13_333
        noise_bytes = frames * config.n_r * config.frame_symbols * 16
        tracemalloc.start()
        try:
            _ber_chunk((config, 0, frames))
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
                errors, bits = _ber_chunk((config, 0, frames))
                counts.append((errors.tolist(), bits.tolist()))
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
        config = ExperimentConfig(n_t=3, n_r=3, L=L, rule="maxmin", trial_count=frames,
                                  master_seed=0, grid=(10.0,), receiver=receiver, feedback=feedback)
        # the config's one SNR point, 10 dB, is rho0
        (fast,) = [qpsk_slice(est) for est in _detect_grid(config, Heff, bits, noise)]
        budget = LinkBudget(rho0, L)
        scale = budget.stream_scale
        for b in range(frames):
            y = scale * (Heff[b] @ symbols[b]) + noise[b]
            oracle = nulling_oracle(Heff[b], y, rho0, receiver, feedback, symbols[b])
            np.testing.assert_array_equal(fast[b], oracle)
            if receiver in ("zf", "mmse"):
                det = detect_linear(Heff[b], y, budget, equalizer=receiver)
            else:
                det = detect_df(Heff[b], y, budget, tuple(range(L)), feedback=feedback,
                                transmitted=symbols[b] if feedback == "genie" else None,
                                front_end=receiver[3:])
            np.testing.assert_array_equal(fast[b], det)

    @pytest.mark.parametrize("receiver,feedback,L", GRID_CASES)
    def test_snr_grid_reuses_only_snr_free_work(self, receiver, feedback, L):
        # every point of a multi-point grid equals a fresh detect_block call
        # and the per-frame oracle; the estimates are sliced as they come,
        # since the next point overwrites them
        rng = stream_generator(45, L - 2)
        frames, T = 30, 6
        Heff = complex_gaussian(rng, (frames, 3, L))
        bits = rng.integers(0, 2, size=(frames, L, T, 2))
        noise = complex_gaussian(rng, (frames, 3, T))
        symbols = qpsk_modulate(bits)
        grid = (4.0, 10.0, 16.0)
        config = ExperimentConfig(n_t=3, n_r=3, L=L, rule="maxmin", trial_count=frames,
                                  master_seed=0, grid=grid, receiver=receiver, feedback=feedback)
        points = [qpsk_slice(est) for est in _detect_grid(config, Heff, bits, noise)]
        assert len(points) == len(grid)
        genie = symbols if feedback == "genie" else None
        for snr_db, fast in zip(grid, points):
            rho0 = 10.0 ** (snr_db / 10.0)
            budget = LinkBudget(rho0, L)
            y = budget.stream_scale * np.einsum("brl,blt->brt", Heff, symbols) + noise
            np.testing.assert_array_equal(fast, detect_block(Heff, y, budget, receiver, feedback, genie))
            for b in range(frames):
                np.testing.assert_array_equal(fast[b], nulling_oracle(Heff[b], y[b], rho0, receiver, feedback,
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
        # rng.integers), form y = s Heff x + n and detect it with
        # detect_block, which works on the matched-filter output of y
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
                detected = detect_block(Heff, received, budget, receiver, feedback, symbols)
                expected.append(int(np.count_nonzero(qpsk_demodulate(detected) != bits)))
            errors, counted = _ber_chunk((config, 0, frames))
            assert expected[0] > 0
            assert errors.tolist() == expected, (receiver, feedback, ordering)
            assert counted.tolist() == [bits.size] * len(grid)

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
            estimate_dmt(3, 3, 2, "maxmin", 2.0, [10, 20, 30], 1000)

    def test_zero_gain_reduces_to_outage_slope(self):
        fit = estimate_dmt(3, 3, 2, "maxmin", 0.0, np.linspace(6, 20, 12), 300_000, master_seed=15)
        assert 3.0 <= fit.slope <= 4.8

    def test_unit_gain_window(self):
        fit = estimate_dmt(3, 3, 2, "maxmin", 1.0, np.linspace(12, 40, 12), 300_000, master_seed=15)
        assert 1.4 <= fit.slope <= 2.6

    def test_diversity_collapses_near_full_rate(self):
        fit = estimate_dmt(3, 3, 2, "maxmin", 1.5, np.linspace(20, 50, 12), 300_000, master_seed=15)
        assert 0.5 <= fit.slope <= 1.5


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
        with pytest.raises(ValueError):
            lemma_harness("III", (0,), 100)

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


class TestLatticeAccuracy:
    """Gram-route heights on near-collinear columns against the QR oracle.

    The last column is a random combination of columns 0..L-2 plus a part
    orthogonal to them, scaled so the squared size of that part is
    ``ratio`` times the combination's.  The subset (0..L-2, last) then has
    a worst-stream height of order ``ratio`` times its largest squared
    norm, the deep-threshold regime of the high-SNR curves.  Each Gram
    route (the lattice, the L = 2 pair table, the greedy's picked heights)
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
                chosen, picked = _greedy_selection_block(H[:, :, sub], L)
                values = picked[:, -1]
            depth, err_route, err_inverse = [], [], []
            for b in range(self.DRAWS):
                H_s = H[b][:, sub]
                if route == "greedy":
                    last, earlier = chosen[b, -1], chosen[b, :-1]
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
