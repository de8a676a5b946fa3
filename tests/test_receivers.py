import math

import numpy as np
import pytest
from draws import rand_matrix
from scipy import special

from antsel.channel import (
    SingularMatrixError,
    complex_gaussian,
    projection_height_sq,
    require_full_column_rank,
    stream_generator,
)
from antsel.receivers import (
    FEEDBACK_MODES,
    RECEIVERS,
    LinkBudget,
    _gram,
    _stage_snrs,
    _term_sum,
    count_bit_errors,
    detect_df,
    detect_grid,
    df_stage_snrs,
    mmse_post_snr,
    qpsk_demodulate,
    qpsk_modulate,
    qpsk_slice,
    simulate_frame,
    stage_matrices,
    transmit,
    vblast_order,
    zf_post_snr,
)
from antsel.selection import select


#: Distance allowed between the bordered stage matrices and np.linalg.inv
#: of each trailing block, per frame, in units of cond * ||inverse|| (2-norm):
#: both are backward-stable inverses of a Hermitian positive definite
#: block, so each lies within a few eps * cond * ||inverse|| of the exact one
#: (the two met within 1.2 eps units over 3000 draws per shape, L = 2..4).
INVERSE_TOLERANCE = 8 * np.finfo(np.float64).eps

#: Distance allowed between the short-axis term sums and np.matmul, per
#: entry, in units of eps * sum_j |a_ij| |b_jk|: both round each of the k
#: products and partial sums once (the two met within 2.6 such units over
#: 10^5 draws per shape, k = 2..6).
PRODUCT_ULPS = 4


def detect_received(H, y, budget, receiver="zf"):
    """Linear detection of one frame's received block ``y``: the
    received-block route of :func:`detect_grid` (x = 0) on a batch of one."""
    x = np.zeros((1, budget.L, y.shape[1]), dtype=complex)
    return qpsk_slice(next(detect_grid(H[None], x, y[None], receiver, "actual", (budget,)))[0])


def orthonormal(n_r, L, seed=0):
    q, _ = np.linalg.qr(rand_matrix(n_r, L, seed=seed))
    return q


class TestBudgetAndConstellation:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(rho0=-1.0, L=2)
        with pytest.raises(ValueError):
            LinkBudget(rho0=1.0, L=0)
        assert LinkBudget(rho0=10.0, L=2).stream_scale == pytest.approx(math.sqrt(5.0))

    @pytest.mark.parametrize("rho0", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_rho0_is_named(self, rho0):
        # such a budget gave zf_post_snr nan or inf SNRs
        with pytest.raises(ValueError, match=f"rho0 must be finite and positive, got {rho0}"):
            LinkBudget(rho0=rho0, L=2)

    def test_modulation_roundtrip(self):
        rng = stream_generator(0, 0)
        bits = rng.integers(0, 2, size=(2, 64, 2))
        symbols = qpsk_modulate(bits)
        np.testing.assert_allclose(np.abs(symbols), 1.0, rtol=1e-12)
        np.testing.assert_array_equal(qpsk_demodulate(symbols), bits)

    def test_bit_error_count_matches_demodulated_bits(self):
        rng = stream_generator(0, 1)
        bits = rng.integers(0, 2, size=(30, 2, 16, 2))
        symbols = complex_gaussian(rng, (30, 2, 16))
        expected = int(np.sum(qpsk_demodulate(symbols) != bits))
        assert 0 < expected < bits.size
        assert count_bit_errors(symbols, bits) == expected

    def test_strided_views_slice_and_count_like_copies(self):
        # a stage row of a (B, L, T) block is sliced in place; a transposed
        # block, whose last axis is not contiguous, is copied first
        rng = stream_generator(0, 2)
        block = complex_gaussian(rng, (5, 3, 8))
        for view in (block[:, 1], block.transpose(0, 2, 1)):
            bits = rng.integers(0, 2, size=view.shape + (2,))
            copy = view.copy()
            np.testing.assert_array_equal(qpsk_slice(view), qpsk_slice(copy))
            assert count_bit_errors(view, bits) == count_bit_errors(copy, bits)

    def test_slicing_recovers_clean_points(self):
        symbols = qpsk_modulate(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]))
        np.testing.assert_allclose(qpsk_slice(symbols + 0.1 - 0.05j), symbols)

    def test_modulation_needs_bit_pairs(self):
        with pytest.raises(ValueError, match=r"expected trailing axis of 2 bits, got shape \(4, 3\)"):
            qpsk_modulate(np.zeros((4, 3), dtype=int))


class TestPostSnr:
    def test_zf_orthonormal(self):
        report = zf_post_snr(orthonormal(4, 2), LinkBudget(10.0, 2))
        assert report.snrs == pytest.approx((5.0, 5.0), rel=1e-9)

    def test_zf_hand_pair(self):
        H = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]], dtype=complex)
        report = zf_post_snr(H, LinkBudget(10.0, 2))
        assert report.snrs == pytest.approx((2.5, 2.5), rel=1e-9)

    @pytest.mark.parametrize("n_r,L", [(n_r, L) for n_r in range(2, 6) for L in range(2, 5) if n_r >= L])
    def test_zf_routes_agree(self, n_r, L):
        from antsel.channel import gram_inverse_diag

        budget = LinkBudget(7.0, L)
        for stream in range(10):
            H = rand_matrix(n_r, L, seed=21, stream=stream)
            via_heights = np.asarray(zf_post_snr(H, budget).snrs)
            via_gram = (budget.rho0 / L) / gram_inverse_diag(H)
            np.testing.assert_allclose(via_heights, via_gram, rtol=1e-9)

    def test_mmse_orthonormal_matches_zf(self):
        H = orthonormal(4, 2, seed=1)
        budget = LinkBudget(10.0, 2)
        assert mmse_post_snr(H, budget).snrs == pytest.approx(zf_post_snr(H, budget).snrs, rel=1e-9)

    def test_mmse_vanishes_at_zero_snr(self):
        H = rand_matrix(3, 2, seed=2)
        assert max(mmse_post_snr(H, LinkBudget(1e-9, 2)).snrs) < 1e-8

    def test_mmse_meets_zf_at_high_snr(self):
        H = rand_matrix(3, 2, seed=3)
        budget = LinkBudget(1e6, 2)
        zf = np.asarray(zf_post_snr(H, budget).snrs)
        mmse = np.asarray(mmse_post_snr(H, budget).snrs)
        np.testing.assert_allclose(mmse / zf, 1.0, rtol=0.01)

    def test_mmse_dominates_zf(self):
        budget = LinkBudget(5.0, 3)
        for stream in range(20):
            H = rand_matrix(4, 3, seed=4, stream=stream)
            zf = np.asarray(zf_post_snr(H, budget).snrs)
            mmse = np.asarray(mmse_post_snr(H, budget).snrs)
            assert np.all(mmse >= zf - 1e-9)


class TestLinearDetection:
    def test_noiseless_recovery(self):
        H = rand_matrix(3, 2, seed=5)
        budget = LinkBudget(4.0, 2)
        bits = stream_generator(6, 0).integers(0, 2, size=(2, 32, 2))
        s = qpsk_modulate(bits)
        y = transmit(H, budget, s, np.zeros((3, 32), dtype=complex))
        for eq in ("zf", "mmse"):
            np.testing.assert_allclose(detect_received(H, y, budget, eq), s, atol=1e-12)

    def test_orthonormal_reduces_to_per_stream_slicing(self):
        H = orthonormal(4, 2, seed=7)
        budget = LinkBudget(6.0, 2)
        rng = stream_generator(8, 0)
        s = qpsk_modulate(rng.integers(0, 2, size=(2, 100, 2)))
        noise = complex_gaussian(rng, (4, 100))
        y = transmit(H, budget, s, noise)
        detected = detect_received(H, y, budget)
        per_stream = qpsk_slice((H.conj().T @ y) / budget.stream_scale)
        np.testing.assert_allclose(detected, per_stream)

    def test_awgn_bit_error_oracle(self):
        # single stream on a unit channel: empirical BER vs the closed form
        budget = LinkBudget(4.0, 1)
        H = np.array([[1.0]], dtype=complex)
        rng = stream_generator(9, 0)
        n = 200_000
        bits = rng.integers(0, 2, size=(1, n, 2))
        s = qpsk_modulate(bits)
        y = transmit(H, budget, s, complex_gaussian(rng, (1, n)))
        errs = int(np.sum(qpsk_demodulate(detect_received(H, y, budget)) != bits))
        p = 0.5 * special.erfc(math.sqrt(budget.rho0) / math.sqrt(2))  # Q(sqrt(snr))
        sigma = math.sqrt(p * (1 - p) * 2 * n)
        assert abs(errs - p * 2 * n) < 3 * sigma

    def test_dimension_mismatch(self):
        H = rand_matrix(3, 2)
        with pytest.raises(ValueError, match=r"received block shape \(4, 8\) does not match 3 receive rows"):
            simulate_frame(H, LinkBudget(1.0, 2), np.zeros((2, 8, 2), dtype=int), np.zeros((4, 8), dtype=complex))

    def test_unknown_equalizer_and_front_end(self):
        H, y, budget = rand_matrix(3, 2), np.zeros((3, 8), dtype=complex), LinkBudget(1.0, 2)
        with pytest.raises(ValueError, match="unknown receiver 'sphere'"):
            simulate_frame(H, budget, np.zeros((2, 8, 2), dtype=int), y, receiver="sphere")
        with pytest.raises(ValueError, match="unknown front end 'sphere'"):
            detect_df(H, y, budget, (0, 1), front_end="sphere")


class TestDecisionFeedback:
    def test_orthogonal_columns_match_linear(self):
        H = orthonormal(4, 2, seed=10) * 2.0
        budget = LinkBudget(8.0, 2)
        rng = stream_generator(11, 0)
        s = qpsk_modulate(rng.integers(0, 2, size=(2, 200, 2)))
        y = transmit(H, budget, s, complex_gaussian(rng, (4, 200)))
        df = detect_df(H, y, budget, (0, 1))
        lin = detect_received(H, y, budget)
        np.testing.assert_allclose(df, lin)

    def test_noiseless_exact_both_modes(self):
        H = rand_matrix(3, 2, seed=12)
        budget = LinkBudget(4.0, 2)
        s = qpsk_modulate(stream_generator(13, 0).integers(0, 2, size=(2, 16, 2)))
        y = transmit(H, budget, s, np.zeros((3, 16), dtype=complex))
        for feedback in ("actual", "genie"):
            out = detect_df(H, y, budget, (1, 0), feedback=feedback, transmitted=s)
            np.testing.assert_allclose(out, s, atol=1e-12)

    def test_stage_snrs_follow_projection_heights(self):
        budget = LinkBudget(9.0, 3)
        for stream in range(10):
            H = rand_matrix(4, 3, seed=14, stream=stream)
            order = tuple(stream_generator(15, stream).permutation(3))
            snrs = df_stage_snrs(H, budget, order)
            for stage, k in enumerate(order):
                expected = 3.0 * projection_height_sq(H, k, order[stage + 1:]).height_sq
                assert snrs[stage] == pytest.approx(expected, rel=1e-9)

    def test_genie_stage_snrs_match_triangular_diagonal(self):
        budget = LinkBudget(10.0, 2)
        for stream in range(10):
            H = rand_matrix(3, 5, seed=16, stream=stream)
            out = select("qr-greedy", H, 2)
            selection = [out.subset.indices[p] for p in reversed(out.decode_order)]
            H_sel = H[:, selection]
            r = np.linalg.qr(H_sel, mode="r")
            snrs = df_stage_snrs(H_sel, budget, (1, 0))
            diag = (budget.rho0 / budget.L) * np.abs(np.diagonal(r)) ** 2
            np.testing.assert_allclose(snrs, diag[::-1], rtol=1e-9)

    def test_decode_order_permutes_the_stages(self):
        # decoding in order P equals decoding the columns H[:, P] in place order
        H = rand_matrix(4, 3, seed=26)
        budget = LinkBudget(6.0, 3)
        rng = stream_generator(27, 0)
        s = qpsk_modulate(rng.integers(0, 2, size=(3, 200, 2)))
        y = transmit(H, budget, s, complex_gaussian(rng, (4, 200)))
        order = (2, 0, 1)
        for front_end in ("zf", "mmse"):
            for feedback in ("actual", "genie"):
                out = detect_df(H, y, budget, order, feedback=feedback, transmitted=s, front_end=front_end)
                ref = detect_df(H[:, list(order)], y, budget, (0, 1, 2), feedback=feedback,
                                transmitted=s[list(order)], front_end=front_end)
                np.testing.assert_array_equal(out[list(order)], ref)

    def test_genie_requires_transmitted(self):
        H = rand_matrix(3, 2, seed=17)
        with pytest.raises(ValueError):
            detect_df(H, np.zeros((3, 4), dtype=complex), LinkBudget(1.0, 2), (0, 1), feedback="genie")

    @pytest.mark.parametrize("shape", [(2, 1), (4,), (3, 4), (2, 5)])
    def test_genie_rejects_a_misshaped_transmitted_block(self, shape):
        # L = 2 streams of 4 symbols: only (2, 4) is a transmitted block
        H = rand_matrix(3, 2, seed=17)
        with pytest.raises(ValueError, match="shape"):
            detect_df(H, np.zeros((3, 4), dtype=complex), LinkBudget(1.0, 2), (0, 1), feedback="genie",
                      transmitted=np.ones(shape, dtype=complex))

    def test_stage_snrs_reject_dependent_columns(self):
        column = rand_matrix(3, 1, seed=17)
        with pytest.raises(SingularMatrixError):
            df_stage_snrs(np.hstack([column, column]), LinkBudget(10.0, 2), (0, 1))

    def test_invalid_permutation(self):
        H = rand_matrix(3, 2, seed=18)
        with pytest.raises(ValueError):
            detect_df(H, np.zeros((3, 4), dtype=complex), LinkBudget(1.0, 2), (0, 0))

    def test_ber_monotone_in_snr_common_noise(self):
        H = rand_matrix(3, 2, seed=19)
        rng = stream_generator(20, 0)
        bits = rng.integers(0, 2, size=(2, 3000, 2))
        s = qpsk_modulate(bits)
        noise = complex_gaussian(rng, (3, 3000))
        errors = []
        for rho_db in (0.0, 5.0, 10.0, 15.0, 20.0):
            budget = LinkBudget(10 ** (rho_db / 10), 2)
            y = transmit(H, budget, s, noise)
            det = detect_df(H, y, budget, (0, 1))
            errors.append(int(np.sum(qpsk_demodulate(det) != bits)))
        assert all(a >= b for a, b in zip(errors, errors[1:]))


class TestSimulateFrame:
    def test_roundtrip_at_high_snr(self):
        H = rand_matrix(3, 2, seed=23)
        budget = LinkBudget(1e6, 2)
        rng = stream_generator(24, 0)
        bits = rng.integers(0, 2, size=(2, 40, 2))
        noise = complex_gaussian(rng, (3, 40))
        for receiver in ("zf", "mmse", "df-zf", "df-mmse"):
            frame = simulate_frame(H, budget, bits, noise, receiver=receiver)
            assert frame.transmitted.shape == frame.detected.shape == (2, 40)
            assert frame.received.shape == (3, 40)
            np.testing.assert_array_equal(qpsk_demodulate(frame.detected), bits)

    def test_unknown_receiver(self):
        H = rand_matrix(3, 2, seed=25)
        with pytest.raises(ValueError):
            simulate_frame(H, LinkBudget(1.0, 2), np.zeros((2, 4, 2), dtype=int),
                           np.zeros((3, 4), dtype=complex), receiver="sphere")


def _zeros_block(H):
    return np.zeros((np.shape(H)[0], 4), dtype=complex)


#: Every per-frame entry point as f(H_s, budget, decode_order), in its ZF
#: variant where it has one; the order reaches only those that take one.
FRAME_ENTRY_POINTS = {
    "zf_post_snr": lambda H, budget, order: zf_post_snr(H, budget),
    "mmse_post_snr": lambda H, budget, order: mmse_post_snr(H, budget),
    "df_stage_snrs": lambda H, budget, order: df_stage_snrs(H, budget, order),
    "vblast_order": lambda H, budget, order: vblast_order(H, budget),
    "detect_df": lambda H, budget, order: detect_df(H, _zeros_block(H), budget, order, front_end="zf"),
    "simulate_frame": lambda H, budget, order: simulate_frame(
        H, budget, np.zeros((budget.L, 4, 2), dtype=int), _zeros_block(H), receiver="df-zf", decode_order=order),
    "simulate_frame-zf": lambda H, budget, order: simulate_frame(
        H, budget, np.zeros((budget.L, 4, 2), dtype=int), _zeros_block(H), receiver="zf"),
}
#: The entries that run a ZF receiver, so test the column rank.
ZF_FRAME_ENTRY_POINTS = [entry for entry in FRAME_ENTRY_POINTS if entry != "mmse_post_snr"]


@pytest.mark.parametrize("entry", list(FRAME_ENTRY_POINTS))
def test_frame_check(entry):
    """The one frame check of the per-frame functions: the stream count,
    the decode order and, for the ZF receivers, the column rank."""
    call = FRAME_ENTRY_POINTS[entry]
    budget = LinkBudget(10.0, 2)
    with pytest.raises(ValueError, match="budget declares 2 streams but matrix has 3 columns"):
        call(rand_matrix(3, 3, seed=28), budget, (0, 1))
    if entry in ("df_stage_snrs", "detect_df", "simulate_frame"):
        with pytest.raises(ValueError, match=r"decode_order \(0, 0\) is not a permutation of 0..1"):
            call(rand_matrix(3, 2, seed=28), budget, (0, 0))
    column = rand_matrix(3, 1, seed=29)
    dependent = np.hstack([column, (0.5 - 2j) * column])
    if entry == "mmse_post_snr":  # no ZF variant: the regularization keeps it defined
        assert all(np.isfinite(call(dependent, budget, (0, 1)).snrs))
    else:
        with pytest.raises(SingularMatrixError):
            call(dependent, budget, (0, 1))


class TestBatchRows:
    """The per-frame functions return the rows of one :func:`detect_grid`
    call on the same inputs, bit for bit."""

    ORDER = [2, 0, 1]

    @staticmethod
    def batch():
        rng = stream_generator(28, 0)
        H = complex_gaussian(rng, (40, 4, 3))
        bits = rng.integers(0, 2, size=(40, 3, 6, 2))
        noise = complex_gaussian(rng, (40, 4, 6))
        budget = LinkBudget(8.0, 3)
        s = qpsk_modulate(bits)
        return H, bits, s, noise, budget, budget.stream_scale * (H @ s) + noise

    @pytest.mark.parametrize("feedback", FEEDBACK_MODES)
    @pytest.mark.parametrize("front_end", ["zf", "mmse"])
    def test_detect_df_with_a_permuted_order(self, front_end, feedback):
        # genie feedback detects in the error domain: the received block less the symbols' signal term
        H, bits, s, _, budget, y = self.batch()
        x, block = (s, y - budget.stream_scale * (H @ s)) if feedback == "genie" else (np.zeros_like(s), y)
        (est,) = detect_grid(H[:, :, self.ORDER], x[:, self.ORDER], block, "df-" + front_end, feedback, (budget,))
        rows = np.empty_like(s)
        rows[:, self.ORDER] = qpsk_slice(est)
        assert (qpsk_demodulate(rows) != bits).any()
        for b in range(len(H)):
            out = detect_df(H[b], y[b], budget, tuple(self.ORDER), feedback=feedback, transmitted=s[b],
                            front_end=front_end)
            np.testing.assert_array_equal(out, rows[b])

    @pytest.mark.parametrize("receiver,feedback", [(r, f) for r in RECEIVERS for f in FEEDBACK_MODES
                                                   if r.startswith("df") or f == "actual"])
    def test_simulate_frame(self, receiver, feedback):
        # in the error domain: the symbols and the noise, not the received block
        H, bits, s, noise, budget, y = self.batch()
        order = self.ORDER if receiver.startswith("df") else [0, 1, 2]
        (est,) = detect_grid(H[:, :, order], s[:, order], noise, receiver, feedback, (budget,))
        rows = np.empty_like(s)
        rows[:, order] = qpsk_slice(est)
        assert (qpsk_demodulate(rows) != bits).any()
        for b in range(len(H)):
            frame = simulate_frame(H[b], budget, bits[b], noise[b], receiver=receiver, decode_order=tuple(order),
                                   feedback=feedback)
            np.testing.assert_array_equal(frame.detected, rows[b])
            np.testing.assert_array_equal(frame.received, y[b])


class TestStageSnrRows:
    """The SNR functions return the rows of one :func:`_stage_snrs` call
    on the same channels, bit for bit."""

    ORDER = [2, 0, 1]

    def test_snr_functions_are_batch_rows(self):
        H = complex_gaussian(stream_generator(29, 0), (40, 4, 3))
        budget = LinkBudget(8.0, 3)
        zf, mmse = _stage_snrs(H, "zf", budget), _stage_snrs(H, "mmse", budget)
        df = _stage_snrs(H[:, :, self.ORDER], "df-zf", budget)
        for b in range(len(H)):
            np.testing.assert_array_equal(zf_post_snr(H[b], budget).snrs, zf[b])
            np.testing.assert_array_equal(mmse_post_snr(H[b], budget).snrs, mmse[b])
            np.testing.assert_array_equal(df_stage_snrs(H[b], budget, tuple(self.ORDER)), df[b])


class TestStageSnrAccuracy:
    """ZF and genie DF stage SNRs on near-collinear columns against the QR
    route of ``projection_height_sq``.

    The last of L columns is a random combination of the others plus a
    part orthogonal to them, whose squared size is ``ratio`` times the
    combination's, so a draw's depth, its worst-stream squared height h
    over its largest squared column norm n, falls to about ``ratio``.  A
    draw's errors follow its depth, not each stream's own height: every
    ZF stream of a draw errs alike.  DF decodes the last column first.
    """

    RATIOS = np.geomspace(1e-2, 1e-9, 8)
    DRAWS = 200
    #: the documented accuracy of ``_stage_snrs``: relative error below
    #: 1e-6 for every stream of a draw with h / n >= 1e-9
    BOUND, DEPTH = 1e-6, 1e-9

    @staticmethod
    def channels(L, ratio, draws):
        rng = stream_generator(39, L)
        base = complex_gaussian(rng, (draws, L + 1, L))
        coef = complex_gaussian(rng, (draws, L - 1))
        spare = complex_gaussian(rng, (draws, L + 1))
        comb = np.einsum("brk,bk->br", base[:, :, :L - 1], coef)
        q, _ = np.linalg.qr(base[:, :, :L - 1])
        orth = spare - np.einsum("brk,bk->br", q, np.einsum("brk,br->bk", q.conj(), spare))
        orth *= (np.linalg.norm(comb, axis=1) / np.linalg.norm(orth, axis=1))[:, None]
        base[:, :, L - 1] = comb + math.sqrt(ratio) * orth
        return base

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_within_bound_down_to_the_documented_depth(self, L):
        budget = LinkBudget(10.0, L)
        order = (L - 1,) + tuple(range(L - 1))
        depths, errors = [], []
        for ratio in self.RATIOS:
            for H in self.channels(L, ratio, self.DRAWS):
                zf = np.asarray(zf_post_snr(H, budget).snrs) * L / budget.rho0
                df = np.asarray(df_stage_snrs(H, budget, order)) * L / budget.rho0
                zf_oracle = np.array([projection_height_sq(H, k, [c for c in range(L) if c != k]).height_sq
                                      for k in range(L)])
                df_oracle = np.array([projection_height_sq(H, k, order[i + 1:]).height_sq
                                      for i, k in enumerate(order)])
                depths.append(zf_oracle.min() / np.sum(np.abs(H) ** 2, axis=0).max())
                errors.append(max((np.abs(zf - zf_oracle) / zf_oracle).max(),
                                  (np.abs(df - df_oracle) / df_oracle).max()))
        depths, errors = np.array(depths), np.array(errors)
        assert ((depths >= self.DEPTH) & (depths < 10 * self.DEPTH)).any()
        assert errors[depths >= self.DEPTH].max() < self.BOUND

    def test_raises_where_detection_does(self):
        # h / n = 1e-15 keeps full column rank but lies within 256 eps of
        # zero, where the stage recursion raises and the QR route does not
        H = self.channels(2, 1e-15, 1)[0]
        assert projection_height_sq(H, 1, [0]).height_sq > 0
        for snrs in (lambda: zf_post_snr(H, LinkBudget(10.0, 2)),
                     lambda: df_stage_snrs(H, LinkBudget(10.0, 2), (1, 0))):
            with pytest.raises(np.linalg.LinAlgError):
                snrs()


class TestStageMatrices:
    @pytest.mark.parametrize("L", [2, 3, 4])
    @pytest.mark.parametrize("receiver", RECEIVERS)
    def test_bordered_inverses_match_lapack(self, receiver, L):
        # n_r = L gives ill-conditioned Gram matrices as well as good ones
        H = complex_gaussian(stream_generator(26, L), (400, L, L))
        G = H.conj().transpose(0, 2, 1) @ H
        for lam in ((0.0,) if "zf" in receiver else (L / 1e3, L / 10.0)):
            M = G + lam * np.eye(L)
            V, leak = stage_matrices(G, receiver, lam)
            for s in range(L if receiver.startswith("df-") else 1):
                block = M[:, s:, s:]
                ref = np.linalg.inv(block)
                tol = INVERSE_TOLERANCE * np.linalg.cond(block) * np.linalg.norm(ref, 2, axis=(1, 2))
                if leak is None:
                    assert (np.linalg.norm(V - ref, axis=(1, 2)) <= tol).all()
                    continue
                np.testing.assert_array_equal(V[:, s, :s], 0)
                assert (np.linalg.norm(V[:, s, s:] - ref[:, 0], axis=1) <= tol).all()
                # the leak into stage s: row s of V times G before column s
                lower = G[:, s:, :s]
                expected = (ref[:, 0, :, None] * lower).sum(axis=1)
                assert (np.abs(leak[:, s, :s] - expected) <= tol[:, None] * np.linalg.norm(lower, axis=1)).all()
                np.testing.assert_array_equal(leak[:, s, s:], 0)

    @pytest.mark.parametrize("L", [2, 3, 4])
    @pytest.mark.parametrize("receiver", ["zf", "df-zf"])
    def test_singular_zf_block_raises(self, receiver, L):
        # a dead column, a copy of a later column, or a multiple of one:
        # one such frame among many fails the whole block with LinAlgError
        # before any division, so no inf or NaN (nor a RuntimeWarning) appears
        H = complex_gaussian(stream_generator(27, L), (50, L + 1, L))
        for dependent in (np.zeros(L + 1), H[7, :, L - 1], (0.3 - 0.7j) * H[7, :, 1]):
            bad = H.copy()
            bad[7, :, 0] = dependent
            G = bad.conj().transpose(0, 2, 1) @ bad
            with pytest.raises(np.linalg.LinAlgError):
                stage_matrices(G, receiver, 0.0)
        stage_matrices(H.conj().transpose(0, 2, 1) @ H, receiver, 0.0)


class TestOneRankTest:
    """The per-frame ZF functions decide a frame's column rank by the SVD
    test ``channel.require_full_column_rank`` (``receivers._frame``).  The
    stage recursion (:func:`stage_matrices`) alone is no complete rank
    test: behind ill-conditioned later columns, a Schur complement whose
    true share lies below its threshold can round above it."""

    def test_singular_matrix_error_is_a_linalg_and_a_value_error(self):
        assert issubclass(SingularMatrixError, np.linalg.LinAlgError)
        assert issubclass(SingularMatrixError, ValueError)  # the CLI's usage errors: exit 2

    def test_zf_entries_reject_every_frame_the_svd_rejects(self):
        # one column a multiple of another plus delta * noise, delta from 1
        # to 1e-18, every tenth frame or so with a dead column, and each
        # column scaled by its own 1e-3..1e3.  A few of these frames pass the
        # stage recursion alone, whose SNRs then read up to 60 % off the QR
        # route: frame 103 (5 x 5) has a true worst share of 1.8e-14, below
        # the recursion's 256 eps.
        params = np.random.default_rng(1)
        rejected = 0
        for i in range(4000):
            n_r = int(params.integers(2, 6))
            L = int(params.integers(2, n_r + 1))
            rng = stream_generator(1, i)
            H = complex_gaussian(rng, (n_r, L))
            a, b = params.choice(L, 2, replace=False)
            H[:, a] = (0.3 - 1.1j) * H[:, b] + 10.0 ** -params.uniform(0, 18) * complex_gaussian(rng, (n_r,))
            if params.random() < 0.1:
                H[:, params.integers(L)] = 0
            H = H * 10.0 ** params.uniform(-3, 3, size=L)
            try:
                require_full_column_rank(H)
                continue
            except SingularMatrixError:
                rejected += 1
            for entry in ZF_FRAME_ENTRY_POINTS:
                with pytest.raises(SingularMatrixError):
                    FRAME_ENTRY_POINTS[entry](H, LinkBudget(10.0, L), tuple(range(L)))
        assert rejected > 1500

    @pytest.mark.parametrize("entry", ZF_FRAME_ENTRY_POINTS)
    def test_wide_frames_are_rank_deficient(self, entry):
        # fewer receive rows than streams.  The recursion alone let through
        # 16 of 18000 Gaussian wide frames (1-4 rows, 2-5 columns): the Schur
        # complement of the first dependent stage rounded just above 256 eps
        # of its diagonal behind ill-conditioned later columns.
        for n_r, L in ((1, 2), (2, 3), (3, 4)):
            for stream in range(10):
                with pytest.raises(SingularMatrixError):
                    FRAME_ENTRY_POINTS[entry](rand_matrix(n_r, L, seed=34, stream=stream), LinkBudget(10.0, L),
                                              tuple(range(L)))

    def test_wide_mmse_frames_stay_defined(self):
        # the regularization keeps the MMSE receivers defined on any frame
        H = rand_matrix(2, 3, seed=34)
        budget = LinkBudget(10.0, 3)
        block = complex_gaussian(stream_generator(34, 1), (2, 4))
        assert all(np.isfinite(mmse_post_snr(H, budget).snrs))
        frame = simulate_frame(H, budget, np.zeros((3, 4, 2), dtype=int), block, receiver="mmse")
        assert frame.detected.shape == (3, 4)
        assert detect_df(H, block, budget, (2, 0, 1), front_end="mmse").shape == (3, 4)


class TestShortAxisProducts:
    @pytest.mark.parametrize("m,k,n", [(2, 3, 2), (3, 4, 3), (4, 6, 4), (2, 2, 3), (3, 3, 4), (1, 5, 1)])
    def test_term_sum_matches_matmul(self, m, k, n):
        rng = stream_generator(30, k)
        a = complex_gaussian(rng, (2000, m, k))
        b = complex_gaussian(rng, (2000, k, n))
        ulp = np.finfo(np.float64).eps * (np.abs(a) @ np.abs(b))
        assert (np.abs(_term_sum(a, b) - a @ b) <= PRODUCT_ULPS * ulp).all()

    @pytest.mark.parametrize("n_r,L", [(3, 2), (4, 3), (4, 4), (8, 4)])
    def test_gram_is_exactly_hermitian(self, n_r, L):
        H = complex_gaussian(stream_generator(31, L), (2000, n_r, L))
        H_h = H.conj().transpose(0, 2, 1)
        G = _gram(H)
        np.testing.assert_array_equal(G, G.conj().transpose(0, 2, 1))
        # the lower triangle and the real diagonal are the term sums themselves
        terms = _term_sum(H_h, H)
        np.testing.assert_array_equal(np.tril(G, -1), np.tril(terms, -1))
        np.testing.assert_array_equal(G.real.diagonal(axis1=1, axis2=2), terms.real.diagonal(axis1=1, axis2=2))
        ulp = np.finfo(np.float64).eps * (np.abs(H_h) @ np.abs(H))
        assert (np.abs(G - H_h @ H) <= PRODUCT_ULPS * ulp).all()


def dense_cancellation(leak, est, x):
    """Decision feedback that cancels every symbol, in place: a correct
    decision takes leak times an exact zero off the later stages."""
    for stage in range(est.shape[1] - 1):
        fed_back = qpsk_slice(est[:, stage]) - x[:, stage]
        est[:, stage + 1:] -= leak[:, stage + 1:, stage, None] * fed_back[:, None, :]
    return est


class TestSparseCancellation:
    """Actual feedback cancels only the wrong decisions, and decides and
    estimates as cancelling every symbol does, at 0 dB, where many
    first-stage decisions are wrong."""

    @pytest.mark.parametrize("domain", ["error", "received"])
    @pytest.mark.parametrize("receiver", ["df-zf", "df-mmse"])
    @pytest.mark.parametrize("L", [2, 3])
    def test_matches_dense_cancellation(self, L, receiver, domain):
        rng = stream_generator(32, L)
        H = complex_gaussian(rng, (300, L + 1, L))
        s = qpsk_modulate(rng.integers(0, 2, size=(300, L, 20, 2)))
        noise = complex_gaussian(rng, (300, L + 1, 20))
        budget = LinkBudget(1.0, L)
        if domain == "error":
            x, block = s, noise
        else:  # the received-block route: x = 0, so every decision differs from x
            x, block = np.zeros_like(s), budget.stream_scale * (H @ s) + noise
        # genie feedback without transmitted symbols cancels nothing
        (before,) = detect_grid(H, x, block, receiver, "genie", (budget,))
        wrong = qpsk_slice(before[:, 0]) != s[:, 0]
        assert 0.05 < wrong.mean() < 0.5
        lam = L / budget.rho0 if receiver == "df-mmse" else 0.0
        _, leak = stage_matrices(_gram(H), receiver, lam)
        dense = dense_cancellation(leak, before.copy(), x)
        (est,) = detect_grid(H, x, block, receiver, "actual", (budget,))
        np.testing.assert_array_equal(qpsk_slice(est), qpsk_slice(dense))
        # equal as numbers: +0 and -0 compare equal
        np.testing.assert_array_equal(est, dense)
        np.testing.assert_array_equal(est[:, 0], before[:, 0])


class TestVblastOrder:
    def test_orthogonal_norms(self):
        H = np.diag([1.0, 3.0]).astype(complex)  # squared norms 1 and 9
        assert vblast_order(H, LinkBudget(5.0, 2)) == (1, 0)

    def test_single_stream(self):
        H = rand_matrix(3, 1, seed=21)
        assert vblast_order(H, LinkBudget(5.0, 1)) == (0,)

    def test_always_a_permutation(self):
        for stream in range(10):
            H = rand_matrix(4, 3, seed=22, stream=stream)
            order = vblast_order(H, LinkBudget(5.0, 3))
            assert sorted(order) == [0, 1, 2]
