import numpy as np
import pytest
from draws import rand_matrix
from scipy import stats

from antsel.channel import (
    ChannelSample,
    SingularMatrixError,
    as_channel_matrix,
    complex_gaussian,
    gram_inverse_diag,
    projection_height_sq,
    sample_channel,
    stream_generator,
)
from antsel.analytic import chi2n_cdf, theta_cdf
from antsel.selection import RULES, _rule_pass


class TestSampling:
    def test_deterministic_regeneration(self):
        a = sample_channel(1, 1, 1234, 0)
        b = sample_channel(1, 1, 1234, 0)
        assert a.matrix.shape == (1, 1)
        assert np.array_equal(a.matrix, b.matrix)

    def test_distinct_draw_indices_differ(self):
        a = sample_channel(2, 2, 7, 0).matrix
        b = sample_channel(2, 2, 7, 1).matrix
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64)],
                             ids=["negative-seed", "seed-two-to-the-64", "negative-stream", "stream-two-to-the-64"])
    def test_key_words_out_of_range_rejected(self, seed, stream):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            stream_generator(seed, stream)

    def test_key_word_range_ends(self):
        top = 2 ** 64 - 1
        assert stream_generator(top, top).random() != stream_generator(0, 0).random()

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            sample_channel(0, 2, 1, 0)
        with pytest.raises(ValueError):
            sample_channel(2, 0, 1, 0)

    @pytest.mark.parametrize("shape", [(3,), (0, 2), (2, 0)], ids=["1-D", "no-rows", "no-columns"])
    def test_channel_matrix_must_be_2d_and_non_empty(self, shape):
        with pytest.raises(ValueError, match="channel matrix must be 2-D and non-empty"):
            as_channel_matrix(np.ones(shape))

    def test_unit_second_moment(self):
        # 1e5 entries across independent draws; |h|^2 has unit mean
        entries = np.concatenate([
            sample_channel(50, 100, 42, d).matrix.ravel() for d in range(20)
        ])
        assert abs(np.mean(np.abs(entries) ** 2) - 1.0) < 0.01

    def test_component_variance(self):
        entries = np.concatenate([
            sample_channel(50, 100, 43, d).matrix.ravel() for d in range(20)
        ])
        assert abs(np.var(entries.real) - 0.5) < 0.01

    def test_is_dataclass_record(self):
        s = sample_channel(2, 3, 5, 9)
        assert isinstance(s, ChannelSample)
        assert (s.seed, s.draw_index) == (5, 9)

    @pytest.mark.parametrize("shape", [(3,), (4, 3, 3), (1000, 8, 8), (2, 0, 3)])
    def test_in_place_draw_is_bit_identical_to_complex_combine(self, shape):
        z = stream_generator(44, 1).standard_normal(size=shape + (2,))
        reference = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        draw = complex_gaussian(stream_generator(44, 1), shape)
        assert draw.shape == shape and draw.dtype == np.complex128
        assert draw.flags.c_contiguous
        assert draw.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("block", [1, 7, 2048])
    def test_block_draws_continue_the_whole_draw(self, block):
        # the engines draw a chunk block after block; the values and the
        # generator state after them match one whole-chunk draw
        count, shape = 5_000, (3, 4)
        whole_rng = stream_generator(45, 2)
        whole = complex_gaussian(whole_rng, (count,) + shape)
        rng = stream_generator(45, 2)
        parts = [complex_gaussian(rng, (min(block, count - lo),) + shape) for lo in range(0, count, block)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        np.testing.assert_array_equal(rng.integers(0, 70, size=100), whole_rng.integers(0, 70, size=100))
        assert rng.standard_normal(100).tobytes() == whole_rng.standard_normal(100).tobytes()


class TestProjectionHeight:
    def test_orthogonal_columns(self):
        H = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        rep = projection_height_sq(H, 0, (1,))
        assert rep.height_sq == pytest.approx(1.0, rel=1e-12)
        assert rep.angle == pytest.approx(np.pi / 2, rel=1e-12)

    def test_hand_gram_schmidt(self):
        # second column (1,1)/sqrt(2): residual carries half the energy
        H = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]], dtype=complex)
        rep = projection_height_sq(H, 0, (1,))
        assert rep.height_sq == pytest.approx(0.5, rel=1e-12)
        assert rep.angle == pytest.approx(np.pi / 4, rel=1e-12)

    def test_collinear_columns(self):
        H = np.array([[1.0, 3.0], [2.0, 6.0], [0.5, 1.5]], dtype=complex)
        rep = projection_height_sq(H, 0, (1,))
        assert rep.height_sq == pytest.approx(0.0, abs=1e-12)

    def test_empty_span(self):
        H = rand_matrix(3, 2, seed=1)
        rep = projection_height_sq(H, 1, ())
        assert rep.height_sq == pytest.approx(rep.norm_sq, rel=1e-12)
        assert rep.angle == pytest.approx(np.pi / 2)

    def test_height_angle_identity(self):
        H = rand_matrix(4, 3, seed=2)
        rep = projection_height_sq(H, 0, (1, 2))
        assert rep.height_sq == pytest.approx(rep.norm_sq * np.sin(rep.angle) ** 2, rel=1e-9)
        assert 0.0 <= rep.height_sq <= rep.norm_sq + 1e-12

    def test_argument_errors(self):
        H = rand_matrix(3, 3)
        with pytest.raises(ValueError):
            projection_height_sq(H, 0, (0,))
        with pytest.raises(ValueError):
            projection_height_sq(H, 5, (1,))
        with pytest.raises(ValueError):
            projection_height_sq(H, 0, (1, 7))
        with pytest.raises(ValueError):
            projection_height_sq(rand_matrix(2, 4), 0, (1, 2))  # span fills the whole row space
        with pytest.raises(ValueError):
            projection_height_sq(np.full((2, 2), np.nan), 0, (1,))

    @pytest.mark.parametrize("c", [2.0, -0.5, 1j, 0.3 - 0.7j])
    def test_scaling_covariance(self, c):
        H = rand_matrix(4, 3, seed=3)
        base = projection_height_sq(H, 2, (0, 1))
        scaled = projection_height_sq(c * H, 2, (0, 1))
        assert scaled.height_sq == pytest.approx(abs(c) ** 2 * base.height_sq, rel=1e-9)
        assert scaled.angle == pytest.approx(base.angle, rel=1e-9)

    def test_monotone_in_span(self):
        # adding a column can only shrink the distance to the span
        for stream in range(20):
            H = rand_matrix(5, 4, seed=4, stream=stream)
            small = projection_height_sq(H, 0, (1,)).height_sq
            large = projection_height_sq(H, 0, (1, 2)).height_sq
            assert large <= small + 1e-12


class TestDistributions:
    def test_height_follows_gamma_law(self):
        # one column against L-1 others: Gamma(n_r - L + 1, 1)
        n_r, span = 3, (1, 2)
        vals = np.array([
            projection_height_sq(rand_matrix(n_r, 3, seed=11, stream=s), 0, span).height_sq
            for s in range(4000)
        ])
        ks = stats.kstest(vals, lambda x: chi2n_cdf(x, n_r - len(span)))
        assert ks.pvalue > 0.01

    def test_pairwise_height_and_angle_laws(self):
        n_r = 3
        H = complex_gaussian(stream_generator(12, 0), (20000, n_r, 2))
        h0, h1 = H[:, :, 0], H[:, :, 1]
        n0 = np.real(np.einsum("br,br->b", h0.conj(), h0))
        ip = np.abs(np.einsum("br,br->b", h0.conj(), h1)) ** 2
        n1 = np.real(np.einsum("br,br->b", h1.conj(), h1))
        heights = n0 - ip / n1
        angles = np.arcsin(np.sqrt(np.clip(heights / n0, 0, 1)))
        assert stats.kstest(heights, lambda x: chi2n_cdf(x, n_r - 1)).pvalue > 0.01
        assert stats.kstest(angles, lambda t: theta_cdf(t, n_r)).pvalue > 0.01
        # norm and direction are independent pieces of a Gaussian vector
        assert abs(np.corrcoef(n0, angles)[0, 1]) < 0.02


class TestLayoutEquivalence:
    """RNG layout 2 (``stream_generator``) against the Philox-keyed streams
    of layout 1: each rule's outage scalar must follow the same law."""

    @pytest.mark.parametrize("dims,rule", [pytest.param((3, 3, 2), rule, id=f"{rule}-3x3x2") for rule in RULES] + [
        pytest.param((4, 6, 3), rule, id=f"{rule}-4x6x3") for rule in ("maxmin", "qr-greedy")])
    def test_rule_scalars_match_philox_draws(self, dims, rule):
        n_t, n_r, L = dims
        philox = np.random.Generator(np.random.Philox(key=np.array([46, 0], dtype=np.uint64)))
        samples = []
        for rng in (philox, stream_generator(46, 0)):
            H = complex_gaussian(rng, (20_000, n_r, n_t))
            samples.append(_rule_pass((rule,), H, L, rng)[0])
        assert stats.ks_2samp(*samples).pvalue > 1e-3


class TestGramInverseDiag:
    def test_orthonormal(self):
        q, _ = np.linalg.qr(rand_matrix(5, 3, seed=5))
        np.testing.assert_allclose(gram_inverse_diag(q), np.ones(3), rtol=1e-10)

    def test_hand_two_by_two(self):
        H = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]], dtype=complex)
        np.testing.assert_allclose(gram_inverse_diag(H), [2.0, 2.0], rtol=1e-12)

    def test_reciprocal_matches_projection(self):
        H = rand_matrix(4, 3, seed=6)
        diag = gram_inverse_diag(H)
        for k in range(3):
            others = tuple(j for j in range(3) if j != k)
            height = projection_height_sq(H, k, others).height_sq
            assert 1.0 / diag[k] == pytest.approx(height, rel=1e-9)

    def test_rank_deficient_rejected(self):
        H = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=complex)
        with pytest.raises(SingularMatrixError):
            gram_inverse_diag(H)
