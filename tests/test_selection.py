import itertools

import numpy as np
import pytest
from draws import rand_matrix
from pair_oracle import reference_pair_table
from qr_oracle import reference_columns, reference_scalar

from antsel import selection
from antsel.channel import complex_gaussian, projection_height_sq, stream_generator
from antsel.montecarlo import ExperimentConfig, estimate_outage
from antsel.selection import (
    RULES,
    AntennaSubset,
    _gram,
    _lattice_heights,
    _max_argmax,
    _pair_table,
    _rule_pass,
    _subsets,
    enumerate_subsets,
    select,
    select_block,
    subset_metrics,
)

#: (rule, (n_t, n_r, L)) cases of the batch-of-one tests
BLOCK_CASES = [pytest.param(rule, (5, 4, 2), id=f"{rule}-5x4x2") for rule in RULES] + [
    pytest.param(rule, (5, 5, 3), id=f"{rule}-5x5x3") for rule in ("maxmin", "random", "qr-greedy")
]


def diag_columns(norms):
    """Mutually orthogonal columns with the given squared norms."""
    n = len(norms)
    return np.diag(np.sqrt(np.asarray(norms, dtype=float))).astype(complex) if n else None


class TestEnumeration:
    def test_three_choose_two(self):
        subsets = enumerate_subsets(3, 2)
        assert [s.indices for s in subsets] == [(0, 1), (0, 2), (1, 2)]

    def test_leading_block_contains_first_antenna(self):
        subsets = enumerate_subsets(4, 2)
        assert len(subsets) == 6
        assert all(0 in s.indices for s in subsets[:3])
        assert all(0 not in s.indices for s in subsets[3:])

    def test_full_subset(self):
        assert enumerate_subsets(3, 3)[0].indices == (0, 1, 2)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            enumerate_subsets(2, 3)
        with pytest.raises(ValueError):
            enumerate_subsets(3, 0)

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            AntennaSubset((1, 1))
        with pytest.raises(ValueError):
            AntennaSubset((2, 1))
        with pytest.raises(ValueError, match="antenna subset cannot be empty"):
            AntennaSubset(())


class TestShortAxisArgmax:
    @pytest.mark.parametrize("rows", [1, 2, 3, 6])
    def test_matches_argmax_with_ties(self, rows):
        # few distinct values make ties common, including rows 0 and the last
        a = np.random.default_rng(rows).integers(0, 3, size=(rows, 400)).astype(float)
        a[:, 0] = 1.0
        a[:, 1] = -np.inf
        top, arg = _max_argmax(a)
        np.testing.assert_array_equal(top, a.max(axis=0))
        np.testing.assert_array_equal(arg, a.argmax(axis=0))


class TestSubsetMetrics:
    def test_orthonormal(self):
        H = np.eye(3, dtype=complex)
        m = subset_metrics(H, AntennaSubset((0, 1)))
        assert m.heights == pytest.approx((1.0, 1.0))
        assert m.min_height == pytest.approx(1.0)

    def test_collinear_pair(self):
        H = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
        m = subset_metrics(H, AntennaSubset((0, 1)))
        assert m.heights == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_hand_pair(self):
        H = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]], dtype=complex)
        m = subset_metrics(H, AntennaSubset((0, 1)))
        assert m.heights == pytest.approx((0.5, 0.5), rel=1e-12)
        assert m.min_height == pytest.approx(0.5, rel=1e-12)


class TestMaxMin:
    def test_single_subset(self):
        H = rand_matrix(2, 2, seed=1)
        out = select("maxmin", H, 2)
        assert out.subset.indices == (0, 1)
        assert out.decode_order == (0, 1)

    def test_tie_breaking_duplicate_column(self):
        # columns 0 and 1 orthonormal, column 2 repeats column 0: subsets
        # {0,1} and {1,2} tie at min height 1, {0,2} collapses to 0
        H = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=complex)
        out = select("maxmin", H, 2)
        assert out.subset.indices == (0, 1)
        assert out.metrics.min_height == pytest.approx(1.0)

    def test_scaling_invariance(self):
        H = rand_matrix(3, 4, seed=2)
        for c in (2.0, 1j, -0.25):
            assert select("maxmin", c * H, 2).subset == select("maxmin", H, 2).subset

    def test_brute_force_optimality(self):
        for n_t, n_r, L in ((4, 2, 2), (5, 3, 3), (6, 3, 2)):
            for stream in range(5):
                H = rand_matrix(n_r, n_t, seed=3, stream=stream)
                best = select("maxmin", H, L)
                for subset in enumerate_subsets(n_t, L):
                    assert best.metrics.min_height >= subset_metrics(H, subset).min_height - 1e-12


class TestFirstLayerFixed:
    def test_two_antennas(self):
        H = rand_matrix(2, 2, seed=4)
        out = select("first-fixed", H, 2)
        assert out.subset.indices == (0, 1)
        assert out.decode_order == (0, 1)

    def test_orthogonal_norms(self):
        # orthogonal columns: the height of k against anything is its norm,
        # and only pairs with k < j compete, so norm 4 at index 0 wins and
        # the smaller-index stream is decoded first
        H = diag_columns([4.0, 1.0, 9.0])
        out = select("first-fixed", H, 2)
        assert out.subset.indices == (0, 1)
        assert out.decode_order == (0, 1)
        assert out.metrics.heights[0] == pytest.approx(4.0)

    def test_first_layer_value_is_max_over_ordered_pairs(self):
        H = rand_matrix(3, 4, seed=5)
        out = select("first-fixed", H, 2)
        values = {
            (k, j): subset_metrics(H, AntennaSubset((k, j))).heights[0]
            for k, j in itertools.combinations(range(4), 2)
        }
        assert out.metrics.heights[out.decode_order[0]] == pytest.approx(max(values.values()), rel=1e-12)

    def test_scaling_invariance(self):
        H = rand_matrix(3, 4, seed=6)
        assert select("first-fixed", 2j * H, 2).subset == select("first-fixed", H, 2).subset

    def test_requires_two_streams(self):
        with pytest.raises(ValueError):
            select("first-fixed", rand_matrix(3, 3), 3)


class TestFirstLayerOrdered:
    def test_two_antennas_orders_by_norm(self):
        H = diag_columns([9.0, 1.0])
        out = select("first-ordered", H, 2)
        assert out.subset.indices == (0, 1)
        assert out.decode_order == (0, 1)  # stream 0 has the larger height

    def test_orthogonal_norms_picks_global_best(self):
        # norm 9 at index 2 now competes through the reversed pair order
        H = diag_columns([4.0, 1.0, 9.0])
        out = select("first-ordered", H, 2)
        assert out.subset.indices == (0, 2)
        assert out.decode_order == (1, 0)  # column 2's stream decoded first

    def test_matches_fixed_when_best_height_has_smaller_index(self):
        H = diag_columns([9.0, 4.0, 1.0])
        fixed = select("first-fixed", H, 2)
        ordered = select("first-ordered", H, 2)
        assert fixed.subset == ordered.subset
        assert ordered.decode_order == (0, 1)

    def test_forward_height_wins_an_exact_cross_pair_tie(self):
        # height 4 is reached backward in (0,1) and (0,2) and both ways in
        # (1,2): a forward height beats any backward one
        out = select("first-ordered", diag_columns([1.0, 4.0, 4.0]), 2)
        assert out.subset.indices == (1, 2)
        assert out.decode_order == (0, 1)

    def test_scaling_invariance(self):
        H = rand_matrix(3, 4, seed=7)
        assert select("first-ordered", -3.0 * H, 2).subset == select("first-ordered", H, 2).subset


class TestQrGreedy:
    def test_orthogonal_norms(self):
        H = diag_columns([1.0, 4.0, 9.0])
        out = select("qr-greedy", H, 2)
        assert out.subset.indices == (1, 2)
        # selected 2 then 1; decoding reverses: column 1's stream first
        assert out.decode_order == (0, 1)

    def test_full_selection(self):
        H = rand_matrix(3, 3, seed=8)
        out = select("qr-greedy", H, 3)
        assert out.subset.indices == (0, 1, 2)

    def test_first_pick_has_max_norm(self):
        for stream in range(20):
            H = rand_matrix(3, 5, seed=9, stream=stream)
            out = select("qr-greedy", H, 2)
            first_selected = out.subset.indices[out.decode_order[-1]]
            norms = np.real(np.einsum("rt,rt->t", H.conj(), H))
            assert norms[first_selected] == norms.max()

    def test_stepwise_optimality(self):
        H = rand_matrix(4, 5, seed=10)
        out = select("qr-greedy", H, 3)
        selection = [out.subset.indices[p] for p in reversed(out.decode_order)]
        for step in range(3):
            chosen = selection[step]
            span = selection[:step]
            got = projection_height_sq(H, chosen, span).height_sq
            for j in range(5):
                if j in selection[:step + 1]:
                    continue
                assert got >= projection_height_sq(H, j, span).height_sq - 1e-12

    def test_builds_no_subset_table(self, monkeypatch):
        # C(40, 20) subsets would take 1.4e11 rows; the greedy reads none
        def no_table(n_t, L):
            raise AssertionError(f"subset table of C({n_t}, {L}) rows built")

        monkeypatch.setattr(selection, "_subsets", no_table)
        (n_t, n_r, L), draws, seed = (40, 40, 20), 64, 35
        H = complex_gaussian(stream_generator(seed, 0), (draws, n_r, n_t))
        cols = select_block("qr-greedy", H, L)
        scalars = []
        for b in range(draws):
            out = select("qr-greedy", H[b], L)
            assert tuple(cols[b]) == tuple(out.subset.indices[p] for p in out.decode_order)
            scalars.append(out.metrics.heights[out.decode_order[0]])  # the first decoded layer
        # estimate_outage draws the same block first; thresholds between the
        # replayed scalars count them exactly
        ranked = np.sort(scalars)
        grid = tuple((ranked[1:] + ranked[:-1])[::8] / 2)
        config = ExperimentConfig(n_t, n_r, L, "qr-greedy", trial_count=draws, master_seed=seed, grid=grid)
        assert estimate_outage(config).hits == tuple(range(1, draws, 8))


class TestRandomRule:
    def test_deterministic_when_single_subset(self):
        H = rand_matrix(2, 2, seed=11)
        out = select("random", H, 2, stream_generator(0, 0))
        assert out.subset.indices == (0, 1)

    def test_uniform_frequencies(self):
        H = rand_matrix(3, 3, seed=12)
        rng = stream_generator(1, 0)
        counts = np.zeros(3)
        n = 6000
        for _ in range(n):
            idx = select("random", H, 2, rng).subset.indices
            counts[[s.indices for s in enumerate_subsets(3, 2)].index(idx)] += 1
        expected = n / 3
        sigma = np.sqrt(n * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - expected) < 3.5 * sigma)

    def test_choice_ignores_channel_values(self):
        a = select("random", rand_matrix(3, 3, seed=13), 2, stream_generator(2, 0))
        b = select("random", rand_matrix(3, 3, seed=14), 2, stream_generator(2, 0))
        assert a.subset == b.subset


class TestCrossRuleProperties:
    @pytest.mark.parametrize("rule", ["maxmin", "first-fixed", "first-ordered", "qr-greedy"])
    def test_column_permutation_equivariance(self, rule):
        H = rand_matrix(3, 4, seed=15)
        perm = (2, 0, 3, 1)
        out_p = select(rule, H[:, perm], 2)
        if rule == "first-fixed":
            # first-fixed decodes the smaller index first, so relabelling the
            # columns changes which height each pair is judged by: on H[:, perm]
            # it picks the pair {perm[k], perm[j]}, k < j, with the largest
            # height of perm[k] against perm[j]
            k, j = max(itertools.combinations(range(4), 2),
                       key=lambda kj: projection_height_sq(H, perm[kj[0]], (perm[kj[1]],)).height_sq)
            assert {perm[i] for i in out_p.subset.indices} == {perm[k], perm[j]}
        else:
            out = select(rule, H, 2)
            mapped = tuple(sorted(perm.index(i) for i in out.subset.indices))
            assert out_p.subset.indices == mapped

    def test_maxmin_dominates_every_rule_per_draw(self):
        for stream in range(50):
            H = rand_matrix(3, 3, seed=16, stream=stream)
            rng = stream_generator(17, stream)
            best = select("maxmin", H, 2).metrics.min_height
            for rule in ("first-fixed", "first-ordered", "qr-greedy", "random"):
                other = select(rule, H, 2, rng)
                assert best >= other.metrics.min_height - 1e-12


class TestBatchOfOne:
    @pytest.mark.parametrize("rule,dims", BLOCK_CASES)
    def test_select_is_a_row_of_select_block(self, rule, dims):
        n_t, n_r, L = dims
        H = complex_gaussian(stream_generator(21, 0), (100, n_r, n_t))
        cols = select_block(rule, H, L, stream_generator(21, 1))
        rng = stream_generator(21, 1)
        for b in range(100):
            out = select(rule, H[b], L, rng)
            assert out.rule == rule
            assert out.subset.indices == tuple(sorted(cols[b]))
            assert tuple(out.subset.indices[p] for p in out.decode_order) == tuple(cols[b])
            assert out.metrics == subset_metrics(H[b], out.subset)

    @pytest.mark.parametrize("rule,H,L,rng", [
        pytest.param("best-effort", rand_matrix(3, 3), 2, None, id="unknown-rule"),
        pytest.param("random", rand_matrix(3, 3), 2, None, id="random-without-rng"),
        pytest.param("first-ordered", rand_matrix(4, 4), 3, None, id="first-layer-at-L3"),
        pytest.param("maxmin", np.array([[1.0, np.nan], [0.0, 1.0]]), 2, None, id="non-finite"),
        pytest.param("qr-greedy", rand_matrix(2, 4), 3, None, id="fewer-rows-than-streams"),
    ])
    def test_select_rejects(self, rule, H, L, rng):
        with pytest.raises(ValueError):
            select(rule, H, L, rng)

    @pytest.mark.parametrize("rule,dims,has_rng", [
        pytest.param("best-effort", (3, 3, 2), True, id="unknown-rule"),
        pytest.param("random", (3, 3, 2), False, id="random-without-rng"),
        pytest.param("first-fixed", (4, 4, 3), True, id="first-fixed-at-L3"),
        pytest.param("first-ordered", (4, 4, 3), True, id="first-ordered-at-L3"),
        *[pytest.param(rule, (4, 2, 3), True, id=f"fewer-rows-than-streams-{rule}")
          for rule in ("maxmin", "qr-greedy", "random")],
        *[pytest.param(rule, (3, 1, 2), True, id=f"one-row-two-streams-{rule}") for rule in RULES],
        *[pytest.param(rule, (3, 4, 4), True, id=f"more-streams-than-columns-{rule}")
          for rule in ("maxmin", "qr-greedy", "random")],
        *[pytest.param(rule, (3, 3, 0), True, id=f"no-streams-{rule}") for rule in ("maxmin", "qr-greedy", "random")],
    ])
    def test_select_block_rejects_what_select_rejects(self, rule, dims, has_rng):
        # before one check served both, select_block returned columns for
        # fewer rows than streams, repeated columns for more streams than
        # columns, and AttributeError for random without an rng
        n_t, n_r, L = dims
        H = complex_gaussian(stream_generator(24, 0), (4, n_r, n_t))
        for call in (lambda rng: select_block(rule, H, L, rng), lambda rng: select(rule, H[0], L, rng)):
            with pytest.raises(ValueError):
                call(stream_generator(24, 1) if has_rng else None)


class TestDeadAntenna:
    """An all-zero column: every height against it is the other column's
    norm and every subset holding it has worst-stream height 0."""

    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("dead", [0, 2, 4], ids=["first", "middle", "last"])
    def test_every_rule_matches_the_qr_oracle(self, L, dead):
        H = complex_gaussian(stream_generator(22, dead), (40, 5, 5))
        H[:, :, dead] = 0
        for rule in RULES if L == 2 else ("maxmin", "random", "qr-greedy"):
            cols = select_block(rule, H, L, stream_generator(23, 0))
            scalars = _rule_pass((rule,), H, L, stream_generator(23, 0))[0]
            rng = stream_generator(23, 0)
            for b in range(40):
                expected = reference_columns(rule, H[b], L, rng)
                assert tuple(cols[b]) == expected, rule
                assert scalars[b] == pytest.approx(reference_scalar(rule, H[b], expected), rel=1e-9)

    @pytest.mark.parametrize("dead", [(2,), (1, 3)], ids=["one", "two"])
    def test_kernel_heights(self, dead):
        H = complex_gaussian(stream_generator(24, 0), (30, 5, 5))
        H[:, :, list(dead)] = 0
        norms, fwd, bwd = _pair_table(H)
        for p, (i, j) in enumerate(_subsets(5, 2)):
            if j in dead:
                np.testing.assert_array_equal(fwd[p], norms[i])
            if i in dead:
                np.testing.assert_array_equal(bwd[p], norms[j])
        ranks = [p for p, subset in enumerate(_subsets(5, 3)) if set(subset) & set(dead)]
        for first, heights in _lattice_heights(_gram(H), 3):
            for p, row in enumerate(heights, start=first):
                if p in ranks:
                    np.testing.assert_array_equal(row, 0.0)
                else:
                    assert np.all(row > 0)


class TestPairTable:
    @pytest.mark.parametrize("lanes", [selection._PAIR_LANES, 7])
    @pytest.mark.parametrize("n_t,n_r", [(3, 3), (4, 5), (5, 4), (2, 6)])
    def test_equals_the_gather_reference(self, pass_lanes, n_t, n_r, lanes):
        # random draws, a dead column and a duplicated column, over two or
        # more passes of the width under test
        H = complex_gaussian(stream_generator(28, n_t), (lanes + 37, n_r, n_t))
        H[:10, :, n_t - 1] = 0
        H[10:20, :, 0] = H[10:20, :, 1]
        widths = pass_lanes(lanes)
        table = _pair_table(H)
        assert max(widths) == lanes and len(widths) >= 2
        for name, got, expected in zip(("norms", "fwd", "bwd"), table, reference_pair_table(H)):
            assert np.array_equal(got, expected), name


class TestScalarReductions:
    """Each rule's outage scalar from a multi-rule scalar pass is the
    QR-route scalar of the columns a multi-rule column pass selects, which
    returns no scalars; the columns are those of the rule's own
    :func:`select_block` call."""

    @staticmethod
    def block():
        # random draws, a dead column, a duplicated column (maxmin ties)
        # and orthogonal columns with equal norms (cross-pair ties)
        H = complex_gaussian(stream_generator(26, 0), (60, 5, 5))
        H[10:20, :, 2] = 0
        H[20:30, :, 4] = H[20:30, :, 0]
        H[30:40] = diag_columns([1.0, 4.0, 4.0, 1.0, 4.0])
        H[40:50] = diag_columns([1.0, 1.0, 1.0, 1.0, 1.0])
        return H

    @pytest.mark.parametrize("lanes", [2048, 7])
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_every_rule_equals_its_kernel(self, pass_lanes, L, lanes):
        widths = pass_lanes(lanes)
        H = self.block()
        rules = [rule for rule in RULES if L == 2 or not rule.startswith("first")]
        cols = np.empty((len(rules), len(H), L), dtype=np.int64)
        assert _rule_pass(rules, H, L, stream_generator(27, 0), cols) is None
        assert max(widths) == min(lanes, len(H))
        together = _rule_pass(rules, H, L, stream_generator(27, 0))
        for rule, row, rule_cols in zip(rules, together, cols):
            np.testing.assert_array_equal(rule_cols, select_block(rule, H, L, stream_generator(27, 0)), err_msg=rule)
            np.testing.assert_array_equal(_rule_pass((rule,), H, L, stream_generator(27, 0))[0], row, err_msg=rule)
            # subsets holding the dead or the duplicated column have height 0
            # on the QR route and a rounding residue on the Gram route
            expected = [reference_scalar(rule, H[b], tuple(rule_cols[b])) for b in range(len(H))]
            np.testing.assert_allclose(row, expected, rtol=1e-9, atol=1e-12, err_msg=rule)
        assert np.all(together[rules.index("maxmin"), 10:20] > 0)


class TestCollinearColumns:
    def test_maxmin_avoids_a_dependent_pair(self):
        # column 3 is a multiple of column 1, so every subset holding both has
        # height 0; a lattice prefix holding both gets a pivot near zero, of
        # either sign after rounding.  A subset holding 1 and the same subset
        # holding 3 tie exactly when their worst stream is another column, and
        # the lattice and the QR oracle break such ties by rounding, so the
        # pick is judged by its worst-stream height
        H = complex_gaussian(stream_generator(25, 0), (100, 5, 6))
        H[:, :, 3] = (0.3 + 0.2j) * H[:, :, 1]
        cols = select_block("maxmin", H, 4)
        for b in range(100):
            assert not {1, 3} <= set(cols[b])
            expected = reference_columns("maxmin", H[b], 4)
            assert reference_scalar("maxmin", H[b], cols[b]) == pytest.approx(
                reference_scalar("maxmin", H[b], expected), rel=1e-12)
