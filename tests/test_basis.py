"""Basis construction: Chebyshev recurrences, index maps, tensor blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_do.basis import (BasisConfig, cheb_eval, cheb_series, flat_to_multi,
                              multi_to_flat, structure_matrices)
from coupled_do.oracles import separated_eval_brute


class TestChebEval:
    def test_order_zero_is_one(self):
        assert cheb_eval(0, 0.7) == 1.0

    def test_closed_forms(self):
        assert cheb_eval(2, 0.5) == pytest.approx(-0.5, abs=1e-15)   # 2 tau^2 - 1
        assert cheb_eval(3, 0.5) == pytest.approx(-1.0, abs=1e-15)   # 4 tau^3 - 3 tau

    def test_matches_numpy_chebval(self):
        # numpy's Chebyshev module is an independent evaluation route
        rng = np.random.default_rng(1)
        for k in range(9):
            unit = np.zeros(k + 1)
            unit[k] = 1.0
            for tau in rng.uniform(-2.0, 2.0, 20):   # includes out-of-domain points
                assert cheb_eval(k, tau) == pytest.approx(
                    np.polynomial.chebyshev.chebval(tau, unit), rel=1e-12, abs=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            cheb_eval(-1, 0.0)

    def test_vectorized(self):
        taus = np.linspace(-1, 1, 7)
        assert np.allclose(cheb_eval(2, taus), 2 * taus**2 - 1)


class TestIndexMaps:
    @pytest.mark.parametrize("h, p, dims, expected", [
        (0, 2, 2, (0, 0)),
        (5, 2, 2, (2, 1)),
        (8, 2, 2, (2, 2)),
    ])
    def test_examples(self, h, p, dims, expected):
        assert flat_to_multi(h, p, dims) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            flat_to_multi(9, 2, 2)
        with pytest.raises(ValueError):
            flat_to_multi(-1, 2, 2)

    def test_round_trip_exhaustive(self):
        for p in range(4):
            for dims in range(1, 4):
                for h in range((p + 1) ** dims):
                    assert multi_to_flat(flat_to_multi(h, p, dims), p) == h

    @given(p=st.integers(0, 6), dims=st.integers(1, 4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, p, dims, data):
        h = data.draw(st.integers(0, (p + 1) ** dims - 1))
        digits = flat_to_multi(h, p, dims)
        assert len(digits) == dims
        assert all(0 <= k <= p for k in digits)
        assert multi_to_flat(digits, p) == h


class TestPiVector:
    def test_order_zero(self):
        cfg = BasisConfig(p=0, n=3)
        assert np.array_equal(cfg.pi_vector([0.3, -4.0, 7.0]), [1.0])

    def test_scalar_state(self):
        cfg = BasisConfig(p=2, n=1)
        assert np.allclose(cfg.pi_vector([0.5]), [1.0, 0.5, -0.5])

    def test_two_dims_ordering(self):
        a, b = 0.4, -0.8
        cfg = BasisConfig(p=1, n=2)
        assert np.allclose(cfg.pi_vector([a, b]), [1.0, a, b, a * b])

    def test_against_index_enumeration(self):
        rng = np.random.default_rng(4)
        cfg = BasisConfig(p=2, n=2)
        x = rng.uniform(-1, 1, 2)
        pi = cfg.pi_vector(x)
        for h in range(len(pi)):
            ks = flat_to_multi(h, 2, 2)
            assert pi[h] == pytest.approx(
                cheb_eval(ks[0], x[0]) * cheb_eval(ks[1], x[1]), rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BasisConfig(p=1, n=2).pi_vector([1.0])

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_bit_identical_to_reference_chains(self, n):
        # reference loops for the two shapes: an outer-product chain on one
        # state, and a row-wise chain from a column of ones on a batch
        def chain(tables):                       # tables (p+1, n)
            acc = tables[:, 0]
            for i in range(1, tables.shape[1]):
                acc = (tables[:, i, None] * acc).ravel()
            return acc

        def rows(v):                             # v (N, n)
            tables = cheb_series(p, v)
            acc = np.ones((len(v), 1))
            for i in range(v.shape[1]):
                ti = tables[:, :, i].T
                acc = (ti[:, :, None] * acc[:, None, :]).reshape(len(v), -1)
            return acc

        rng = np.random.default_rng(n)
        for p in range(5):
            for normalize in (False, True):
                cfg = BasisConfig(p=p, n=n, x_box=(-2.0, 3.0), normalize=normalize)
                x = rng.uniform(-3.0, 4.0, (20, n))
                v = cfg.normalize_state(x)
                assert np.array_equal(cfg.pi_rows(x), rows(v))
                for xi, vi in zip(x, v):
                    assert np.array_equal(cfg.pi_vector(xi), chain(cheb_series(p, vi)))


class TestBMatrix:
    def test_order_zero(self):
        assert np.array_equal(BasisConfig(p=0, n=1).b_matrix([3.0]), [[1.0]])

    def test_block_placement(self):
        B = BasisConfig(p=1, n=1).b_matrix([0.3])
        assert B.shape == (4, 2)
        assert np.allclose(B[:, 0], [1.0, 0.3, 0.0, 0.0])
        assert np.allclose(B[:, 1], [0.0, 0.0, 1.0, 0.3])

    def test_separation_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = int(rng.integers(0, 3))
            n = int(rng.integers(1, 3))
            cfg = BasisConfig(p=p, n=n)
            theta = rng.standard_normal((n, cfg.s1))
            x = rng.uniform(-1, 1, n)
            t = rng.uniform(-1, 1)
            fast = theta @ cfg.b_matrix(x) @ cfg.xi_vector(t)
            assert np.allclose(fast, separated_eval_brute(theta, cfg, x, t), atol=1e-12)


class TestXiVector:
    def test_at_one_all_ones(self):
        assert np.allclose(BasisConfig(p=2, n=1).xi_vector([1.0]), [1, 1, 1])

    def test_at_zero_pattern(self):
        assert np.allclose(BasisConfig(p=3, n=1).xi_vector([0.0]), [1, 0, -1, 0])

    def test_dimension_mismatch(self):
        cfg = BasisConfig(p=1, n=1)
        for t in ([0.2, 1.0], [[0.5]], []):
            with pytest.raises(ValueError):
                cfg.xi_vector(t)


class TestStructureMatrices:
    def test_d_small(self):
        D, _ = structure_matrices(3)
        assert np.array_equal(D, [[1, 0, 0], [0, 1, 0], [-1, 0, 2]])

    def test_a_small(self):
        _, A = structure_matrices(3)
        assert np.array_equal(A, [[0, 0, 0], [1, 0, 0], [0, 2, 0]])

    def test_d_row_four(self):
        D, _ = structure_matrices(4)
        assert np.array_equal(D[3], [0, -3, 0, 4])

    def test_d_rows_match_numpy_conversion(self):
        D, _ = structure_matrices(8)
        for k in range(8):
            unit = np.zeros(k + 1)
            unit[k] = 1.0
            mono = np.polynomial.chebyshev.cheb2poly(unit)
            assert np.allclose(D[k, :k + 1], mono, atol=1e-12)

    def test_nilpotency_exact(self):
        for s2 in range(1, 9):
            _, A = structure_matrices(s2)
            assert not np.any(np.linalg.matrix_power(A, s2))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            structure_matrices(0)


class TestMonomialVector:
    def test_values(self):
        cfg = BasisConfig(p=2, n=1)
        assert np.array_equal(cfg.monomial_vector(0.0), [1, 0, 0])
        assert np.array_equal(cfg.monomial_vector(2.0), [1, 2, 4])

    @given(st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_chebyshev_identity(self, s2):
        cfg = BasisConfig(p=s2 - 1, n=1)
        D, _ = structure_matrices(s2)
        rng = np.random.default_rng(s2)
        for t in rng.uniform(-1, 1, 100):
            assert np.abs(cfg.xi_vector([t]) - D @ cfg.monomial_vector(t)).max() < 1e-12

    def test_derivative_via_companion(self):
        # central difference error falls ~4x when h halves (degree >= 3)
        cfg = BasisConfig(p=5, n=1)
        _, A = structure_matrices(6)
        t0 = 0.3
        errs = []
        for h in (1e-2, 5e-3):
            fd = (cfg.monomial_vector(t0 + h) - cfg.monomial_vector(t0 - h)) / (2 * h)
            errs.append(np.linalg.norm(fd - A @ cfg.monomial_vector(t0)))
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestNormalization:
    def test_affine_map(self):
        cfg = BasisConfig(p=1, n=1, x_box=(0.0, 10.0), t_box=(0.0, 4.0), normalize=True)
        assert cfg.normalize_state(np.array([5.0]))[0] == pytest.approx(0.0)
        assert cfg.normalize_state(np.array([10.0]))[0] == pytest.approx(1.0)
        assert cfg.normalize_feature(np.array([0.0]))[0] == pytest.approx(-1.0)

    def test_off_by_default(self):
        cfg = BasisConfig(p=1, n=1, x_box=(0.0, 10.0))
        assert np.array_equal(cfg.normalize_state(np.array([5.0])), [5.0])

    def test_model_value_invariant_under_normalization(self):
        # evaluating through the normalizing basis at raw inputs equals
        # evaluating the raw basis at pre-normalized inputs
        rng = np.random.default_rng(11)
        norm_cfg = BasisConfig(p=3, n=1, x_box=(-2.0, 2.0), t_box=(0.0, 4.0), normalize=True)
        raw_cfg = BasisConfig(p=3, n=1, normalize=False)
        theta = rng.standard_normal((1, norm_cfg.s1))
        for _ in range(20):
            x = rng.uniform(-2, 2)
            t = rng.uniform(0, 4)
            through_norm = theta @ norm_cfg.b_matrix([x]) @ norm_cfg.xi_vector([t])
            xh = norm_cfg.normalize_state(np.array([x]))
            th = norm_cfg.normalize_feature(np.array([t]))
            direct = theta @ raw_cfg.b_matrix(xh) @ raw_cfg.xi_vector(th)
            assert through_norm[0] == pytest.approx(direct[0], rel=1e-12, abs=1e-12)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            BasisConfig(p=1, n=1, x_box=(2.0, -2.0))


class TestSizes:
    def test_s1_s2(self):
        cfg = BasisConfig(p=2, n=1)
        assert (cfg.s1, cfg.s2) == (9, 3)
        cfg = BasisConfig(p=2, n=2)
        assert (cfg.s1, cfg.s2) == (27, 3)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            BasisConfig(p=-1, n=1)
        with pytest.raises(ValueError):
            BasisConfig(p=1, n=0)

    def test_design_rows_match_b_xi(self):
        rng = np.random.default_rng(3)
        cfg = BasisConfig(p=2, n=2)
        x = rng.uniform(-1, 1, (5, 2))
        t = rng.uniform(-1, 1, 5)
        rows = cfg.design_rows(x, t)
        for i in range(5):
            assert np.allclose(rows[i], cfg.b_matrix(x[i]) @ cfg.xi_vector(t[i]), atol=1e-13)
        for bad in (t[:1], t[:, None]):      # one time per state row, as a flat vector
            with pytest.raises(ValueError):
                cfg.design_rows(x, bad)
