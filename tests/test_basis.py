"""Basis construction: Chebyshev recurrences, the state basis, design rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_do.basis import BasisConfig, cheb_series, structure_matrices
from coupled_do.errors import ConfigError
from coupled_do.oracles import projection_oracle, separated_eval_brute


class TestChebEval:
    def test_order_zero_is_one(self):
        out = cheb_series(0, 0.7)                 # a float gives an array too
        assert isinstance(out, np.ndarray) and np.array_equal(out, [1.0])

    def test_closed_forms(self):
        assert cheb_series(2, 0.5)[2] == pytest.approx(-0.5, abs=1e-15)   # 2 tau^2 - 1
        assert cheb_series(3, 0.5)[3] == pytest.approx(-1.0, abs=1e-15)   # 4 tau^3 - 3 tau

    def test_matches_numpy_chebval(self):
        # numpy's Chebyshev module is an independent evaluation route
        rng = np.random.default_rng(1)
        for k in range(9):
            unit = np.zeros(k + 1)
            unit[k] = 1.0
            for tau in rng.uniform(-2.0, 2.0, 20):   # includes out-of-domain points
                assert cheb_series(k, tau)[k] == pytest.approx(
                    np.polynomial.chebyshev.chebval(tau, unit), rel=1e-12, abs=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            cheb_series(-1, 0.0)

    def test_vectorized(self):
        taus = np.linspace(-1, 1, 7)
        assert np.allclose(cheb_series(2, taus)[2], 2 * taus**2 - 1)


def xi_of(cfg, t):
    """xi(t) read off one design row: entry 0 of every Pi block is T_0 = 1."""
    return cfg.design_rows(np.zeros((1, 1)), [t])[0, ::cfg.s2]


class TestPiVector:
    def test_order_zero(self):
        cfg = BasisConfig(p=0)
        assert np.array_equal(cfg.pi_rows([[0.3], [-4.0], [7.0]]), [[1.0], [1.0], [1.0]])

    def test_scalar_state(self):
        cfg = BasisConfig(p=2, n=1)
        assert np.allclose(cfg.pi_rows([[0.5]]), [[1.0, 0.5, -0.5]])

    def test_against_index_enumeration(self):
        # entry h of Pi(x) is T_h(x)
        rng = np.random.default_rng(4)
        cfg = BasisConfig(p=4)
        x = rng.uniform(-1, 1, 1)
        pi = cfg.pi_rows(x[None])[0]
        assert len(pi) == cfg.s2
        for h in range(len(pi)):
            assert pi[h] == pytest.approx(cheb_series(h, x[0])[h], rel=1e-14)

    def test_dimension_mismatch(self):
        cfg = BasisConfig(p=1)
        for x in ([[1.0, 2.0]], [1.0, 2.0], [[[1.0]]]):   # one state column, as a batch
            with pytest.raises(ValueError):
                cfg.pi_rows(x)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_bit_identical_to_reference_chains(self, seed):
        # the recurrence's table on a batch and on a batch of one row (the
        # observer's case), on the raw and the mapped states alike
        rng = np.random.default_rng(seed)
        lo, hi = -2.0, 3.0
        for p in range(5):
            for normalize in (False, True):
                cfg = BasisConfig(p=p, x_box=(lo, hi), normalize=normalize)
                x = rng.uniform(-3.0, 4.0, (20, 1))
                v = 2.0 * (x - lo) / (hi - lo) - 1.0 if normalize else x
                assert np.array_equal(cfg.pi_rows(x), cheb_series(p, v)[:, :, 0].T)
                for xi, vi in zip(x, v):
                    assert np.array_equal(cfg.pi_rows(xi[None])[0], cheb_series(p, vi[0]))


class TestBMatrix:
    # B(x) xi(t) through the design rows: column j of B(x) holds Pi(x)
    # in block j, so a row is kron(xi(t), Pi(x))

    def test_order_zero(self):
        assert np.array_equal(BasisConfig(p=0, n=1).design_rows([[3.0]], [0.7]), [[1.0]])

    def test_block_placement(self):
        row = BasisConfig(p=1, n=1).design_rows([[0.3]], [0.5])
        assert row.shape == (1, 4)
        assert np.allclose(row[0], [1.0, 0.3, 0.5, 0.5 * 0.3])

    def test_separation_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = int(rng.integers(0, 4))
            cfg = BasisConfig(p=p)
            theta = rng.standard_normal((1, cfg.s1))
            x = rng.uniform(-1, 1, 1)
            t = rng.uniform(-1, 1)
            fast = theta @ cfg.design_rows(x[None], [t])[0]
            assert np.allclose(fast, separated_eval_brute(theta, cfg, x, t), atol=1e-12)


class TestOracleIndependence:
    def test_brute_force_routes_avoid_cheb_series(self, monkeypatch):
        rng = np.random.default_rng(9)
        cfg = BasisConfig(p=3, x_box=(-2.0, 2.0), t_box=(0.0, 4.0), normalize=True)
        theta = rng.standard_normal((1, cfg.s1))
        x, t = rng.uniform(-2.0, 2.0, 1), 1.3
        fast = theta @ cfg.design_rows(x[None], [t])[0]

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle called basis.cheb_series")
        monkeypatch.setattr("coupled_do.basis.cheb_series", forbidden)

        assert np.allclose(separated_eval_brute(theta, cfg, x, t), fast, rtol=1e-12, atol=1e-12)
        # -v^2 + 50 - 10 t - t^2 / 2 in T_k(v) T_l(t), row-major over (l, k)
        proj = projection_oracle(lambda v, t: -v**2 + 50.0 - 10.0 * t - 0.5 * t**2,
                                 2, (-10.0, 10.0), (0.0, 100.0))
        expected = [49.25, 0.0, -0.5, -10.0, 0.0, 0.0, -0.25, 0.0, 0.0]
        assert np.allclose(proj, expected, rtol=0.0, atol=1e-9)


class TestXiVector:
    def test_at_one_all_ones(self):
        assert np.array_equal(xi_of(BasisConfig(p=2, n=1), 1.0), [1, 1, 1])

    def test_at_zero_pattern(self):
        assert np.allclose(xi_of(BasisConfig(p=3, n=1), 0.0), [1, 0, -1, 0])

    def test_dimension_mismatch(self):
        cfg = BasisConfig(p=1, n=1)
        for t in ([0.2, 1.0], [[0.5]], []):       # one time per state row
            with pytest.raises(ValueError):
                cfg.design_rows([[0.0]], t)


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
    @given(st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_chebyshev_identity(self, s2):
        cfg = BasisConfig(p=s2 - 1, n=1)
        D, _ = structure_matrices(s2)
        rng = np.random.default_rng(s2)
        for t in rng.uniform(-1, 1, 100):
            assert np.abs(xi_of(cfg, t) - D @ t ** np.arange(s2)).max() < 1e-12

    def test_derivative_via_companion(self):
        # central difference error falls ~4x when h halves (degree >= 3)
        powers = np.arange(6)
        _, A = structure_matrices(6)
        t0 = 0.3
        errs = []
        for h in (1e-2, 5e-3):
            fd = ((t0 + h) ** powers - (t0 - h) ** powers) / (2 * h)
            errs.append(np.linalg.norm(fd - A @ t0 ** powers))
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestNormalization:
    def test_affine_map(self):
        cfg = BasisConfig(p=1, n=1, x_box=(0.0, 10.0), t_box=(0.0, 4.0), normalize=True)
        assert cfg.pi_rows([[5.0], [10.0]])[:, 1] == pytest.approx([0.0, 1.0])
        assert xi_of(cfg, 0.0)[1] == pytest.approx(-1.0)

    def test_off_by_default(self):
        cfg = BasisConfig(p=1, n=1, x_box=(0.0, 10.0), t_box=(0.0, 4.0))
        assert np.array_equal(cfg.pi_rows([[5.0]]), [[1.0, 5.0]])
        assert xi_of(cfg, 3.0)[1] == 3.0

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
            through_norm = theta @ norm_cfg.design_rows([[x]], [t])[0]
            xh, th = x / 2.0, t / 2.0 - 1.0
            direct = theta @ raw_cfg.design_rows([[xh]], [th])[0]
            assert through_norm[0] == pytest.approx(direct[0], rel=1e-12, abs=1e-12)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            BasisConfig(p=1, n=1, x_box=(2.0, -2.0))


class TestSizes:
    def test_s1_s2(self):
        cfg = BasisConfig(p=2, n=1)
        assert (cfg.s1, cfg.s2) == (9, 3)
        cfg = BasisConfig(p=3)
        assert (cfg.s1, cfg.s2) == (16, 4)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            BasisConfig(p=-1, n=1)
        with pytest.raises(ValueError):
            BasisConfig(p=1, n=0)
        # the basis spans one state channel
        with pytest.raises(ConfigError, match="basis.n: .* n = 1, got 2"):
            BasisConfig(p=1, n=2)
        with pytest.raises(ConfigError, match="basis.x_box: expected one"):
            BasisConfig(p=1, x_box=[(-1.0, 1.0)] * 2)
        assert BasisConfig(p=1, x_box=[(-2.0, 3.0)]) == BasisConfig(p=1, x_box=(-2.0, 3.0))

    def test_design_rows_match_b_xi(self):
        # against kron(xi(t), Pi(x)) from Clenshaw values, on the raw basis
        # and on a normalized one with its own boxes
        def cheb(k, v):
            return np.polynomial.chebyshev.chebval(v, np.eye(k + 1)[k])

        def unit(v, lo, hi):
            return (2.0 * v - (lo + hi)) / (hi - lo)

        rng = np.random.default_rng(3)
        for normalize, x_box, t_box in ((False, None, None),
                                        (True, (-3.0, 1.0), (2.0, 12.0))):
            cfg = BasisConfig(p=2, x_box=x_box, t_box=t_box, normalize=normalize)
            x = rng.uniform(*cfg.x_box, (5, 1))
            t = rng.uniform(*cfg.t_box, 5)
            rows = cfg.design_rows(x, t)
            for i in range(5):
                v, tau = x[i, 0], t[i]
                if normalize:
                    v, tau = unit(v, *cfg.x_box), unit(tau, *cfg.t_box)
                xi = [cheb(l, tau) for l in range(cfg.s2)]
                pi = [cheb(k, v) for k in range(cfg.s2)]
                assert np.allclose(rows[i], np.kron(xi, pi), rtol=0.0, atol=1e-13)
            for bad in (t[:1], t[:, None]):      # one time per state row, as a flat vector
                with pytest.raises(ValueError):
                    cfg.design_rows(x, bad)
