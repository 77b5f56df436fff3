"""Gain synthesis and online estimation dynamics."""

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from coupled_do.basis import BasisConfig, structure_matrices
from coupled_do.errors import NumericalError
from coupled_do.learner import SeparatedModel
from coupled_do.observer import _MARGIN, Hodo, UnobservableError
from coupled_do.oracles import ackermann_gain, placement_residual, rk4_step
from coupled_do.sim import disturbance

EXACT_THETA = np.array([[49.25, 0.0, -0.5, -10.0, 0.0, 0.0, -0.25, 0.0, 0.0]])
RAW_CFG = dict(p=2, n=1, x_box=(-10, 10), t_box=(0, 100), normalize=False)

ZERO_FX = staticmethod(lambda x: np.zeros(1))
UNIT_FU = staticmethod(lambda x: np.ones((1, 1)))


def exact_model() -> SeparatedModel:
    return SeparatedModel(theta=EXACT_THETA.copy(), config=BasisConfig(**RAW_CFG))


def first_order_observer(f_x, f_u, gain, x0=(0.0,)) -> Hodo:
    """The classical first-order observer as ``run_scenario``'s ndo mode
    builds it: the HODO of the order-zero unit model with the pole -gain."""
    unit = SeparatedModel(theta=[[1.0]], config=BasisConfig(p=0, n=1))
    return Hodo(unit, f_x, f_u, (-gain,), x0=list(x0))


class TestAckermannGain:
    def test_scalar_placement(self):
        gamma = ackermann_gain(np.zeros((1, 1)), np.array([2.0]), [-3.0])
        assert gamma[0] == pytest.approx(1.5)        # A - gamma c = -3

    def test_triple_pole_placement(self):
        # a defective triple eigenvalue is conditioned as eps**(1/3) for
        # any eigensolver, so certify through the annihilating
        # polynomial and only coarsely through the spectrum
        _, A = structure_matrices(3)
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = rng.standard_normal(3)
            if abs(c[2]) < 0.1:        # keep the draws well observable
                continue
            gamma = ackermann_gain(A, c, [-0.4, -0.4, -0.4])
            assert placement_residual(A, c, gamma, [-0.4] * 3) < 1e-10
            eig = np.linalg.eigvals(A - np.outer(gamma, c))
            assert np.abs(np.sort_complex(eig) - (-0.4)).max() < 1e-4

    def test_distinct_poles(self):
        _, A = structure_matrices(4)
        c = np.array([1.0, 0.5, -0.2, 0.8])
        poles = np.array([-0.5, -1.0, -2.0, -4.0])
        gamma = ackermann_gain(A, c, poles)
        eig = np.sort_complex(np.linalg.eigvals(A - np.outer(gamma, c)))
        assert np.abs(eig - np.sort_complex(poles)).max() < 1e-8

    def test_zero_row_unobservable(self):
        _, A = structure_matrices(3)
        with pytest.raises(UnobservableError):
            ackermann_gain(A, np.zeros(3), [-1.0, -1.0, -1.0])

    def test_unstable_poles_rejected(self):
        _, A = structure_matrices(2)
        with pytest.raises(ValueError):
            ackermann_gain(A, np.array([1.0, 1.0]), [0.4, -0.4])

    def test_wrong_pole_count_rejected(self):
        _, A = structure_matrices(3)
        with pytest.raises(ValueError):
            ackermann_gain(A, np.ones(3), [-1.0])


def order_observer(s2, poles, normalize=False) -> Hodo:
    """Scalar-output observer of time order s2 whose _design takes any row;
    normalized over t in [0, 3], its exosystem is (2/3) times the raw one."""
    cfg = BasisConfig(p=s2 - 1, n=1, t_box=(0.0, 3.0), normalize=normalize)
    model = SeparatedModel(theta=np.ones((1, cfg.s1)), config=cfg)
    return Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                poles=poles, x0=[0.3])


class TestStructuredGain:
    # the triangular back-substitution in Hodo._design against the
    # generic observability-matrix route and against scipy's placement

    @pytest.mark.parametrize("s2", range(1, 8))
    def test_matches_ackermann(self, s2):
        poles = -np.linspace(0.5, 2.0, s2)
        for normalize in (False, True):
            obs = order_observer(s2, poles, normalize)
            rng = np.random.default_rng(s2)
            compared = 0
            for _ in range(50):
                c = rng.standard_normal(s2)
                try:
                    ref = ackermann_gain(obs.model.A, c, poles)
                except UnobservableError:
                    continue
                gamma = np.array(obs._design(c.tolist()))
                assert np.linalg.norm(gamma - ref) <= 1e-10 * np.linalg.norm(ref)
                compared += 1
            assert compared >= 40

    @pytest.mark.parametrize("s2", range(2, 8))
    def test_matches_scipy_place_poles(self, s2):
        # place_poles goes through the closed-loop eigenvectors X, so its
        # own error grows like eps * cond(X)
        poles = -np.linspace(0.5, 2.0, s2)
        obs = order_observer(s2, poles)
        rng = np.random.default_rng(10 + s2)
        for _ in range(20):
            c = rng.standard_normal(s2)
            if abs(c[-1]) < 1e-2 * np.abs(c).max():
                continue
            placed = scipy.signal.place_poles(obs.model.A.T, c[:, None], poles)
            ref = placed.gain_matrix.ravel()
            gamma = np.array(obs._design(c.tolist()))
            tol = 100 * np.finfo(float).eps * np.linalg.cond(placed.X)
            assert np.linalg.norm(gamma - ref) <= tol * np.linalg.norm(ref)

    def test_hold_decision_invariant_under_power_of_two_scaling(self):
        obs = order_observer(3, (-0.4,) * 3)
        for ratio in (0.5 * _MARGIN, _MARGIN, 2.0 * _MARGIN, 1e-2, 0.0):
            c = np.array([1.0, -0.3, ratio])
            try:
                base = np.array(obs._design(c.tolist()))
            except UnobservableError:
                base = None
            for k in (-60, -7, 1, 9, 60):
                try:
                    scaled = obs._design((2.0 ** k * c).tolist())
                except UnobservableError:
                    scaled = None
                assert (base is None) == (scaled is None)
                if base is not None:
                    assert np.array_equal(scaled, 2.0 ** -k * base)

    def test_margin_boundary_in_step(self):
        # C(x) = [1 - x, 0, 2x]: the pivot ratio crosses _MARGIN at
        # x = _MARGIN / (2 + _MARGIN)
        theta = np.zeros((1, 9))
        theta[0, 0] = 1.0
        theta[0, 7] = 1.0
        model = SeparatedModel(theta=theta, config=BasisConfig(**RAW_CFG))
        x_edge = _MARGIN / (2.0 + _MARGIN)
        for x, held in ((x_edge * (1 - 1e-6), True), (x_edge * (1 + 1e-6), False)):
            c = model.output_map([x])[0]
            assert (abs(c[-1]) / np.abs(c).max() < _MARGIN) == held
            obs = Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                       poles=(-0.4,) * 3, x0=[1.0])
            gain_before = obs.gain.copy()
            obs.step([x], [0.0], 1e-3)
            assert obs.gain_failures == int(held)
            assert (obs.gain == gain_before) == held

    def test_non_finite_row_holds_the_gain(self):
        obs = order_observer(3, (-0.4,) * 3)
        for bad in ([np.nan, 0.0, 1.0], [1.0, np.inf, 1.0], [0.0, 0.0, np.inf]):
            with pytest.raises(UnobservableError):
                obs._design(bad)


class TestHodoInit:
    def test_default_estimate_is_zero(self):
        obs = Hodo(exact_model(), lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                   poles=(-0.4,) * 3, x0=[2.0])
        assert np.array_equal(obs.sigma_hat, np.zeros(3))
        # one output row: w = 1, Gamma x = gain * x
        assert np.allclose(np.add(obs.z, np.multiply(obs.gain, 2.0)), obs.sigma_hat)

    def test_custom_initial_estimate(self):
        sigma0 = np.array([1.0, 2.0, 3.0])
        obs = Hodo(exact_model(), lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                   poles=(-0.4,) * 3, x0=[-1.5], sigma0=sigma0)
        assert np.array_equal(obs.sigma_hat, sigma0)
        assert np.allclose(np.add(obs.z, np.multiply(obs.gain, -1.5)), sigma0)

    def test_output_invariant_after_steps(self):
        obs = Hodo(exact_model(), lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                   poles=(-0.4,) * 3, x0=[0.0])
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-3, 3)
            obs.step([x], [rng.uniform(-1, 1)], 1e-2)
            assert np.allclose(np.add(obs.z, np.multiply(obs.gain, x)), obs.sigma_hat,
                               atol=1e-13)

    def test_unstable_poles_rejected(self):
        with pytest.raises(ValueError):
            Hodo(exact_model(), lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                 poles=(0.4, -0.4, -0.4), x0=[0.0])


def constant_output_model() -> SeparatedModel:
    # only T_0(x) entries are weighted, so C(x) is state independent
    theta = np.zeros((1, 9))
    theta[0, 0] = 50.0      # T_0(x) T_0(t)
    theta[0, 3] = -10.0     # T_0(x) T_1(t)
    theta[0, 6] = -0.5      # T_0(x) T_2(t)
    return SeparatedModel(theta=theta, config=BasisConfig(**RAW_CFG))


class TestHodoDynamics:
    def test_constant_disturbance_exponential_decay(self):
        # order-zero model: the estimate obeys a scalar linear ODE whose
        # error decays exactly like exp(pole * t)
        cfg = BasisConfig(p=0, n=1, normalize=False)
        value = 7.0
        model = SeparatedModel(theta=np.array([[value]]), config=cfg)
        obs = Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                   poles=[-2.0], x0=[0.0])
        dt, x, u = 1e-3, 0.0, -value    # holds the state still: dx/dt = u + delta = 0
        err0 = abs(value - float((model.output_map([x]) @ obs.sigma_hat)[0]))
        for k in range(2000):
            d_hat = float(obs.step([x], [u], dt)[0])
        err = abs(value - d_hat)
        assert err == pytest.approx(err0 * np.exp(-2.0 * 2.0), rel=1e-3)

    def test_zero_gain_runs_open_loop_exosystem(self):
        # with zero coefficients everywhere the designed route is
        # unobservable; force gamma to zero and check the predictor
        model = exact_model()
        obs = Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                   poles=(-0.4,) * 3, x0=[0.0], sigma0=np.array([1.0, 0.5, 0.2]))
        obs.gain = [0.0] * 3
        obs.z = obs.sigma_hat.copy()
        obs._design = lambda c: [0.0] * 3
        A = model.A
        expected = scipy.linalg.expm(A * 0.5) @ obs.sigma_hat
        for _ in range(500):
            obs.step([3.0], [0.0], 1e-3)
        assert np.allclose(obs.sigma_hat, expected, atol=1e-9)

    def test_step_rejects_bad_inputs(self):
        obs = Hodo(exact_model(), lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                   poles=(-0.4,) * 3, x0=[0.0])
        with pytest.raises(ValueError):
            obs.step([0.0], [0.0], 0.0)
        with pytest.raises(NumericalError):
            obs.step([np.nan], [0.0], 1e-3)
        with pytest.raises(ValueError):
            obs.step([0.0, 1.0], [0.0], 1e-3)
        with pytest.raises(ValueError):
            obs.step([0.0], [0.0, 1.0], 1e-3)

    def test_gain_fallback_on_unobservable_state(self):
        # last output-map entry is proportional to x, so the design is
        # singular at x = 0 and the previous gain must be kept
        theta = np.zeros((1, 9))
        theta[0, 0] = 1.0
        theta[0, 7] = 1.0      # T_1(x) in the highest time block
        model = SeparatedModel(theta=theta, config=BasisConfig(**RAW_CFG))
        obs = Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                   poles=(-0.4,) * 3, x0=[1.0])
        gain_before = obs.gain.copy()
        obs.step([0.0], [0.0], 1e-3)
        assert obs.gain_failures == 1
        assert obs.gain == gain_before
        obs.step([0.0], [0.0], 1e-3)          # the same row fails again
        assert obs.gain_failures == 2

    def test_init_propagates_unobservable(self):
        theta = np.zeros((1, 9))
        theta[0, 0] = 1.0
        theta[0, 7] = 1.0
        model = SeparatedModel(theta=theta, config=BasisConfig(**RAW_CFG))
        with pytest.raises(UnobservableError):
            Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                 poles=(-0.4,) * 3, x0=[0.0])

    def test_placement_verified_each_step(self):
        obs = Hodo(exact_model(), lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                   poles=(-0.4,) * 3, x0=[0.5])
        for k in range(20):
            x = [0.5 + 0.1 * k]
            obs.step(x, [0.0], 1e-3)
            # the gain in use was designed at this step's state
            c = obs.model.output_map(x)[0]      # one output row: w = 1
            col = np.array(obs.gain)
            lam_norm = np.linalg.norm(obs.model.A - np.outer(col, c))
            assert placement_residual(obs.model.A, c, col, obs.poles) <= 1e-8 * (1.0 + lam_norm) ** 3
        assert obs.gain_failures == 0


class TestFloatStep:
    @pytest.mark.parametrize("n", (1, 2))
    def test_estimate_is_a_list_of_python_floats(self, n):
        cfg = BasisConfig(p=2, n=n)
        model = SeparatedModel(theta=np.ones((n, cfg.s1)), config=cfg)
        obs = Hodo(model, lambda x: np.zeros(n), lambda x: np.ones((n, 1)),
                   poles=(-0.4,) * 3, x0=[0.1] * n)
        out = obs.step([0.2] * n, [0.5], 1e-3)
        assert type(out) is list and len(out) == n
        assert all(type(d) is float for d in out)
        assert out == output_left_to_right(model, [0.2] * n, obs.sigma_hat).tolist()

    def test_sums_add_left_to_right(self):
        # 1e16 + 1 rounds to 1e16, so x = (1e16, 1, -1e16) sums to 0.0 left to
        # right, but to 1.0 compensated (Python >= 3.12's built-in sum): the
        # observer must then act exactly as at x = 0
        model = SeparatedModel(theta=np.ones((3, 1)), config=BasisConfig(p=0, n=3))
        f_u = lambda x: np.zeros((3, 1))
        big = [1e16, 1.0, -1e16]
        a = Hodo(model, lambda x: x, f_u, poles=(-0.4,), x0=big, sigma0=[2.0])
        b = Hodo(model, lambda x: x, f_u, poles=(-0.4,), x0=[0.0] * 3, sigma0=[2.0])
        assert a.z == b.z == [2.0]
        for _ in range(3):
            assert list(a.step(big, [0.0], 1e-3)) == list(b.step([0.0] * 3, [0.0], 1e-3))
            assert a.z == b.z and a.sigma_hat == b.sigma_hat


class TestZeroErrorManifold:
    def test_joint_integration_keeps_zero_error(self):
        # simulation oracle: plant and observer integrated with shared
        # stages; with exact coefficients and a true initial feature
        # vector the estimation error stays at roundoff for 20 s
        model = exact_model()
        fn = disturbance("quad_drag_drift")
        A = model.A
        dt, n_steps = 1e-3, 20000
        eta, v = 0.0, 0.0
        sigma0 = np.array([1.0, 0.0, 0.0])          # [1, t, t^2] at t = 0
        obs = Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                   poles=(-0.4,) * 3, x0=[v], sigma0=sigma0)
        z = np.array(obs.z)
        gamma = np.array(obs.gain)

        worst = 0.0
        for k in range(n_steps):
            t = k * dt
            sig = z + gamma * v
            c_here = model.output_map([v])[0]
            worst = max(worst, abs(fn(v, t) - float(c_here @ sig)))
            eta_d, eta_d_dot = np.sin(0.5 * t), 0.5 * np.cos(0.5 * t)
            u = 10.0 * (eta_d - eta) + 25.0 * (eta_d_dot - v) - float(c_here @ sig)

            def rhs(tau, y):
                e, vv, zz = y[0], y[1], y[2:]
                cmap = model.output_map([vv])[0]
                sig_hat = zz + gamma * vv
                dz = A @ sig_hat - gamma * (u + cmap @ sig_hat)
                return np.concatenate([[vv, u + fn(vv, tau)], dz])

            y = rk4_step(rhs, np.concatenate([[eta, v], z]), t, dt)
            eta, v, z = y[0], y[1], y[2:]
            # frozen-time redesign between steps, preserving the estimate
            sig = z + gamma * v
            gamma = np.array(obs._design(model.output_map([v])[0].tolist()))
            z = sig - gamma * v
        assert worst < 1e-8

    def test_decoupled_stepping_tracks_within_hold_error(self):
        # the online interface holds (x, u) over each step, which floors
        # the reachable accuracy; it must still track to that floor
        model = exact_model()
        fn = disturbance("quad_drag_drift")
        dt, n_steps = 1e-3, 5000
        eta, v = 0.0, 0.0
        obs = Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                   poles=(-0.4,) * 3, x0=[v], sigma0=np.array([1.0, 0.0, 0.0]))
        d_hat = float((model.output_map([v]) @ obs.sigma_hat)[0])
        worst = 0.0
        for k in range(n_steps):
            t = k * dt
            worst = max(worst, abs(fn(v, t) - d_hat))
            eta_d, eta_d_dot = np.sin(0.5 * t), 0.5 * np.cos(0.5 * t)
            u = 10.0 * (eta_d - eta) + 25.0 * (eta_d_dot - v) - d_hat

            def rhs(tau, y):
                return np.array([y[1], u + fn(y[1], tau)])

            eta, v = rk4_step(rhs, np.array([eta, v]), t, dt)
            d_hat = float(obs.step([v], [u], dt)[0])
        assert worst < 5e-2


class TestStepSizeConvergence:
    def test_rk4_order_on_frozen_inputs(self):
        # constant (x, u) makes the auxiliary dynamics a constant linear
        # ODE; the step converges at fourth order against the matrix
        # exponential solution
        model = exact_model()
        x_const, u_const, horizon = 2.0, 1.0, 1.0

        def run(dt):
            obs = Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                       poles=(-0.4,) * 3, x0=[x_const])
            for _ in range(int(round(horizon / dt))):
                obs.step([x_const], [u_const], dt)
            return np.array(obs.sigma_hat)

        obs0 = Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                    poles=(-0.4,) * 3, x0=[x_const])
        cmap = model.output_map([x_const])
        gamma = np.array(obs0.gain)[:, None]
        M = model.A - gamma @ cmap
        b = M @ (gamma @ np.array([x_const])) - gamma @ np.array([u_const])
        z_inf = -np.linalg.solve(M, b)
        z_exact = scipy.linalg.expm(M * horizon) @ (np.array(obs0.z) - z_inf) + z_inf
        sigma_exact = z_exact + gamma @ np.array([x_const])

        errs = [np.linalg.norm(run(dt) - sigma_exact) for dt in (0.04, 0.02, 0.01)]
        assert 12.0 < errs[0] / errs[1] < 20.0
        assert 12.0 < errs[1] / errs[2] < 20.0


def closure_rk4_hodo_step(obs, x, u, dt):
    """Reference for Hodo.step: the rebase, then one generic RK4 step of the
    auxiliary ODE written as a closure over the frozen (x, u, Gamma, C(x))."""
    cmap = obs.model.output_map(x)
    w = np.full(len(x), obs.w)
    gamma = np.outer(obs._design((w @ cmap).tolist()), w)
    gamma_old = np.outer(obs.gain, w)
    z_frozen = gamma @ x
    z0 = obs.z + gamma_old @ x - z_frozen
    drive = obs.f_x(x) + obs.f_u(x) @ u

    def rhs(t, z):
        sig = z + z_frozen
        return obs.model.A @ sig - gamma @ (drive + cmap @ sig)

    z = rk4_step(rhs, z0, 0.0, dt)
    # magnitude of the terms the step adds up, for the n > 1 roundoff scale
    M = obs.model.A - gamma @ cmap
    sigma0 = z0 + z_frozen
    scale = (np.linalg.norm(sigma0) + np.linalg.norm(z_frozen)
             + np.linalg.norm(gamma_old @ x)
             + dt * (np.linalg.norm(M, 2) * np.linalg.norm(sigma0)
                     + np.linalg.norm(gamma @ drive)) * (1.0 + dt * np.linalg.norm(M, 2)) ** 3)
    return z, z + z_frozen, scale


def output_left_to_right(model, x, sigma):
    """C(x) sigma = (K Pi(x)) sigma with every sum taken left to right,
    the order of Hodo.step."""
    pi = model.config.pi_vector(x).tolist()
    out = []
    for k_i in model.K.tolist():
        acc = 0.0
        for k_ij, s_j in zip(k_i, sigma):
            c_ij = 0.0
            for k, p in zip(k_ij, pi):
                c_ij += k * p
            acc += c_ij * s_j
        out.append(acc)
    return np.array(out)


class TestAffineRk4Step:
    # the closed-form step against a generic RK4 of the stage closures

    @pytest.mark.parametrize("dt", (1e-3, 0.04))
    @pytest.mark.parametrize("s2", range(1, 7))
    @pytest.mark.parametrize("n", (1, 2))
    def test_hodo_step_equals_closure_rk4(self, n, s2, dt):
        rng = np.random.default_rng(100 * n + s2)
        cfg = BasisConfig(p=s2 - 1, n=n, normalize=False)
        poles = -np.linspace(0.5, 2.0, s2)
        compared = 0
        while compared < 20:
            model = SeparatedModel(theta=rng.standard_normal((n, cfg.s1)), config=cfg)
            x_prev, x = rng.uniform(-1.0, 1.0, (2, n))
            u = rng.uniform(-1.0, 1.0, 1)
            try:
                obs = Hodo(model, lambda x: 0.3 * x - 0.1, lambda x: np.full((n, 1), 1.5),
                           poles=poles, x0=x_prev)
                obs._design((np.full(n, obs.w) @ model.output_map(x)).tolist())
            except UnobservableError:
                continue
            obs.z = rng.standard_normal(s2).tolist()
            z_ref, sigma_ref, scale = closure_rk4_hodo_step(obs, x, u, dt)
            out = obs.step(x, u, dt)
            # one output row: plain relative error; with two rows the
            # gain can be large, so roundoff is relative to the terms' size
            tol = 1e-12 * (np.linalg.norm(sigma_ref) if n == 1 else scale)
            assert np.linalg.norm(obs.sigma_hat - sigma_ref) <= tol
            assert np.linalg.norm(obs.z - z_ref) <= tol + 1e-12 * np.linalg.norm(z_ref)
            assert np.array_equal(out, output_left_to_right(model, x, obs.sigma_hat))
            compared += 1

    @pytest.mark.parametrize("dt", (1e-3, 0.04))
    @pytest.mark.parametrize("gain", (0.1, 0.4, 2.0, 25.0))
    def test_first_order_step_equals_closure_rk4(self, gain, dt):
        rng = np.random.default_rng(int(gain * 10))
        f_x = lambda x: 0.3 * x - 0.1
        f_u = lambda x: np.full((1, 1), 1.5)
        for _ in range(20):
            x_prev, x = rng.uniform(-1.0, 1.0, (2, 1))
            obs = first_order_observer(f_x, f_u, gain, x0=x_prev)
            obs.z = rng.standard_normal(1).tolist()
            u = rng.uniform(-1.0, 1.0, 1)
            drive = f_x(x) + f_u(x) @ u
            z_ref = rk4_step(lambda t, z: -gain * z - gain * (gain * x + drive),
                             np.array(obs.z), 0.0, dt)
            out = obs.step(x, u, dt)
            assert np.linalg.norm(obs.z - z_ref) <= 1e-12 * np.linalg.norm(z_ref)
            ref_out = z_ref + gain * x
            assert np.linalg.norm(out - ref_out) <= 1e-12 * np.linalg.norm(ref_out)


class TestConstantOutputConvergence:
    def test_log_error_slope_bounded_by_poles(self):
        # distinct poles give a clean dominant rate; a mildly scaled
        # output map keeps the eigenvector conditioning (and hence the
        # non-normal mixing transient) short, and the input cancels the
        # disturbance so the zero-order-hold floor stays tiny
        theta = np.zeros((1, 9))
        theta[0, 0], theta[0, 3], theta[0, 6] = 2.0, -1.0, -0.5
        model = SeparatedModel(theta=theta, config=BasisConfig(**RAW_CFG))
        cmap = model.output_map([0.0])[0]
        fn = lambda t: float(cmap @ [1.0, t, t * t])     # the model's own signal
        dt, n_steps = 1e-3, 14000
        v = 0.0
        obs = Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                   poles=(-0.4, -0.8, -1.6), x0=[v])
        ts, errs = [], []
        for k in range(n_steps):
            t = k * dt
            sig_true = np.array([1.0, t, t * t])
            ts.append(t)
            errs.append(np.linalg.norm(sig_true - obs.sigma_hat))
            u = -fn(t)
            v_new = rk4_step(lambda tau, y: np.array([u + fn(tau)]),
                             np.array([v]), t, dt)[0]
            obs.step([v], [u], dt)      # measurement at the step start
            v = v_new
        ts, errs = np.array(ts), np.array(errs)
        window = (ts >= 4.0) & (ts <= 14.0)
        slope = np.polyfit(ts[window], np.log(errs[window]), 1)[0]
        assert slope <= -0.4 + 0.05


class TestLinearityInTargets:
    def test_alpha_scaling_superposition(self):
        # time-only output map, linear plant, inputs scaled by a power
        # of two: the designed gain scales by 1/alpha, the error
        # operator is unchanged, and the estimate scales exactly
        alpha = 2.0
        base = constant_output_model()
        scaled = SeparatedModel(theta=alpha * base.theta, config=base.config)
        cmap = base.output_map([0.0])[0]
        fn = lambda t: float(cmap @ [1.0, t, t * t])
        dt, n_steps = 1e-3, 3000

        def run(model, scale):
            v = 0.0
            obs = Hodo(model, lambda x: np.zeros(1), lambda x: np.ones((1, 1)),
                       poles=(-0.4,) * 3, x0=[v])
            outs = []
            for k in range(n_steps):
                t = k * dt
                u = scale * 5.0 * np.sin(t)
                v_next = rk4_step(lambda tau, y: np.array([u + scale * fn(tau)]),
                                  np.array([v]), t, dt)[0]
                outs.append(float(obs.step([v], [u], dt)[0]))
                v = v_next
            return np.array(outs)

        d1 = run(base, 1.0)
        d2 = run(scaled, alpha)
        assert np.max(np.abs(d2 - alpha * d1)) <= 1e-12 * max(1.0, np.abs(d1).max())


class TestFirstOrderDo:
    # the classical first-order observer, as the s2 = 1 HODO of ndo mode
    def test_constant_disturbance_converges(self):
        value = 4.0
        dt = 1e-3
        obs = first_order_observer(lambda x: np.zeros(1), lambda x: np.ones((1, 1)), gain=2.0)
        x = 0.0
        for k in range(8000):
            u = -value          # keeps dx/dt = u + delta = 0
            d_hat = float(obs.step([x], [u], dt)[0])
        assert d_hat == pytest.approx(value, abs=1e-6)

    def test_ramp_lag_equals_rate_over_gain(self):
        # the input cancels the ramp so the state never moves and the
        # measured lag is not polluted by the held-state approximation
        rate, gain, dt = 3.0, 2.0, 1e-3
        obs = first_order_observer(lambda x: np.zeros(1), lambda x: np.ones((1, 1)), gain=gain)
        x, t = 0.0, 0.0
        for k in range(12000):
            t = k * dt
            u = -rate * t
            x_next = rk4_step(lambda tau, y: np.array([u + rate * tau]),
                              np.array([x]), t, dt)[0]
            d_hat = float(obs.step([x], [u], dt)[0])
            x = x_next
        # steady-state lag of a first-order observer chasing a ramp,
        # measured against the disturbance at the post-step time
        assert (rate * (t + dt) - d_hat) == pytest.approx(rate / gain, rel=1e-2)

    def test_rejects_bad_inputs(self):
        obs = first_order_observer(lambda x: np.zeros(1), lambda x: np.ones((1, 1)), gain=1.0)
        with pytest.raises(ValueError):
            obs.step([0.0], [0.0], -1.0)
        with pytest.raises(NumericalError):
            obs.step([0.0], [np.inf], 1e-3)
        for gain in (0.0, -1.0):
            with pytest.raises(ValueError):
                first_order_observer(lambda x: np.zeros(1), lambda x: np.ones((1, 1)), gain)
