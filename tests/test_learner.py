"""Identification: target recovery, ridge fit, evaluation, sweeps."""

from dataclasses import replace

import numpy as np
import pytest

from coupled_do.basis import BasisConfig
from coupled_do.errors import ConfigError, DataError, NumericalError
from coupled_do import learner
from coupled_do.learner import (LearningConfig, SeparatedModel, TrajectoryDataset,
                                _poly_derivative_window, evaluate, fit_rls, rng_stream,
                                split_dataset, sweep, synthesize_dataset, targets_from_trajectory)
from coupled_do.oracles import gradient_descent_fit, projection_oracle, rk4_step
from coupled_do.sim import disturbance


def make_inspan_data(rng, cfg, theta, n=500, t_lo=-1.0, t_hi=1.0):
    x = rng.uniform(-1, 1, (n, cfg.n))
    t = rng.uniform(t_lo, t_hi, n)
    delta = cfg.design_rows(x, t) @ theta.T
    return TrajectoryDataset(t=t, x=x, u=np.zeros((n, 1)), delta=delta)


class TestDataset:
    def test_dimension_checks(self):
        with pytest.raises(DataError):
            TrajectoryDataset(t=[0, 1], x=[[1.0]], u=[[0.0], [0.0]])
        with pytest.raises(DataError):
            TrajectoryDataset(t=[0, 1], x=[[1.0], [2.0]], u=[[0.0], [0.0]],
                              delta=[[1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            TrajectoryDataset(t=[0, 1], x=[[np.nan], [1.0]], u=[[0.0], [0.0]])

    def test_split_partition(self):
        rng = np.random.default_rng(0)
        data = TrajectoryDataset(t=np.arange(10.0), x=np.arange(10.0)[:, None],
                                 u=np.zeros((10, 1)))
        train, test = split_dataset(data, 0.5, rng)
        assert len(train) == len(test) == 5
        assert sorted(np.concatenate([train.x[:, 0], test.x[:, 0]])) == list(range(10))


class TestTargetsFromTrajectory:
    f_x = staticmethod(lambda x: np.zeros(1))
    f_u = staticmethod(lambda x: np.zeros((1, 1)))

    def test_constant_state_gives_zero(self):
        n = 41
        traj = TrajectoryDataset(t=np.linspace(0, 4, n), x=np.full((n, 1), 2.5),
                                 u=np.zeros((n, 1)))
        out = targets_from_trajectory(traj, self.f_x, self.f_u)
        assert np.abs(out.delta).max() < 1e-12
        assert len(out) == n - 8        # half-window dropped on both ends

    def test_exact_on_matching_degree(self):
        t = np.linspace(0, 2, 81)
        traj = TrajectoryDataset(t=t, x=(t**2)[:, None], u=np.zeros((81, 1)))
        out = targets_from_trajectory(traj, self.f_x, self.f_u, window=9, fit_order=2)
        assert np.abs(out.delta[:, 0] - 2 * out.t).max() < 1e-10

    def test_nonuniform_timestamps(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0, 2, 101))
        traj = TrajectoryDataset(t=t, x=(t**3)[:, None], u=np.zeros((101, 1)))
        out = targets_from_trajectory(traj, self.f_x, self.f_u, window=9, fit_order=3)
        assert np.abs(out.delta[:, 0] - 3 * out.t**2).max() < 1e-8

    def test_recovers_plant_disturbance(self):
        # drive the point mass open loop and rebuild the disturbance from samples
        fn = disturbance("quad_drag_drift")
        dt, n = 1e-3, 4001
        state = np.array([0.0, 0.0])
        ts = dt * np.arange(n)
        xs = np.empty((n, 1))
        for k in range(n):
            xs[k, 0] = state[1]
            state = rk4_step(lambda tt, s: np.array([s[1], fn(s[1], tt)]), state, ts[k], dt)
        traj = TrajectoryDataset(t=ts, x=xs, u=np.zeros((n, 1)))
        out = targets_from_trajectory(traj, self.f_x, lambda x: np.ones((1, 1)))
        true = fn(out.x[:, 0], out.t)
        assert np.mean(np.abs(out.delta[:, 0] - true)) < 1e-6

    def test_too_short_rejected(self):
        traj = TrajectoryDataset(t=np.arange(5.0), x=np.zeros((5, 1)), u=np.zeros((5, 1)))
        with pytest.raises(DataError):
            targets_from_trajectory(traj, self.f_x, self.f_u, window=9)

    def test_bad_window_rejected(self):
        traj = TrajectoryDataset(t=np.arange(20.0), x=np.zeros((20, 1)), u=np.zeros((20, 1)))
        with pytest.raises(ConfigError):
            targets_from_trajectory(traj, self.f_x, self.f_u, window=8)
        with pytest.raises(ConfigError):
            targets_from_trajectory(traj, self.f_x, self.f_u, window=3, fit_order=3)

    def test_unordered_timestamps_rejected(self):
        traj = TrajectoryDataset(t=np.array([0.0, 2.0, 1.0] + list(range(3, 12))),
                                 x=np.zeros((12, 1)), u=np.zeros((12, 1)))
        with pytest.raises(DataError):
            targets_from_trajectory(traj, self.f_x, self.f_u)

    @pytest.mark.parametrize("window, fit_order", [(5, 2), (9, 3), (11, 4)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_uniform_filter_matches_window_fits(self, window, fit_order, n):
        rng = np.random.default_rng(window + n)
        t = 0.3 + 0.01 * np.arange(200)
        x = np.sin(t[:, None] * rng.uniform(1, 5, n)) + rng.normal(0, 0.1, (200, n))
        traj = TrajectoryDataset(t=t, x=x, u=np.zeros((200, 1)))
        out = targets_from_trajectory(traj, lambda x: np.zeros(n), lambda x: np.zeros((n, 1)),
                                      window=window, fit_order=fit_order)
        half = window // 2
        ref = np.array([_poly_derivative_window(t[i - half:i + half + 1],
                                                x[i - half:i + half + 1], half, fit_order)
                        for i in range(half, 200 - half)])
        assert out.delta.shape == ref.shape
        assert np.abs(out.delta - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_batched_plant_maps_match_per_row_formula(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0, 1, 60)
        traj = TrajectoryDataset(t=t, x=rng.standard_normal((60, 2)),
                                 u=rng.standard_normal((60, 2)))

        def f_x(x):
            return np.sin(x)

        def f_u(x):      # state-dependent (..., 2) -> (..., 2, 2)
            return (1 + x[..., :, None] ** 2) * np.array([1.0, -0.5])

        deriv = targets_from_trajectory(traj, lambda x: np.zeros(2),
                                        lambda x: np.zeros((2, 2))).delta
        out = targets_from_trajectory(traj, f_x, f_u)
        ref = np.array([d - f_x(x) - f_u(x) @ u for d, x, u in zip(deriv, out.x, out.u)])
        assert np.abs(out.delta - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_unbroadcastable_plant_map_rejected(self):
        traj = TrajectoryDataset(t=np.arange(20.0), x=np.zeros((20, 1)), u=np.zeros((20, 1)))
        with pytest.raises(ConfigError, match="f_u"):
            targets_from_trajectory(traj, self.f_x, lambda x: np.ones(3))
        with pytest.raises(ConfigError, match="f_x"):
            targets_from_trajectory(traj, lambda x: np.zeros((len(x), 2)), self.f_u)


class TestFitRls:
    def test_empty_rejected(self):
        cfg = BasisConfig(p=1, n=1)
        with pytest.raises(DataError):
            fit_rls(TrajectoryDataset(t=np.empty(0), x=np.empty((0, 1)),
                                      u=np.empty((0, 1)), delta=np.empty((0, 1))),
                    cfg, 0.01)

    def test_missing_targets_rejected(self):
        cfg = BasisConfig(p=1, n=1)
        data = TrajectoryDataset(t=[0.0], x=[[0.0]], u=[[0.0]])
        with pytest.raises(DataError):
            fit_rls(data, cfg, 0.01)

    def test_nonpositive_ridge_rejected(self):
        cfg = BasisConfig(p=1, n=1)
        data = TrajectoryDataset(t=[0.0], x=[[0.0]], u=[[0.0]], delta=[[1.0]])
        with pytest.raises(ConfigError):
            fit_rls(data, cfg, 0.0)
        with pytest.raises(ConfigError, match="ridge weight"):
            fit_rls(data, cfg, float("nan"))

    def test_zero_targets_give_zero_theta(self):
        rng = np.random.default_rng(2)
        cfg = BasisConfig(p=2, n=1)
        data = make_inspan_data(rng, cfg, np.zeros((1, cfg.s1)))
        model, _ = fit_rls(data, cfg, 0.01)
        assert np.abs(model.theta).max() == 0.0

    def test_inspan_recovery(self):
        rng = np.random.default_rng(3)
        cfg = BasisConfig(p=2, n=1)
        theta = rng.standard_normal((1, cfg.s1))
        data = make_inspan_data(rng, cfg, theta, n=500)
        model, report = fit_rls(data, cfg, 1e-9)
        assert np.linalg.norm(model.theta - theta) < 1e-6
        assert np.sum((model.theta - theta) ** 2) < 1e-12

    def test_optimality_gradient(self):
        rng = np.random.default_rng(4)
        cfg = BasisConfig(p=2, n=2)
        theta = rng.standard_normal((2, cfg.s1))
        data = make_inspan_data(rng, cfg, theta, n=400)
        noisy = TrajectoryDataset(t=data.t, x=data.x, u=data.u,
                                  delta=data.delta + rng.normal(0, 0.1, data.delta.shape))
        delta_reg = 0.5
        model, _ = fit_rls(noisy, cfg, delta_reg)
        feats = cfg.design_rows(noisy.x, noisy.t)
        grad = (noisy.delta - feats @ model.theta.T).T @ feats - delta_reg * model.theta
        assert np.linalg.norm(grad) / np.linalg.norm(model.theta) < 1e-8

    def test_matches_gradient_descent(self):
        rng = np.random.default_rng(5)
        cfg = BasisConfig(p=1, n=1)
        theta = rng.standard_normal((1, cfg.s1))
        data = make_inspan_data(rng, cfg, theta, n=60)
        noisy = TrajectoryDataset(t=data.t, x=data.x, u=data.u,
                                  delta=data.delta + rng.normal(0, 0.2, data.delta.shape))
        model, _ = fit_rls(noisy, cfg, 0.1)
        gd = gradient_descent_fit(cfg.design_rows(noisy.x, noisy.t), noisy.delta, 0.1)
        assert np.linalg.norm(model.theta - gd) < 1e-5

    def test_shrinkage_monotone(self):
        rng = np.random.default_rng(6)
        cfg = BasisConfig(p=2, n=1)
        theta = rng.standard_normal((1, cfg.s1))
        data = make_inspan_data(rng, cfg, theta, n=300)
        norms = [np.linalg.norm(fit_rls(data, cfg, d)[0].theta)
                 for d in (1e-6, 1e-3, 1e-1, 10.0, 1e4)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        cfg = BasisConfig(p=2, n=1)
        theta = rng.standard_normal((1, cfg.s1))
        data = make_inspan_data(rng, cfg, theta, n=200)
        shuffled = data.subset(rng.permutation(len(data)))
        a = fit_rls(data, cfg, 0.01)[0].theta
        b = fit_rls(shuffled, cfg, 0.01)[0].theta
        assert np.abs(a - b).max() < 1e-12

    def test_benchmark_projection_recovery(self):
        # raw-variable fit on the benchmark disturbance reproduces the
        # dense-grid projection, not the recorded reference vector
        fn = disturbance("quad_drag_drift")
        rng = rng_stream(42, "dataset", 0)
        data = synthesize_dataset(fn, (-10, 10), (0, 100), 10000, rng)
        cfg = BasisConfig(p=2, n=1, x_box=(-10, 10), t_box=(0, 100), normalize=False)
        model, report = fit_rls(data, cfg, 0.01)
        oracle = projection_oracle(fn, 2, (-10, 10), (0, 100))
        assert np.sum((model.theta[0] - oracle) ** 2) < 1e-4
        assert report.gram_condition < 1e6     # equilibrated condition

    def test_huge_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(8)
        cfg = BasisConfig(p=2, n=1)
        theta = rng.standard_normal((1, cfg.s1))
        data = make_inspan_data(rng, cfg, theta, n=200)
        model, report = fit_rls(data, cfg, 1e9)
        mean_norm = np.mean(np.linalg.norm(data.delta, axis=1))
        assert report.test_mae == pytest.approx(mean_norm, rel=1e-3)

    def test_overflowing_features_rejected(self):
        # T_6(1e60) overflows to inf, so the Gram is not finite; the
        # factorization would not notice and return NaN
        cfg = BasisConfig(p=6, n=1)
        x = np.linspace(-1.0, 1.0, 50)[:, None]
        x[7] = 1e60
        data = TrajectoryDataset(t=np.linspace(0.0, 1.0, 50), x=x, u=np.zeros((50, 1)),
                                 delta=np.ones((50, 1)))
        with pytest.raises(NumericalError, match="non-finite"):
            fit_rls(data, cfg, 0.01)

    def test_singular_gram_rejected(self):
        # one repeated state of 1e10: the columns 1 and x are parallel,
        # and a ridge of 1e-20 is lost in the equilibrated Gram
        cfg = BasisConfig(p=1, n=1)
        data = TrajectoryDataset(t=np.zeros(20), x=np.full((20, 1), 1e10),
                                 u=np.zeros((20, 1)), delta=np.ones((20, 1)))
        with pytest.raises(NumericalError, match="not positive definite"):
            fit_rls(data, cfg, 1e-20)

    def test_one_training_design_alive_at_a_time(self, traced_peak):
        # the held-out rows are featurized after the training design is freed
        cfg = BasisConfig(p=2, n=1, x_box=(-2.0, 2.0), t_box=(0.0, 4.0))
        rng = rng_stream(0, "memory")
        train, test = (synthesize_dataset(disturbance("cubic_drift"), cfg.x_box, cfg.t_box,
                                          50_000, rng) for _ in range(2))
        _, peak = traced_peak(lambda: fit_rls(train, cfg, 0.01, test=test))
        assert peak < 2 * len(train) * cfg.s1 * 8


class TestOutputMap:
    # C(x) from the coefficients with D folded in, against the defining
    # product Theta B(x) D with B(x) = kron(I_s2, Pi(x) as a column)

    @pytest.mark.parametrize("normalize", (False, True))
    @pytest.mark.parametrize("p", range(5))
    @pytest.mark.parametrize("n", (1, 2))
    def test_equals_theta_b_d(self, n, p, normalize):
        rng = np.random.default_rng(10 * n + p)
        cfg = BasisConfig(p=p, n=n, x_box=[(-2.0, 3.0), (-1.0, 0.5)][:n],
                          t_box=(0.0, 10.0), normalize=normalize)
        model = SeparatedModel(theta=rng.standard_normal((n, cfg.s1)), config=cfg)
        for x in rng.uniform(-2.5, 3.5, (10, n)):
            b = np.kron(np.eye(cfg.s2), cfg.pi_rows(x[None]).T)
            ref = model.theta @ b @ model.D
            got = model.output_map(x)
            assert got.shape == (n, cfg.s2)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        with pytest.raises(ValueError, match=rf"shape \({n},\)"):
            model.output_map(np.zeros(n + 1))


class TestSeparatedModel:
    @pytest.mark.parametrize("normalize, t_box", [(False, (0.0, 100.0)), (True, (0.0, 4.0)),
                                                  (True, (-3.0, 7.0))])
    @pytest.mark.parametrize("s2", range(1, 6))
    def test_exosystem_is_time_derivative_of_monomials(self, s2, normalize, t_box):
        # d/dt varsigma(tau(t)) = A varsigma with tau the basis's own time
        # variable; a central difference is exact on degrees <= 2
        cfg = BasisConfig(p=s2 - 1, n=1, t_box=t_box, normalize=normalize)
        model = SeparatedModel(theta=np.zeros((1, cfg.s1)), config=cfg)

        def varsigma(t):
            tau = 2.0 * (t - t_box[0]) / (t_box[1] - t_box[0]) - 1.0 if normalize else t
            return tau ** np.arange(s2)

        for t in (0.3, 1.7, 3.9):
            h = 1e-6 * (t_box[1] - t_box[0])
            fd = (varsigma(t + h) - varsigma(t - h)) / (2 * h)
            exact = model.A @ varsigma(t)
            assert np.allclose(fd, exact, rtol=1e-6, atol=1e-7 * np.abs(exact).max())


class TestRngStream:
    def test_long_string_keys_give_distinct_streams(self):
        # keys that share their first 8 bytes must not share a stream
        a = rng_stream(0, "dataset-a1").standard_normal(4)
        b = rng_stream(0, "dataset-a2").standard_normal(4)
        assert not np.array_equal(a, b)

    def test_scenario_stream_is_pinned(self):
        draws = rng_stream(0, "scenario", "hodo").standard_normal(3)
        assert draws.tolist() == [1.0165594014695067, 0.33050298908673825,
                                  0.48209123792122055]


class TestEvaluate:
    def test_self_consistency(self):
        rng = np.random.default_rng(9)
        cfg = BasisConfig(p=2, n=1)
        theta = rng.standard_normal((1, cfg.s1))
        data = make_inspan_data(rng, cfg, theta, n=300)
        model, _ = fit_rls(data, cfg, 1e-9)
        assert evaluate(model, data)[0] < 1e-8

    def test_zero_model_constant_targets(self):
        cfg = BasisConfig(p=1, n=2)
        from coupled_do.learner import SeparatedModel
        model = SeparatedModel(theta=np.zeros((2, cfg.s1)), config=cfg)
        c = np.array([3.0, 4.0])
        data = TrajectoryDataset(t=np.zeros(10), x=np.zeros((10, 2)),
                                 u=np.zeros((10, 1)), delta=np.tile(c, (10, 1)))
        assert evaluate(model, data) == (pytest.approx(5.0), pytest.approx(5.0))

    def test_empty_rejected(self):
        cfg = BasisConfig(p=1, n=1)
        from coupled_do.learner import SeparatedModel
        model = SeparatedModel(theta=np.zeros((1, cfg.s1)), config=cfg)
        with pytest.raises(DataError):
            evaluate(model, TrajectoryDataset(t=np.empty(0), x=np.empty((0, 1)),
                                              u=np.empty((0, 1)), delta=np.empty((0, 1))))


class TestSweep:
    def test_inspan_cell_exact(self):
        base = LearningConfig(functions=("cubic_drift",),
                              n_samples=4000, delta=1e-9, normalize=True, seed=1)
        cells = sweep(replace(base, p_values=[3], noise_variances=[0.0]))
        assert cells[0].report.test_mae < 1e-6

    def test_noise_trend(self):
        # mean test error over seeds grows with the noise level
        means = []
        for sigma2 in (0.01, 0.25):
            maes = []
            for seed in range(5):
                base = LearningConfig(functions=("cubic_drift",), n_samples=2000,
                                      normalize=True, seed=seed)
                cell = sweep(replace(base, p_values=[3], noise_variances=[sigma2]))[0]
                maes.append(cell.report.test_mae)
            means.append(np.mean(maes))
        assert means[0] < means[1]

    def test_interior_minimum_on_several_seeds(self):
        # every order at one noise level is scored on the same data, so the
        # p-curve's minimum is set by bias and variance, not by which noise
        # each cell drew; sin is odd, so p = 5 and p = 6 have nearly equal bias
        p_values = list(range(1, 7))
        noise = (0.01, 0.05, 0.1)
        edges = []
        for seed in range(5):
            base = LearningConfig(functions=("sine_cubic",), n_samples=10000,
                                  normalize=True, seed=seed)
            cells = sweep(replace(base, p_values=p_values, noise_variances=noise))
            for sigma2 in noise:
                maes = [c.report.test_mae for c in cells if c.noise_variance == sigma2]
                arg = p_values[int(np.argmin(maes))]
                if not p_values[0] < arg < p_values[-1]:
                    edges.append((seed, sigma2, arg))
        assert edges == []

    def test_cell_independent_of_grid(self):
        base = LearningConfig(functions=("sine_cubic",), n_samples=2000,
                              normalize=True, seed=2)
        grid = sweep(replace(base, p_values=[1, 2, 3, 4], noise_variances=[0.01, 0.05]))
        alone = sweep(replace(base, p_values=[3], noise_variances=[0.05]))[0]
        cell = next(c for c in grid if c.p == 3 and c.noise_variance == 0.05)
        assert cell.report.test_mae == alone.report.test_mae

    def test_failed_cell_reported_not_raised(self, monkeypatch):
        entry = dict(learner._REGISTRY["cubic_drift"],
                     fn=lambda x, t: np.full_like(np.asarray(x, dtype=float), np.nan))
        monkeypatch.setitem(learner._REGISTRY, "all_nan", entry)
        base = LearningConfig(functions=("all_nan",), n_samples=100, seed=0)
        cells = sweep(replace(base, p_values=[1], noise_variances=[0.0]))
        assert cells[0].report is None
        assert "DataError" in cells[0].error

    @staticmethod
    def per_function_cell(cfg, name, p, sigma2):
        # one (function, p, noise variance) cell by the route that fits it
        # alone: draw, split, clean test targets, fit_rls
        fn, (x_box, t_box) = disturbance(name), cfg.boxes(name)
        rng = rng_stream(cfg.seed, "sweep", int(np.float64(sigma2).view(np.uint64)))
        data = synthesize_dataset(fn, x_box, t_box, cfg.n_samples, rng,
                                  noise_std=float(np.sqrt(sigma2)))
        train, test = split_dataset(data, cfg.train_fraction, rng)
        test = TrajectoryDataset(t=test.t, x=test.x, u=test.u, delta=fn(test.x[:, 0], test.t))
        basis = BasisConfig(p, 1, x_box, t_box, cfg.normalize)
        return fit_rls(train, basis, cfg.delta, test=test)[1]

    @pytest.mark.parametrize("normalize", (False, True))
    @pytest.mark.parametrize("seed", (1, 2))
    def test_shared_sweep_equals_the_per_function_route(self, normalize, seed):
        # the three functions share one box, so one draw and one factor per
        # (noise, p) serve them all; every figure keeps its bits
        cfg = LearningConfig(n_samples=2000, normalize=normalize, seed=seed,
                             functions=("sine_product", "cubic_drift", "sine_cubic"),
                             p_values=(1, 2, 3, 4, 5, 6), noise_variances=(0.0, 0.05))
        cells = sweep(cfg)
        assert [(c.function, c.p, c.noise_variance) for c in cells] == [
            (f, p, s2) for f in cfg.functions for p in cfg.p_values
            for s2 in cfg.noise_variances]
        for cell in cells:
            assert cell.error is None
            assert cell.report == self.per_function_cell(cfg, cell.function, cell.p,
                                                         cell.noise_variance)

    def test_one_shared_level_keeps_one_design_alive(self, traced_peak):
        # three functions at p = 6: the draw is freed before the training
        # design, and the test design is built after the training one is freed
        cfg = LearningConfig(n_samples=20_000, p_values=(6,), noise_variances=(0.05,),
                             functions=("sine_product", "cubic_drift", "sine_cubic"))
        cells, peak = traced_peak(lambda: sweep(cfg))
        assert [c.error for c in cells] == [None] * 3
        n_train, s1 = 10_000, BasisConfig(p=6, n=1).s1
        assert peak < 2 * n_train * s1 * 8

    def test_failing_function_fails_only_its_own_cells(self, monkeypatch):
        entry = dict(learner._REGISTRY["cubic_drift"],
                     fn=lambda x, t: np.full_like(np.asarray(x, dtype=float), np.nan))
        monkeypatch.setitem(learner._REGISTRY, "all_nan", entry)
        base = LearningConfig(n_samples=500, seed=3, p_values=(1, 2, 3),
                              noise_variances=(0.0, 0.05))
        mixed = sweep(replace(base, functions=("all_nan", "cubic_drift")))
        alone = sweep(replace(base, functions=("cubic_drift",)))
        assert [c.error for c in mixed if c.function == "all_nan"] == [
            "DataError: non-finite values in delta"] * 6
        assert [c for c in mixed if c.function == "cubic_drift"] == alone
        assert all(c.error is None for c in alone)

    def test_disturbance_evaluated_once_per_noise_level(self, monkeypatch):
        # the clean test targets come from the draw, not from a second call
        calls = []
        for name in ("cubic_drift", "sine_cubic"):
            entry = learner._REGISTRY[name]

            def counting(x, t, fn=entry["fn"], name=name):
                calls.append((name, len(t)))
                return fn(x, t)
            monkeypatch.setitem(learner._REGISTRY, name, dict(entry, fn=counting))
        cfg = LearningConfig(n_samples=500, seed=3, functions=("cubic_drift", "sine_cubic"),
                             p_values=(1, 2, 3), noise_variances=(0.0, 0.05))
        assert all(c.error is None for c in sweep(cfg))
        assert sorted(calls) == [("cubic_drift", 500)] * 2 + [("sine_cubic", 500)] * 2

    def test_done_cells_are_left_out(self):
        base = LearningConfig(n_samples=500, seed=3, functions=("cubic_drift", "sine_cubic"),
                              p_values=(1, 2), noise_variances=(0.0, 0.05))
        whole = sweep(base)
        done = {("cubic_drift", 1, 0.0), ("sine_cubic", 2, 0.05), ("sine_cubic", 2, 0.0)}
        rest = sweep(base, done)
        assert rest == [c for c in whole if (c.function, c.p, c.noise_variance) not in done]

    def test_empty_grid_rejected(self):
        base = LearningConfig(function="cubic_drift")
        for grid in (dict(p_values=()), dict(noise_variances=())):
            with pytest.raises(ConfigError, match="must be non-empty"):
                sweep(replace(base, **grid))
