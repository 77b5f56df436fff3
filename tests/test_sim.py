"""Integrator, controller, dataset synthesis, and closed-loop scenarios."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from coupled_do.basis import BasisConfig
from coupled_do.errors import ConfigError, DataError, NumericalError
from coupled_do.learner import SeparatedModel, fit_rls, rng_stream
from coupled_do.observer import Hodo
from coupled_do.oracles import rk4_step
from coupled_do import learner, observer, sim
from coupled_do.sim import (ScenarioConfig, disturbance, disturbance_box, generate_training_run,
                            run_scenario)
from loop_scenario import pd_control, point_mass_step, run_scenario_reference


@pytest.fixture(scope="module")
def newton_model():
    data = generate_training_run("quad_drag_drift", n_samples=10000, seed=42)
    cfg = BasisConfig(p=2, n=1, x_box=(-10, 10), t_box=(0, 100), normalize=False)
    model, _ = fit_rls(data, cfg, 0.01)
    return model


class TestRk4:
    def test_zero_field_identity(self):
        y = np.array([1.0, -2.0])
        assert np.array_equal(rk4_step(lambda t, s: np.zeros(2), y, 0.0, 0.1), y)

    def test_exponential_accuracy(self):
        y = rk4_step(lambda t, s: s, np.array([1.0]), 0.0, 0.1)
        assert abs(y[0] - np.exp(0.1)) < 1e-7

    def test_fourth_order_global_error(self):
        def integrate(dt):
            y, t = np.array([0.0]), 0.0
            for _ in range(int(round(2.0 / dt))):
                y = rk4_step(lambda tt, s: np.array([np.cos(tt)]), y, t, dt)
                t += dt
            return abs(y[0] - np.sin(2.0))
        assert 12.0 < integrate(0.02) / integrate(0.01) < 20.0

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            rk4_step(lambda t, s: s, np.array([1.0]), 0.0, 0.0)

    def test_nonfinite_reported(self):
        with pytest.raises(NumericalError):
            rk4_step(lambda t, s: np.array([np.inf]), np.array([1.0]), 0.0, 0.1)


class TestPointMassStep:
    @pytest.mark.parametrize("name", sorted(learner._REGISTRY))
    @pytest.mark.parametrize("dt", [1e-3, 0.04])
    def test_bitwise_equal_to_reference_rk4(self, name, dt):
        # the float step against the generic integrator on the array closure
        fn = disturbance(name)
        x_box, t_box = disturbance_box(name)
        rng = np.random.default_rng(17)
        for mass in (0.3, 1.0, 2.5):
            for _ in range(300):
                eta = float(rng.uniform(-5.0, 5.0))
                v = float(rng.uniform(*x_box))
                t = float(rng.uniform(*t_box))
                u = float(rng.normal(0.0, 20.0))

                def rhs(tau, s):
                    return np.array([s[1], (u + fn(s[1], tau)) / mass])
                ref = rk4_step(rhs, np.array([eta, v]), t, dt)
                got = point_mass_step(fn, u, mass, eta, v, t, dt, fn(v, t))
                assert got[0] == ref[0] and got[1] == ref[1]

    def test_nonfinite_reported(self):
        with pytest.raises(NumericalError):
            point_mass_step(lambda v, t: np.inf, 0.0, 1.0, 0.0, 0.0, 0.0, 1e-3, 0.0)


class TestPdControl:
    def test_zero_errors_zero_input(self):
        assert pd_control(1.0, 0.5, 1.0, 0.5, 10.0, 25.0, 0.0) == 0.0

    def test_proportional_term(self):
        assert pd_control(0.0, 0.0, 1.0, 0.0, 10.0, 25.0, 0.0) == pytest.approx(10.0)

    def test_feedforward_subtracts(self):
        assert pd_control(0.0, 0.0, 0.0, 0.0, 10.0, 25.0, 7.0) == pytest.approx(-7.0)

    def test_exact_compensation_linear_error_dynamics(self):
        # with the true disturbance fed forward, the tracking error obeys
        # m e'' + k_v e' + k_eta e = -m eta_d'' (stable second order loop)
        k_eta, k_v = 10.0, 25.0
        roots = np.roots([1.0, k_v, k_eta])
        assert np.all(roots.real < 0)
        fn = disturbance("quad_drag_drift")
        eta, v = 0.3, -0.2      # offset start, constant reference
        dt = 1e-3
        for k in range(20000):      # slowest loop pole is -0.41
            t = k * dt
            u = pd_control(eta, v, 0.0, 0.0, k_eta, k_v, delta_hat=fn(v, t))
            eta, v = rk4_step(lambda tau, s: np.array([s[1], u + fn(s[1], tau)]),
                              np.array([eta, v]), t, dt)
        # residual forcing comes only from the held feedforward within steps
        assert abs(eta) < 5e-3 and abs(v) < 5e-3


class TestRegistry:
    def test_known_functions(self):
        assert set(learner._REGISTRY) == {
            "sine_product", "cubic_drift", "sine_cubic", "quad_drag_drift"}

    def test_values(self):
        assert disturbance("sine_product")(1.0, 2.0) == pytest.approx(np.sin(1) * np.sin(2))
        assert disturbance("cubic_drift")(2.0, 2.0) == pytest.approx(2 - 8 / 12 - 1)
        assert disturbance("sine_cubic")(1.0, 3.0) == pytest.approx(-np.sin(1) * 3.0)
        assert disturbance("quad_drag_drift")(3.0, 1.0) == pytest.approx(-9 + 50 - 10 - 0.5)

    def test_sine_takes_math_on_floats_and_numpy_on_arrays(self):
        x = np.linspace(-2.0, 2.0, 101)
        assert np.array_equal(learner._sin(x), np.sin(x))
        assert type(learner._sin(0.5)) is float
        assert np.isnan(learner._sin(float("inf")))
        fn = disturbance("sine_product")
        assert np.array_equal(fn(x, x[::-1]), np.sin(x) * np.sin(x[::-1]))

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            disturbance("nope")
        with pytest.raises(ConfigError):
            disturbance_box("nope")


class TestGenerateTrainingRun:
    def test_single_sample(self):
        data = generate_training_run("cubic_drift", n_samples=1, seed=0)
        assert len(data) == 1
        assert data.delta[0, 0] == pytest.approx(
            disturbance("cubic_drift")(data.x[0, 0], data.t[0]))

    def test_marginals_roughly_uniform(self):
        # quartile counts of x and t stay near N/4 over several seeds
        for seed in range(5):
            data = generate_training_run("sine_product", n_samples=4000, seed=seed)
            x01 = (data.x[:, 0] + 2.0) / 4.0
            t01 = data.t / 4.0
            for marginal in (x01, t01):
                counts, _ = np.histogram(marginal, bins=4, range=(0.0, 1.0))
                assert np.abs(counts - 1000).max() < 150
            assert data.x.min() >= -2.0 and data.x.max() <= 2.0

    def test_invalid_count(self):
        with pytest.raises(DataError):
            generate_training_run("cubic_drift", n_samples=0)

    def test_feeds_benchmark_fit(self, newton_model):
        # the synthesized set identifies the benchmark coefficients
        assert newton_model.theta[0, 0] == pytest.approx(49.25, abs=1e-2)
        assert newton_model.theta[0, 3] == pytest.approx(-10.0, abs=1e-3)


class TestScenario:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(dt=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(duration=-1.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(sigma_v2=-0.1)
        with pytest.raises(ConfigError):
            ScenarioConfig(mode="both")
        with pytest.raises(ConfigError):
            ScenarioConfig(mode="hodo", model=None)
        for field in ("dt", "duration", "sigma_v2"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ConfigError, match=f"scenario.{field}"):
                    ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("duration", [1e-4, 5e-4])
    def test_duration_that_holds_no_step_rejected(self, duration):
        # round(duration / dt) = 0 steps: a run would log nothing and
        # report nan metrics
        with pytest.raises(ConfigError, match=r"scenario\.duration"):
            ScenarioConfig(dt=1e-3, duration=duration)
        assert len(run_scenario(ScenarioConfig(dt=1e-3, duration=6e-4)).t) == 1   # one step

    @pytest.mark.parametrize("duration, dt", [(1.0, 1e-320), (1e300, 1e-300)])
    def test_step_count_that_overflows_rejected(self, duration, dt):
        # duration / dt is inf, which round() cannot turn into a step count
        with pytest.raises(ConfigError, match=r"^scenario\.duration: .*scenario\.dt"):
            ScenarioConfig(dt=dt, duration=duration)

    @pytest.mark.parametrize("field, kwargs", [
        pytest.param("scenario.mass", dict(mass=0.0), id="zero-mass"),
        pytest.param("scenario.mass", dict(mass=-1.0), id="negative-mass"),
        pytest.param("observer.ndo_gain", dict(mode="ndo", ndo_gain=0.0), id="zero-gain"),
        pytest.param("observer.ndo_gain", dict(ndo_gain=-0.4), id="negative-gain"),
        pytest.param("observer.poles", dict(poles=(0.4, -0.4, -0.4)), id="unstable-pole"),
        pytest.param("observer.poles", dict(poles=(-0.4, 0.0, -0.4)), id="zero-pole"),
        pytest.param("observer.poles", dict(mode="hodo", poles=(-0.4, -0.4)), id="pole-count"),
        *(pytest.param(f"scenario.{key}", {key: value}, id=f"{key}={value}")
          for key in ("k_eta", "k_v") for value in (0.0, -1.0, float("inf"))),
        pytest.param("scenario.seed", dict(seed=-1), id="negative-seed"),
    ])
    def test_values_the_config_loader_rejects(self, field, kwargs):
        # load_config leaves these checks to ScenarioConfig, which names the INI field
        model = SeparatedModel(theta=np.ones((1, 9)), config=BasisConfig(p=2, n=1))
        with pytest.raises(ConfigError, match=re.escape(field)):
            ScenarioConfig(model=model, **kwargs)

    @pytest.mark.parametrize("field, kwargs", [
        pytest.param("observer.ndo_gain", dict(mode="ndo", ndo_gain=3000.0), id="ndo"),
        pytest.param("observer.poles", dict(mode="hodo", poles=(-3000.0,) * 3), id="hodo"),
        pytest.param("observer.poles", dict(mode="hodo", poles=(-1e300,) * 3), id="hodo-huge"),
        pytest.param("observer.poles", dict(mode="hodo", poles=(-0.4, -2e3 + 2e3j, -2e3 - 2e3j)),
                     id="hodo-complex"),
    ])
    def test_poles_unstable_in_the_observer_step_rejected(self, field, kwargs):
        # one RK4 step maps the observer's error by R(pole * dt), R(z) = 1 + z
        # + z^2/2 + z^3/6 + z^4/24; |R| >= 1 from |pole| * dt = 2.785 on the
        # real axis, so these poles diverge at dt = 1e-3
        model = SeparatedModel(theta=np.ones((1, 9)), config=BasisConfig(p=2, n=1))
        with pytest.raises(ConfigError, match=re.escape(field) + ": unstable"):
            ScenarioConfig(model=model, dt=1e-3, **kwargs)
        # a mode that does not use them takes them, and poles inside the edge pass
        ScenarioConfig(model=model, dt=1e-3, **dict(kwargs, mode="none"))
        ScenarioConfig(model=model, dt=1e-3, mode=kwargs["mode"], ndo_gain=2780.0,
                       poles=(-2780.0, -1e-20, -0.4))

    def test_assignment_cannot_skip_the_checks(self):
        # the checks run at construction only: a field is never assigned,
        # and a variant made with replace is checked again
        cfg = ScenarioConfig(mode="ndo")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.ndo_gain = 5000.0
        assert cfg.ndo_gain == 0.4
        with pytest.raises(ConfigError, match="observer.ndo_gain: unstable"):
            dataclasses.replace(cfg, ndo_gain=5000.0)

    def test_determinism(self):
        cfg = dict(mode="ndo", sigma_v2=0.1, duration=0.5, seed=7)
        a = run_scenario(ScenarioConfig(**cfg))
        b = run_scenario(ScenarioConfig(**cfg))
        for name in ("eta", "v", "u", "delta_hat"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_unforced_plant_conserves_velocity_exactly(self):
        # u = 0, delta = 0: the integrator is exact on linear dynamics,
        # so velocity is conserved bitwise and position grows linearly
        eta, v0 = 0.0, 2.0
        state = np.array([eta, v0])
        dt = 1e-2
        for k in range(500):
            state = rk4_step(lambda t, s: np.array([s[1], 0.0]), state, k * dt, dt)
        assert state[1] == v0
        assert state[0] == pytest.approx(v0 * 5.0, rel=1e-12)

    def test_series_lengths_consistent(self):
        res = run_scenario(ScenarioConfig(mode="none", duration=0.25, seed=1))
        n = len(res.t)
        for name in ("eta", "eta_d", "v", "u", "delta_true", "delta_hat"):
            assert len(getattr(res, name)) == n

    def test_metrics_recomputable(self):
        res = run_scenario(ScenarioConfig(mode="ndo", duration=0.5, seed=3))
        assert res.tracking_mae() == pytest.approx(
            np.mean(np.abs(res.eta - res.eta_d)), abs=1e-15)
        assert res.estimation_mae() == pytest.approx(
            np.mean(np.abs(res.delta_true - res.delta_hat)), abs=1e-15)

    def test_mode_none_with_zero_disturbance_tracks(self, newton_model):
        # replace the disturbance with an inert one via a tiny custom run
        from coupled_do import sim
        res = run_scenario(ScenarioConfig(mode="none", sigma_v2=0.0, duration=2.0))
        # quadratic drift dominates the uncompensated loop
        assert res.tracking_mae() > 0.1

    def test_comparative_ordering(self, newton_model):
        results = {}
        for mode in ("none", "ndo", "hodo"):
            cfg = ScenarioConfig(mode=mode, model=newton_model if mode == "hodo" else None,
                                 sigma_v2=0.1, duration=6.0, seed=5)
            results[mode] = run_scenario(cfg)
        assert (results["hodo"].tracking_mae()
                < results["ndo"].tracking_mae()
                < results["none"].tracking_mae())
        assert results["hodo"].estimation_mae() < results["ndo"].estimation_mae()

    @pytest.mark.parametrize("mode", ["none", "ndo", "hodo"])
    def test_nonfinite_plant_returns_partial_series(self, newton_model, monkeypatch, mode):
        # a disturbance that is infinite from t = 0.0105 on: the step from
        # t = 0.010 reaches it in its last stage, so that step is the last logged
        base = disturbance("quad_drag_drift")
        entry = dict(learner._REGISTRY["quad_drag_drift"],
                     fn=lambda v, t: base(v, t) + (np.inf if t > 0.0105 else 0.0))
        monkeypatch.setitem(learner._REGISTRY, "blows_up", entry)
        cfg = dict(mode=mode, model=newton_model if mode == "hodo" else None,
                   sigma_v2=0.1, seed=4, log_sigma=True)
        cut = run_scenario(ScenarioConfig(disturbance_name="blows_up", duration=1.0, **cfg))
        full = run_scenario(ScenarioConfig(duration=0.011, **cfg))
        held = run_scenario(ScenarioConfig(duration=0.010, **cfg))
        assert len(cut.t) == 11
        assert not cut.completed and full.completed
        for name in ("t", "eta", "eta_d", "v", "u", "delta_true", "delta_hat"):
            assert np.array_equal(getattr(cut, name), getattr(full, name))
        if mode == "hodo":
            assert np.array_equal(cut.sigma_hat, full.sigma_hat)
        else:
            assert cut.sigma_hat is None
        # the observer did not step after the failed plant step
        assert cut.gain_failures == held.gain_failures

    # the benchmark disturbance keeps the bare mode as its id
    @pytest.mark.parametrize("mode, name", [
        pytest.param(mode, name, id=mode if name == "quad_drag_drift" else f"{mode}-{name}")
        for name in ("quad_drag_drift", "sine_product", "sine_cubic")
        for mode in ("none", "ndo", "hodo")])
    def test_closed_loop_runs_on_python_floats(self, newton_model, monkeypatch, mode, name):
        # np.float64 subclasses float, so only ``type(...) is float`` tells
        # a Python float from a NumPy scalar
        base = disturbance(name)
        seen, calls = set(), []

        def recording(v, t):
            seen.update((type(v), type(t)))
            calls.append(t)
            return base(v, t)

        # a replaced disturbance has no ``expr``: the loop calls it at each stage
        monkeypatch.setitem(learner._REGISTRY[name], "fn", recording)
        cfg = ScenarioConfig(mode=mode, model=newton_model if mode == "hodo" else None,
                             disturbance_name=name, duration=0.01, seed=1)
        res = run_scenario(cfg)
        assert len(res.t) == 10 and res.completed
        assert seen == {float} and len(calls) == 4 * 10
        for mass in (1.0, 2.5):
            assert_loop_equals_reference(dataclasses.replace(cfg, mass=mass))

    @pytest.mark.parametrize("mode", ["none", "ndo"])
    def test_overflowing_disturbance_ends_the_run(self, mode):
        # -v**2 raises OverflowError on a Python float: the disturbance is
        # logged as nan and the run ends after its first step
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run_scenario(ScenarioConfig(mode=mode, v0=1e200, duration=1.0))
        assert not res.completed
        assert len(res.t) == 1 and np.isnan(res.delta_true[0])
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []

    def test_sigma_logging(self, newton_model):
        cfg = ScenarioConfig(mode="hodo", model=newton_model, duration=0.1,
                             seed=2, log_sigma=True)
        res = run_scenario(cfg)
        assert res.sigma_hat is not None
        assert res.sigma_hat.shape == (len(res.t), 3)


SERIES = ("t", "eta", "eta_d", "v", "u", "delta_true", "delta_hat", "sigma_hat")


def scenario_outcome(run, cfg):
    """The bytes of every series of a run (sigma_hat None unless logged),
    then its length, ``gain_failures`` and ``completed``; or the type and
    message of its error.  Bytes compare every bit, nan and -0.0 included."""
    try:
        res = run(cfg)
    except NumericalError as err:
        return type(err), str(err)
    series = [None if getattr(res, name) is None else getattr(res, name).tobytes()
              for name in SERIES]
    return (*series, len(res.t), res.gain_failures, res.completed)


def assert_loop_equals_reference(cfg):
    outcome = scenario_outcome(run_scenario_reference, cfg)
    assert scenario_outcome(run_scenario, cfg) == outcome
    return outcome


class TestStraightLoop:
    # run_scenario's generated loop against the loop with one call per part

    @pytest.mark.parametrize("mode", ["none", "ndo", "hodo"])
    @pytest.mark.parametrize("name", sorted(learner._REGISTRY))
    def test_bit_identical_to_the_reference(self, newton_model, mode, name):
        for seed in (1, 2, 3):
            for sigma_v2 in (0.0, 0.1):
                for v0 in (0.0, 0.7):
                    cfg = ScenarioConfig(mode=mode, model=newton_model if mode == "hodo" else None,
                                         disturbance_name=name, seed=seed, sigma_v2=sigma_v2,
                                         v0=v0, duration=0.3, log_sigma=True)
                    assert assert_loop_equals_reference(cfg)[-3:] == (300, 0, True)

    @pytest.mark.parametrize("mode", ["none", "ndo"])
    def test_overflowing_disturbance(self, mode):
        # -v**2 raises OverflowError: a one-step partial series.  At v0 =
        # 1.3e154 it is finite, and the second stage's velocity overflows it
        # (hodo refuses these v0 at construction: its row is not finite)
        for v0 in (1e200, 1.3e154):
            for mass in (1.0, 2.5):
                cfg = ScenarioConfig(mode=mode, v0=v0, mass=mass, duration=1.0)
                assert assert_loop_equals_reference(cfg)[-3:] == (1, 0, False)

    @pytest.mark.parametrize("mode", ["none", "ndo", "hodo"])
    def test_nonfinite_plant_state(self, newton_model, monkeypatch, mode):
        base = disturbance("quad_drag_drift")
        entry = dict(learner._REGISTRY["quad_drag_drift"],
                     fn=lambda v, t: base(v, t) + (np.inf if t > 0.0105 else 0.0))
        monkeypatch.setitem(learner._REGISTRY, "blows_up", entry)
        # at duration 0.011 the failed step is the run's last: still not completed
        for mass, duration in ((1.0, 1.0), (2.5, 1.0), (1.0, 0.011)):
            cfg = ScenarioConfig(mode=mode, model=newton_model if mode == "hodo" else None,
                                 disturbance_name="blows_up", seed=4, duration=duration,
                                 log_sigma=True, mass=mass)
            assert assert_loop_equals_reference(cfg)[-3:] == (11, 0, False)

    def test_diverging_plant(self):
        # G dt = 5 is outside RK4's stability interval; -v**2 overflows first.
        # ScenarioConfig refuses the gain, so it is forced in after the checks.
        cfg = ScenarioConfig(mode="ndo", duration=2.0)
        object.__setattr__(cfg, "ndo_gain", 5000.0)
        assert assert_loop_equals_reference(cfg)[-1] is False

    @pytest.mark.parametrize("mode, gain", [("ndo", 1e4), ("hodo", 3000.0)])
    def test_nonfinite_observer_state(self, newton_model, mode, gain):
        # a bounded disturbance keeps the plant finite while the observer,
        # unstable at these poles for dt = 1e-3, diverges.  ScenarioConfig
        # refuses the poles, so they are forced in after the checks.
        for mass in (1.0, 2.5):
            cfg = ScenarioConfig(mode=mode, model=newton_model, disturbance_name="sine_product",
                                 duration=1.0, log_sigma=True, mass=mass)
            object.__setattr__(cfg, "ndo_gain", gain)
            object.__setattr__(cfg, "poles", (-gain,) * 3)
            assert assert_loop_equals_reference(cfg) == (
                NumericalError, "observer state diverged to non-finite values")

    def test_held_gains_counted(self):
        # C(x) = [1e3, 0, x] fails the pivot margin wherever |x| <= 0.1
        theta = np.zeros((1, 9))
        theta[0, 0], theta[0, 7] = 1e3, 1.0
        model = SeparatedModel(theta=theta, config=BasisConfig(p=2, n=1, normalize=False))
        cfg = ScenarioConfig(mode="hodo", model=model, v0=2.0, duration=1.0, log_sigma=True)
        assert assert_loop_equals_reference(cfg)[-2] > 0


class TestObserverHotPath:
    # the closed loop holds the observer step's lines and calls into the
    # observer only to design a new row's gain, with no NumPy round trip

    def test_one_gain_design_per_step(self, newton_model, monkeypatch):
        # on the class, where the benchmark's trace wraps it
        rows = []
        design = Hodo._design
        monkeypatch.setattr(Hodo, "_design", lambda self, c: rows.append(c) or design(self, c))
        res = run_scenario(ScenarioConfig(mode="hodo", model=newton_model, duration=0.05, seed=1))
        assert len(res.t) == 50 and res.completed
        assert len(rows) == 50 + 1      # the constructor's row, then one per step

    def test_modes_write_the_observer_step_into_the_loop(self, newton_model, monkeypatch):
        # each observer built by the loop gets a counting wrapper around its
        # bound step: the generated loop holds the step's lines and never
        # calls it, and the bytes stay the reference loop's
        cfgs = [ScenarioConfig(mode=mode, model=newton_model if mode == "hodo" else None,
                               duration=0.2, seed=3, log_sigma=True)
                for mode in ("none", "ndo", "hodo")]
        expected = [scenario_outcome(run_scenario_reference, cfg) for cfg in cfgs]
        calls = []

        class Counted(Hodo):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                kernel = self.step
                self.step = lambda *a: calls.append(len(a)) or kernel(*a)

        monkeypatch.setattr(sim, "Hodo", Counted)
        for cfg, outcome in zip(cfgs, expected):
            assert scenario_outcome(run_scenario, cfg) == outcome
        assert calls == []

    @pytest.mark.parametrize("mode", ["ndo", "hodo"])
    def test_plant_maps_read_once_per_run(self, newton_model, monkeypatch, mode):
        calls = []
        channel = sim.newton_velocity_channel

        def counting(mass=1.0):
            return tuple(lambda x, f=f: calls.append(f) or f(x) for f in channel(mass))

        monkeypatch.setattr(sim, "newton_velocity_channel", counting)
        counts = []
        for duration in (0.01, 0.1):
            calls.clear()
            run_scenario(ScenarioConfig(mode=mode, model=newton_model, duration=duration))
            counts.append(len(calls))
        assert counts[0] == counts[1]


@pytest.fixture(scope="module")
def normalized_model():
    data = generate_training_run("quad_drag_drift", n_samples=10000, seed=43)
    cfg = BasisConfig(p=2, n=1, x_box=(-10, 10), t_box=(0, 100), normalize=True)
    return fit_rls(data, cfg, 0.01)[0]


class TestGeneratedLoop:
    # the loop generated per (observer shape, disturbance) key against the
    # loop with one call per part

    @pytest.mark.parametrize("mode", ["none", "ndo", "hodo"])
    @pytest.mark.parametrize("name", sorted(learner._REGISTRY))
    def test_every_key_equals_the_reference(self, newton_model, normalized_model, mode, name):
        for normalize in (False, True):
            model = (normalized_model if normalize else newton_model) if mode == "hodo" else None
            for log_sigma in (False, True):
                for mass in (1.0, 2.5):
                    cfg = ScenarioConfig(mode=mode, model=model, disturbance_name=name,
                                         mass=mass, seed=5, v0=0.3, duration=0.25,
                                         log_sigma=log_sigma)
                    assert assert_loop_equals_reference(cfg)[-3:] == (250, 0, True)

    def test_one_compile_per_key(self, newton_model, normalized_model, monkeypatch):
        compiled = []
        build = sim.build
        monkeypatch.setattr(sim, "build", lambda src, name, **kw: compiled.append(name)
                            or build(src, name, **kw))
        sim._loop.cache_clear()
        cfgs = [ScenarioConfig(mode=mode, model=model, mass=mass, disturbance_name=name,
                               duration=0.01)
                for mode, model in (("none", None), ("ndo", None), ("hodo", newton_model),
                                    ("hodo", normalized_model))
                for mass in (1.0, 2.5) for name in ("quad_drag_drift", "sine_product")]
        for cfg in cfgs + cfgs:
            run_scenario(cfg)
        # ndo is the s2 = 1 raw shape; the two hodo models differ in normalize,
        # and the mass is no part of a key
        assert len(compiled) == len(set(compiled)) == 4 * 2
        assert sim._loop.cache_info().misses == 8 and sim._loop.cache_info().hits == 24
        # a replaced disturbance is one more key, the call path, compiled once
        monkeypatch.setitem(learner._REGISTRY["sine_product"], "fn", lambda v, t: 0.0)
        for _ in range(2):
            run_scenario(ScenarioConfig(disturbance_name="sine_product", duration=0.01))
        assert len(compiled) == 9

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("s2", range(1, 9))
    def test_the_step_assigns_no_name_of_the_loop(self, s2, normalize):
        # the step's lines share only their outputs with the loop's own lines
        setup, step = observer.loop_step(s2, normalize, sim._LOOP)
        assert "e0" in "".join(step) and f"sh{s2 - 1}" in "".join(step)
        # a loop line that reads or writes a name the step assigns is refused
        for own in ("v2 = v + half * a_1", "ht = gx * t", "cl = self._c"):
            with pytest.raises(AssertionError, match="assigns the loop's names"):
                observer.loop_step(max(s2, 3), normalize, sim._LOOP + own)


class TestDivergingRuns:
    def test_hodo_divergence_is_an_error_not_a_warning(self):
        # sine_product is no polynomial in t: the raw p = 2 model, identified
        # on t in [0, 4], drives the 20 s loop into divergence; the
        # observer's finiteness check reports it, and NumPy stays quiet
        data = generate_training_run("sine_product", n_samples=5000, seed=1)
        cfg = BasisConfig(p=2, n=1, x_box=(-2.0, 2.0), t_box=(0.0, 4.0), normalize=False)
        model, _ = fit_rls(data, cfg, 0.01)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError):
                run_scenario(ScenarioConfig(mode="hodo", model=model,
                                            disturbance_name="sine_product", sigma_v2=0.0,
                                            duration=20.0, poles=(-0.4,) * 3))
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
