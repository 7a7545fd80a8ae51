import warnings

import numpy as np
import pytest

from attkit import filters, so3, wahba
from attkit.dynamics import (
    BodyState,
    InertiaSpec,
    IntegratorConfig,
    linear_potential,
    propagate,
    zero_potential,
)
from attkit.errors import (
    InconsistentUpdate,
    MissingGyro,
    NotRotation,
    NotSkew,
    PotentialGradientNotSkewCompatible,
)
from attkit.filters import (
    FilterConfig,
    FilterEstimate,
    MeasurementBatch,
    initial_estimate,
    run_filter,
    update_attitude,
    update_omega_no_gyro,
    update_omega_with_gyro,
)
from attkit.simulate import (
    NoiseSpec,
    ScenarioSpec,
    clustered_references,
    make_rng,
    simulate_scenario,
)


def _random_spd(rng, lo=0.3, hi=3.0):
    Q = so3.random_rotation(rng)
    return Q @ np.diag(rng.uniform(lo, hi, 3)) @ Q.T


def _scenario(sigma_vec=0.0, sigma_gyro=0.0, seed=0, count=20, dt=0.05, omega0=(0.3, -0.2, 0.4)):
    rng = make_rng(1234)
    refs = clustered_references(7, 0.25, axis=(0.4, -0.3, 0.85), rng=rng)
    return ScenarioSpec(
        refs=refs,
        inertia=InertiaSpec(np.diag([1.0, 2.0, 3.0])),
        potential=zero_potential(),
        init=BodyState(0.0, so3.random_rotation(rng), so3.hat(omega0)),
        schedule=dt * np.arange(1, count + 1),
        noise=NoiseSpec(sigma_vec=sigma_vec, sigma_gyro=sigma_gyro, seed=seed),
    )


# ---------------------------------------------------------------------------
# measurement batches

@pytest.mark.parametrize("rate", [
    (np.inf, 0.0, 0.0),
    (np.nan, 0.1, 0.2),
    (1e308, 0.0, 0.0),  # finite entries whose squared rate overflows
    (1e154, 1e154, 1e154),
])
def test_measurement_batch_rejects_a_gyro_reading_that_is_not_finite(rate):
    refs = clustered_references(5, 0.3, rng=make_rng(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and numpy does not warn on the way
        with pytest.raises(ValueError, match=r"^omega_meas: squared rate (inf|nan) is not"):
            MeasurementBatch(t=0.0, refs=refs, body=refs, omega_meas=so3.hat(rate))


def test_measurement_batch_checks_each_gyro_reading_of_a_stack():
    refs = clustered_references(5, 0.3, rng=make_rng(3))
    body = np.stack([refs] * 3)
    # |w|^2 = 1.47e308 is finite, though the squared norm of hat(w) is not.
    Om = so3.hat(np.array([[0.1, 0.2, 0.3], [7e153] * 3, [0.0, 1e308, 0.0]]).T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^omega_meas: squared rate inf is not"):
            MeasurementBatch(t=0.0, refs=refs, body=body, omega_meas=Om)
        kept = MeasurementBatch(t=0.0, refs=refs, body=body[:2], omega_meas=Om[:2])
    assert np.array_equal(kept.omega_meas, Om[:2])


def _gyro_checks_reference(om):
    # MeasurementBatch's gyro checks as two numpy passes, as they ran before
    # one reading was checked on its floats: |w|^2 finite, then check_skew.
    flat = om.reshape(*om.shape[:-2], -1)
    with np.errstate(over="ignore"):
        w2 = np.vecdot(0.5 * flat, flat)
    bad = so3._first_failure(np.isfinite(w2), w2)
    if bad is not None:
        raise ValueError(f"omega_meas: squared rate {bad} is not finite")
    return so3.check_skew(om)


def test_one_gyro_reading_is_checked_as_the_two_numpy_passes():
    # Every entry of a skew reading, in turn, moved just inside and outside
    # the skew tolerance, to NaN, to +-inf and to a value whose square
    # overflows: the one-pass check decides, and words its error, as the
    # two numpy passes do.
    refs = clustered_references(5, 0.3, rng=make_rng(3))
    base = so3.hat([0.3, -0.2, 0.1])
    checked = 0
    for i in range(3):
        for j in range(3):
            for v in (4e-13, 2e-12, 1.0, np.nan, np.inf, -np.inf, 1e200):
                om = base.copy()
                om[i, j] += v
                outcomes = []
                for check in (lambda: _gyro_checks_reference(om),
                              lambda: MeasurementBatch(0.0, refs, refs, omega_meas=om).omega_meas):
                    try:
                        outcomes.append(check().tolist())
                    except (ValueError, NotSkew) as exc:
                        outcomes.append((type(exc), str(exc)))
                assert outcomes[0] == outcomes[1], (i, j, v)
                checked += isinstance(outcomes[0], list)
    assert checked == 9  # 4e-13 stays inside the tolerance at every entry


# ---------------------------------------------------------------------------
# attitude update

def test_update_attitude_noise_free_is_identity_map():
    rng = np.random.default_rng(40)
    refs = clustered_references(6, 0.4, rng=make_rng(7))
    for _ in range(20):
        C = so3.random_rotation(rng)
        batch = MeasurementBatch(t=0.0, refs=refs, body=C.T @ refs)
        cfg = FilterConfig(Delta=_random_spd(rng))
        C_plus = update_attitude(C, batch, cfg)
        assert np.abs(C_plus - C).max() <= 1e-12


def test_update_attitude_small_delta_limit_is_pure_determination():
    rng = np.random.default_rng(41)
    refs = clustered_references(7, 0.3, rng=make_rng(8))
    C_true = so3.random_rotation(rng)
    body = C_true.T @ refs + 0.002 * rng.normal(size=refs.shape)
    batch = MeasurementBatch(t=0.0, refs=refs, body=body)
    C_minus = C_true @ so3.exp_so3(so3.hat(0.01 * rng.normal(size=3)))
    cfg = FilterConfig(Delta=1e-12 * np.eye(3))
    C_plus = update_attitude(C_minus, batch, cfg)
    pure, _ = wahba.solve_attitude(wahba.build_profile(refs, np.ones(7), body))
    assert np.abs(C_plus - pure).max() <= 1e-6


def test_update_attitude_small_weights_limit_keeps_propagated():
    rng = np.random.default_rng(42)
    refs = clustered_references(7, 0.3, rng=make_rng(9))
    C_true = so3.random_rotation(rng)
    body = C_true.T @ refs + 0.002 * rng.normal(size=refs.shape)
    C_minus = C_true @ so3.exp_so3(so3.hat(0.05 * rng.normal(size=3)))
    batch = MeasurementBatch(t=0.0, refs=refs, body=body, weights=1e-12 * np.ones(7))
    C_plus = update_attitude(C_minus, batch, FilterConfig())
    assert np.abs(C_plus - C_minus).max() <= 1e-6


# ---------------------------------------------------------------------------
# rate update without gyro

def test_update_omega_no_gyro_fixed_point_when_attitude_unchanged():
    rng = np.random.default_rng(43)
    for _ in range(50):
        C = so3.random_rotation(rng)
        Om = so3.hat(rng.normal(size=3))
        Pi = _random_spd(rng)
        out = update_omega_no_gyro(C, C, Om, Pi)
        assert np.abs(out - Om).max() <= 1e-12


def test_update_omega_no_gyro_identity_weight_closed_form():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        Cm = so3.random_rotation(rng)
        Cp = Cm @ so3.exp_so3(so3.hat(0.2 * rng.normal(size=3)))
        Om = so3.hat(rng.normal(size=3))
        general = update_omega_no_gyro(Cm, Cp, Om, np.eye(3))
        F = Cp.T @ Cm
        closed = 0.5 * (F @ Om + Om @ F.T)
        assert np.abs(general - closed).max() <= 1e-12


def test_update_omega_no_gyro_satisfies_defining_equation():
    rng = np.random.default_rng(45)
    I9 = np.eye(3)
    for _ in range(300):
        Cm = so3.random_rotation(rng)
        Cp = so3.random_rotation(rng)
        Om = so3.hat(rng.normal(size=3))
        Pi = _random_spd(rng)
        out = update_omega_no_gyro(Cm, Cp, Om, Pi)
        rhs = Cp.T @ Cm @ Om @ Pi + Pi @ Om @ Cm.T @ Cp
        assert np.abs(out @ Pi + Pi @ out - rhs).max() <= 1e-10
        # Cross-check with a vectorized 9x9 solve of X Pi + Pi X = rhs.
        A = np.kron(I9, Pi.T) + np.kron(Pi, I9)
        X = np.linalg.solve(A, rhs.ravel()).reshape(3, 3)
        assert np.abs(out - X).max() <= 1e-10


def test_update_omega_no_gyro_rejects_non_symmetric_weight():
    rng = np.random.default_rng(46)
    Cm = so3.random_rotation(rng)
    Cp = so3.random_rotation(rng)
    Om = so3.hat([0.5, -0.2, 0.8])
    Pi_bad = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InconsistentUpdate,
                       match=r"^symmetric residual \d\.\d{3}e[-+]\d{2} in rate update \(is"):
        update_omega_no_gyro(Cm, Cp, Om, Pi_bad)


@pytest.mark.parametrize("scale", [1e7, 1e100, 1e300])
def test_update_omega_no_gyro_accepts_large_weights(scale):
    # The right side's rounding grows with Pi: at Pi = 1e7 I its symmetric
    # residual reaches about 7.5e-9, above an absolute 1e-9. Checked relative
    # to max|Pi| max|Omega_minus|, large weights are solved, and the result
    # is the one for Pi / scale (the equation is homogeneous in Pi).
    rng = np.random.default_rng(49)
    for _ in range(200):
        Cm, Cp = so3.random_rotation(rng), so3.random_rotation(rng)
        Om, Pi = so3.hat(rng.normal(size=3)), _random_spd(rng)
        out = update_omega_no_gyro(Cm, Cp, Om, scale * Pi)
        assert np.abs(out - update_omega_no_gyro(Cm, Cp, Om, Pi)).max() <= 1e-12


def test_update_omega_no_gyro_reports_an_overflowing_right_side():
    # Pi = 1.7e308 I: F Omega Pi overflows. The update says so, prints the
    # residual as a plain number, and numpy does not warn on the way.
    Om = so3.hat([1.5, -1.2, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            update_omega_no_gyro(np.eye(3), np.eye(3), Om, 1.7e308 * np.eye(3))
    assert str(err.value) == "rate update: its right side overflowed (symmetric residual nan)"


def test_update_omega_no_gyro_continuity_bound():
    rng = np.random.default_rng(47)
    for _ in range(500):
        Cm = so3.random_rotation(rng)
        Cp = Cm @ so3.exp_so3(so3.hat(rng.normal(size=3)))
        Om = so3.hat(rng.normal(size=3))
        Pi = _random_spd(rng)
        out = update_omega_no_gyro(Cm, Cp, Om, Pi)
        nrm = np.linalg.norm(Om, "fro")
        bound = nrm + 2.0 * so3.principal_angle(Cp, Cm) * nrm
        assert np.linalg.norm(out, "fro") <= bound + 1e-9


# ---------------------------------------------------------------------------
# rate update with gyro

def test_update_omega_with_gyro_fixed_point_and_unbiased():
    rng = np.random.default_rng(48)
    for _ in range(50):
        Om = so3.hat(rng.normal(size=3))
        X = _random_spd(rng)
        G = _random_spd(rng)
        out = update_omega_with_gyro(Om, Om, X, G)
        assert np.abs(out - Om).max() <= 1e-12


def test_update_omega_with_gyro_equal_weights_is_arithmetic_mean():
    rng = np.random.default_rng(49)
    for _ in range(200):
        Om_prop = so3.hat(rng.normal(size=3))
        Om_meas = so3.hat(rng.normal(size=3))
        out = update_omega_with_gyro(Om_prop, Om_meas, np.eye(3), np.eye(3))
        assert np.abs(out - 0.5 * (Om_prop + Om_meas)).max() <= 1e-12


def test_update_omega_with_gyro_substitution_residual():
    rng = np.random.default_rng(50)
    for _ in range(300):
        Om_prop = so3.hat(rng.normal(size=3))
        Om_meas = so3.hat(rng.normal(size=3))
        X = _random_spd(rng)
        G = _random_spd(rng)
        out = update_omega_with_gyro(Om_prop, Om_meas, X, G)
        KG = X + G
        lhs = KG @ out + out @ KG
        rhs = X @ Om_meas + Om_meas @ X + G @ Om_prop + Om_prop @ G
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_update_omega_with_gyro_vector_reduction_identity():
    rng = np.random.default_rng(51)
    for _ in range(300):
        wp = rng.normal(size=3)
        wm = rng.normal(size=3)
        X = _random_spd(rng)
        G = _random_spd(rng)
        out = update_omega_with_gyro(so3.hat(wp), so3.hat(wm), X, G)
        I3 = np.eye(3)
        red = lambda M: np.trace(M) * I3 - M
        oracle = np.linalg.solve(red(X + G), red(X) @ wm + red(G) @ wp)
        assert np.abs(so3.vee(out) - oracle).max() <= 1e-12


# ---------------------------------------------------------------------------
# whole filter runs

def test_run_filter_exact_inputs_are_fixed_points_both_modes():
    scn = _scenario(sigma_vec=0.0, sigma_gyro=0.0, count=20)
    truth, batches = simulate_scenario(scn)
    init = FilterEstimate(
        t=batches[0].t,
        C_minus=truth[0].C,
        C_plus=truth[0].C,
        Omega_minus=truth[0].Omega,
        Omega_plus=truth[0].Omega,
    )
    for mode in ("no_gyro", "with_gyro"):
        cfg = FilterConfig(integrator=IntegratorConfig(step=1e-3))
        ests = run_filter(init, batches, scn.inertia, scn.potential, cfg, mode=mode)
        assert len(ests) == len(batches)
        for st, est in zip(truth, ests):
            # Entrywise metric: the trace-based angle has a sqrt(eps) floor.
            assert np.abs(est.C_minus - st.C).max() <= 1e-9
            assert np.abs(est.C_plus - st.C).max() <= 1e-9
            assert np.abs(so3.vee(est.Omega_minus - st.Omega)).max() <= 1e-9
            assert np.abs(so3.vee(est.Omega_plus - st.Omega)).max() <= 1e-9


def test_run_filter_estimates_satisfy_type_invariants():
    scn = _scenario(sigma_vec=0.002, sigma_gyro=0.002, seed=5, count=15)
    _, batches = simulate_scenario(scn)
    cfg = FilterConfig(integrator=IntegratorConfig(step=5e-3))
    ests = run_filter(None, batches, scn.inertia, scn.potential, cfg, mode="with_gyro")
    for est in ests:
        so3.check_rotation(est.C_minus)
        so3.check_rotation(est.C_plus)
        so3.check_skew(est.Omega_minus)
        so3.check_skew(est.Omega_plus)


def test_run_filter_small_delta_tracks_pure_determination():
    scn = _scenario(sigma_vec=0.002, seed=6, count=10)
    _, batches = simulate_scenario(scn)
    cfg = FilterConfig(
        Delta=1e-12 * np.eye(3), integrator=IntegratorConfig(step=5e-3)
    )
    ests = run_filter(None, batches, scn.inertia, scn.potential, cfg, mode="no_gyro")
    for batch, est in zip(batches[1:], ests[1:]):
        pure, _ = wahba.solve_attitude(
            wahba.build_profile(batch.refs, batch.weights, batch.body)
        )
        assert np.abs(est.C_plus - pure).max() <= 1e-5


def test_run_filter_deterministic():
    scn = _scenario(sigma_vec=0.002, sigma_gyro=0.001, seed=7, count=10)
    _, batches = simulate_scenario(scn)
    cfg = FilterConfig(integrator=IntegratorConfig(step=5e-3))
    a = run_filter(None, batches, scn.inertia, scn.potential, cfg, mode="with_gyro")
    b = run_filter(None, batches, scn.inertia, scn.potential, cfg, mode="with_gyro")
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.C_plus, eb.C_plus)
        assert np.array_equal(ea.Omega_plus, eb.Omega_plus)


def test_run_filter_with_gyro_matches_a_loop_of_the_public_updates():
    # Gamma weighs the propagated rate and omega_weight the measured one.
    # They differ here, so swapping them at the call site moves every update.
    rng = make_rng(41)
    Gamma, omega_weight = _random_spd(rng), _random_spd(rng, 5.0, 20.0)
    scn = _scenario(sigma_vec=0.003, sigma_gyro=0.02, seed=8, count=12)
    integ = IntegratorConfig(step=5e-3)
    cfg = FilterConfig(Delta=_random_spd(rng), Gamma=Gamma, integrator=integ)
    _, batches = simulate_scenario(scn, cfg=integ, omega_weight=omega_weight)
    ests = run_filter(None, batches, scn.inertia, scn.potential, cfg, mode="with_gyro")

    est = initial_estimate(batches[0])
    assert np.array_equal(ests[0].C_plus, est.C_plus)
    assert np.array_equal(ests[0].Omega_plus, est.Omega_plus)
    state = BodyState(est.t, est.C_plus, est.Omega_plus)
    for batch, got in zip(batches[1:], ests[1:], strict=True):
        prior = propagate(state, scn.inertia, scn.potential, batch.t, integ)
        C_plus = update_attitude(prior.C, batch, cfg)
        Omega_plus = update_omega_with_gyro(prior.Omega, batch.omega_meas, omega_weight, Gamma)
        for a, b in ((got.C_minus, prior.C), (got.C_plus, C_plus),
                     (got.Omega_minus, prior.Omega), (got.Omega_plus, Omega_plus)):
            assert np.abs(a - b).max() <= 1e-14
        state = BodyState(batch.t, C_plus, Omega_plus)


def test_run_filter_requires_gyro_fields_in_gyro_mode():
    scn = _scenario(count=3)
    _, batches = simulate_scenario(scn)
    stripped = [
        MeasurementBatch(t=b.t, refs=b.refs, body=b.body, weights=b.weights)
        for b in batches
    ]
    cfg = FilterConfig()
    with pytest.raises(MissingGyro):
        run_filter(None, stripped, scn.inertia, scn.potential, cfg, mode="with_gyro")


def test_run_filter_rejects_unsorted_batches():
    scn = _scenario(count=3)
    _, batches = simulate_scenario(scn)
    cfg = FilterConfig()
    with pytest.raises(ValueError):
        run_filter(None, list(reversed(batches)), scn.inertia, scn.potential, cfg)


def test_run_filter_rejects_unknown_mode_and_empty():
    scn = _scenario(count=3)
    _, batches = simulate_scenario(scn)
    with pytest.raises(ValueError):
        run_filter(None, batches, scn.inertia, scn.potential, FilterConfig(), mode="x")
    assert run_filter(None, [], scn.inertia, scn.potential, FilterConfig()) == []


def test_initial_estimate_bootstraps_attitude_from_measurements():
    scn = _scenario(sigma_vec=0.0, count=1)
    truth, batches = simulate_scenario(scn)
    est = initial_estimate(batches[0])
    assert np.abs(est.C_plus - truth[0].C).max() <= 1e-9
    assert np.abs(est.Omega_plus - truth[0].Omega).max() <= 1e-12


def test_initial_estimate_requires_some_rate_source():
    scn = _scenario(count=1)
    _, batches = simulate_scenario(scn)
    b = batches[0]
    bare = MeasurementBatch(t=b.t, refs=b.refs, body=b.body)
    with pytest.raises(MissingGyro):
        initial_estimate(bare)
    given = initial_estimate(bare, Omega0=so3.hat([0.1, 0.2, 0.3]))
    assert np.abs(so3.vee(given.Omega_plus) - [0.1, 0.2, 0.3]).max() == 0.0


def test_run_filter_rejects_an_initial_estimate_at_another_time():
    scn = _scenario(count=3)
    _, batches = simulate_scenario(scn)
    est = initial_estimate(batches[0])
    cfg = FilterConfig()
    assert len(run_filter(est, batches, scn.inertia, scn.potential, cfg)) == 3
    # Within 1e-12 relative of the first epoch is the same time.
    near = FilterEstimate(est.t * (1 + 5e-13), est.C_minus, est.C_plus, est.Omega_minus, est.Omega_plus)
    assert len(run_filter(near, batches, scn.inertia, scn.potential, cfg)) == 3
    late = FilterEstimate(est.t + 1e-3, est.C_minus, est.C_plus, est.Omega_minus, est.Omega_plus)
    with pytest.raises(ValueError, match="^initial estimate time .* does not match first epoch"):
        run_filter(late, batches, scn.inertia, scn.potential, cfg)


@pytest.mark.parametrize("C_plus", [1.001 * np.eye(3), np.diag([1.0, 1.0, -1.0])],
                         ids=["not-orthogonal", "reflection"])
def test_run_filter_rejects_a_non_rotation_initial_attitude_before_propagating(
        monkeypatch, C_plus):
    # The epoch loop propagates each plus attitude unchecked: every one after
    # the first is a polar factor, and the first is checked as the start.
    scn = _scenario(count=3)
    _, batches = simulate_scenario(scn)
    est = initial_estimate(batches[0])
    bad = FilterEstimate(est.t, C_plus, C_plus, est.Omega_minus, est.Omega_plus)
    monkeypatch.setattr(filters, "_advance", lambda *a: pytest.fail("propagated"))
    with pytest.raises(NotRotation):
        run_filter(bad, batches, scn.inertia, scn.potential, FilterConfig())


@pytest.mark.parametrize("mode", ["no_gyro", "with_gyro"])
def test_run_filter_names_a_propagated_rate_that_is_not_finite(mode):
    # The filter's own potential, every coeff entry 1e308, overflows the
    # moment of the first propagation, and the rate turns NaN. The epoch
    # loop checks the rate before the attitude, so the error names the rate
    # and the span, not the attitude's orthogonality residual.
    scn = _scenario(sigma_vec=1e-3, sigma_gyro=1e-3, count=3)
    _, batches = simulate_scenario(scn)
    pot = linear_potential(np.full((3, 3), 1e308))
    message = r"^rate \[nan, nan, nan\] rad/s is not finite after a time span of 0\.05 s "
    with pytest.raises(PotentialGradientNotSkewCompatible, match=message):
        run_filter(None, batches, scn.inertia, pot, FilterConfig(), mode=mode)


@pytest.mark.parametrize("mode", ["no_gyro", "with_gyro"])
def test_run_filter_rejects_an_overflowing_rate_update_at_its_epoch(mode):
    # A gyro weight of 1.7e308 I, or Pi = 1e308 I, overflows the skew solve of
    # the first update. Two epochs hold one update, so the run fails there and
    # not at a later epoch's check of the rate; numpy does not warn on the way.
    # Without gyro the body is at rest and its rate read exactly: the right
    # side is then 0, whose symmetric residual check passes whatever the
    # rounding of Pi's products.
    sigma_gyro, omega0 = (0.0, (0.0,) * 3) if mode == "no_gyro" else (1e-3, (0.3, -0.2, 0.4))
    scn = _scenario(sigma_vec=1e-3, sigma_gyro=sigma_gyro, count=2, omega0=omega0)
    weight = 1.7e308 * np.eye(3) if mode == "with_gyro" else None
    _, batches = simulate_scenario(scn, omega_weight=weight)
    cfg = FilterConfig(Pi=1e308 * np.eye(3)) if mode == "no_gyro" else FilterConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            run_filter(None, batches, scn.inertia, scn.potential, cfg, mode=mode)
    assert str(err.value) == "skew Sylvester solve: non-finite solution at weight trace inf"
