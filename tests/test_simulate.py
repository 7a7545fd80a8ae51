import numpy as np
import pytest

from attkit import so3
from attkit.dynamics import BodyState, InertiaSpec, kinetic_energy, zero_potential
from attkit.simulate import (
    DRAW_BLOCK,
    NoiseSpec,
    ScenarioSpec,
    _draws,
    clustered_references,
    gen_batches_from_truth,
    gen_gyro_measurement,
    gen_truth,
    gen_vector_measurements,
    make_rng,
    simulate_scenario,
)


def _scenario(noise=NoiseSpec(), count=10, inertia=None, omega0=(0.4, -0.3, 0.6)):
    refs = clustered_references(7, 0.3, rng=make_rng(17))
    return ScenarioSpec(
        refs=refs,
        inertia=inertia or InertiaSpec(np.diag([1.0, 2.0, 3.0])),
        potential=zero_potential(),
        init=BodyState(0.0, so3.random_rotation(make_rng(18)), so3.hat(omega0)),
        schedule=0.1 * np.arange(1, count + 1),
        noise=noise,
    )


def test_gen_truth_isotropic_spin_is_analytic():
    scn = _scenario(inertia=InertiaSpec(np.eye(3)), omega0=(0.0, 0.0, 1.0), count=5)
    for state in gen_truth(scn):
        expected = scn.init.C @ so3.exp_so3(so3.hat([0.0, 0.0, state.t]))
        assert np.abs(state.C - expected).max() <= 1e-9


def test_gen_truth_conserves_energy():
    scn = _scenario(count=20)
    E0 = kinetic_energy(scn.inertia, scn.init.Omega)
    for state in gen_truth(scn):
        assert abs(kinetic_energy(scn.inertia, state.Omega) - E0) / E0 <= 1e-9


def test_gen_truth_empty_schedule():
    refs = clustered_references(5, 0.3, rng=make_rng(19))
    scn = ScenarioSpec(
        refs=refs,
        inertia=InertiaSpec(np.eye(3)),
        potential=zero_potential(),
        init=BodyState(0.0, np.eye(3), so3.hat([0.1, 0.0, 0.0])),
        schedule=np.array([]),
        noise=NoiseSpec(),
    )
    assert gen_truth(scn) == []


def test_vector_measurements_noise_free_exact():
    rng = make_rng(20)
    refs = clustered_references(6, 0.4, rng=rng)
    state = BodyState(0.0, so3.random_rotation(rng), so3.hat([0.1, 0.2, 0.3]))
    body = gen_vector_measurements(state, refs, NoiseSpec(), rng)
    assert np.array_equal(body, state.C.T @ refs)


def test_vector_measurements_columns_are_unit():
    rng = make_rng(21)
    refs = clustered_references(6, 0.4, rng=rng)
    state = BodyState(0.0, so3.random_rotation(rng), so3.hat([0.1, 0.2, 0.3]))
    body = gen_vector_measurements(state, refs, NoiseSpec(sigma_vec=0.01), rng)
    assert np.abs(np.linalg.norm(body, axis=0) - 1.0).max() <= 1e-12


def test_vector_measurement_angle_statistics():
    # Per-axis noise of std sigma leaves two transverse components, so the
    # root-mean-square angular deviation is sigma * sqrt(2).
    sigma = 0.002
    rng = make_rng(22)
    e = np.array([0.3, -0.5, 0.81])
    e /= np.linalg.norm(e)
    refs = np.tile(e[:, None], (1, 100000))
    state = BodyState(0.0, np.eye(3), np.zeros((3, 3)))
    body = gen_vector_measurements(state, refs, NoiseSpec(sigma_vec=sigma), rng)
    angles = np.arccos(np.clip(e @ body, -1.0, 1.0))
    rms = np.sqrt(np.mean(angles**2))
    assert abs(rms - sigma * np.sqrt(2.0)) <= 0.05 * sigma * np.sqrt(2.0)


def test_vector_measurements_match_reference_residual_scale():
    # Regenerating the bundled reference configuration at its stated noise
    # level must produce residuals of the same magnitude as the stored ones.
    from attkit import reference_case as rc

    U, _, Vt = np.linalg.svd(rc.ATTITUDE_TRUE)
    C = U @ np.diag([1.0, 1.0, np.linalg.det(U @ Vt)]) @ Vt
    state = BodyState(0.0, C, np.zeros((3, 3)))
    sigma = 0.002
    rng = make_rng(33)
    resid = []
    for _ in range(200):
        body = gen_vector_measurements(state, rc.REFS, NoiseSpec(sigma_vec=sigma), rng)
        resid.append(body - C.T @ rc.REFS)
    resid = np.array(resid)
    assert abs(resid.std() - sigma) <= 0.2 * sigma
    assert np.abs(resid).max() <= 5.0 * sigma
    assert np.abs(resid).max() >= np.abs(rc.RESIDUALS).max() / 2.0


def test_vector_measurements_deterministic_given_seed():
    refs = clustered_references(5, 0.3, rng=make_rng(23))
    state = BodyState(0.0, so3.random_rotation(make_rng(24)), np.zeros((3, 3)))
    a = gen_vector_measurements(state, refs, NoiseSpec(sigma_vec=0.01), make_rng(99))
    b = gen_vector_measurements(state, refs, NoiseSpec(sigma_vec=0.01), make_rng(99))
    assert np.array_equal(a, b)


def test_gyro_measurement_noise_free_and_skew():
    Om = so3.hat([0.2, -0.1, 0.5])
    out = gen_gyro_measurement(Om, NoiseSpec(), make_rng(25))
    assert np.array_equal(out, Om)
    noisy = gen_gyro_measurement(Om, NoiseSpec(sigma_gyro=0.05), make_rng(25))
    so3.check_skew(noisy)


def test_gyro_measurement_statistics():
    sigma = 0.01
    rng = make_rng(26)
    spec = NoiseSpec(sigma_gyro=sigma)
    zero = np.zeros((3, 3))
    draws = np.array([so3.vee(gen_gyro_measurement(zero, spec, rng)) for _ in range(100000)])
    assert np.abs(draws.mean(axis=0)).max() <= 3.0 * sigma / np.sqrt(100000 / 3.0)
    assert np.abs(draws.std(axis=0) - sigma).max() <= 0.03 * sigma


def test_gyro_measurement_deterministic_given_seed():
    Om = so3.hat([0.2, -0.1, 0.5])
    spec = NoiseSpec(sigma_gyro=0.01)
    assert np.array_equal(
        gen_gyro_measurement(Om, spec, make_rng(7)),
        gen_gyro_measurement(Om, spec, make_rng(7)),
    )


def test_clustered_references_geometry():
    rng = make_rng(27)
    axis = np.array([0.2, -0.4, 0.89])
    axis /= np.linalg.norm(axis)
    half = 0.3
    refs = clustered_references(30, half, axis=axis, rng=rng)
    assert np.abs(np.linalg.norm(refs, axis=0) - 1.0).max() <= 1e-12
    assert (axis @ refs >= np.cos(half) - 1e-12).all()
    s = np.linalg.svd(refs, compute_uv=False)
    assert s[2] >= 1e-6 * s[0]


def test_clustered_references_validation():
    with pytest.raises(ValueError):
        clustered_references(2, 0.3)
    with pytest.raises(ValueError):
        clustered_references(5, 0.0)


def test_simulate_scenario_bit_reproducible():
    scn = _scenario(noise=NoiseSpec(sigma_vec=0.002, sigma_gyro=0.001, seed=5), count=5)
    _, a = simulate_scenario(scn)
    _, b = simulate_scenario(scn)
    for ba, bb in zip(a, b):
        assert np.array_equal(ba.body, bb.body)
        assert np.array_equal(ba.omega_meas, bb.omega_meas)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(sigma_vec=-0.1)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["sigma_vec", "sigma_gyro"])
def test_noise_spec_rejects_non_finite_sigma(key, sigma):
    # A NaN sigma_vec would give noise-free vectors (nan > 0.0 is False),
    # and an infinite sigma_gyro infinite gyro readings.
    with pytest.raises(ValueError, match="finite"):
        NoiseSpec(**{key: sigma})


def test_scenario_spec_validation():
    refs = clustered_references(5, 0.3, rng=make_rng(28))
    init = BodyState(0.0, np.eye(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ScenarioSpec(
            refs=refs,
            inertia=InertiaSpec(np.eye(3)),
            potential=zero_potential(),
            init=init,
            schedule=np.array([0.2, 0.1]),
            noise=NoiseSpec(),
        )
    with pytest.raises(ValueError):
        ScenarioSpec(
            refs=refs,
            inertia=InertiaSpec(np.eye(3)),
            potential=zero_potential(),
            init=init,
            schedule=np.array([-0.5]),
            noise=NoiseSpec(),
        )


def test_scenario_spec_rejects_a_schedule_that_is_not_1d():
    with pytest.raises(ValueError, match="^schedule must be a 1-d sequence of times$"):
        ScenarioSpec(
            refs=clustered_references(5, 0.3, rng=make_rng(28)),
            inertia=InertiaSpec(np.eye(3)),
            potential=zero_potential(),
            init=BodyState(0.0, np.eye(3), np.zeros((3, 3))),
            schedule=np.array([[0.1, 0.2], [0.3, 0.4]]),
        )


@pytest.mark.parametrize("scale, unit", [(1.0 + 0.9e-6, True), (1.0 + 1.1e-6, False)])
def test_scenario_refs_unit_length_boundary(scale, unit):
    # Columns within 1e-6 of unit length pass; beyond it the refs are named once.
    refs = scale * clustered_references(5, 0.3, rng=make_rng(28))
    rest = dict(inertia=InertiaSpec(np.eye(3)), potential=zero_potential(),
                init=BodyState(0.0, np.eye(3), np.zeros((3, 3))), schedule=np.array([0.1]))
    if unit:
        assert np.array_equal(ScenarioSpec(refs=refs, **rest).refs, refs)
    else:
        with pytest.raises(ValueError, match=r"^scenario\.refs: columns are not unit vectors$"):
            ScenarioSpec(refs=refs, **rest)


def test_draws_at_a_subnormal_sigma_equal_one_normal_call_per_block():
    # At sigma = 5e-324 most sigma z underflow to a zero. normal(0.0, sigma)
    # returns 0.0 + sigma z, a +0.0 for each of them, and so must _draws: the
    # values and their sign bits equal one normal call per block of epochs.
    sigma, epochs, k = 5e-324, 9, 6
    got = np.array(list(_draws(make_rng(61), np.full(k, sigma), epochs)))
    plain = make_rng(61)
    expected = np.concatenate([
        plain.normal(0.0, sigma, (min(DRAW_BLOCK, epochs - start), k))
        for start in range(0, epochs, DRAW_BLOCK)
    ])
    assert got.shape == expected.shape == (epochs, k)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert (got == 0.0).any() and (got != 0.0).any()


def _per_epoch_measurements(state, refs, noise, rng):
    # One epoch drawn with one normal call per noisy sensor: the vector noise
    # (3, n), then the gyro noise (3).
    body, omega = state.C.T @ refs, state.Omega.copy()
    if noise.sigma_vec > 0.0:
        body = body + rng.normal(0.0, noise.sigma_vec, size=refs.shape)
        body = body / np.linalg.norm(body, axis=0)
    if noise.sigma_gyro > 0.0:
        omega = omega + so3.hat(rng.normal(0.0, noise.sigma_gyro, size=3))
    return body, omega


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize(
    "sigmas", [(0.0, 0.0), (0.01, 0.0), (0.0, 0.02), (0.01, 0.02)],
    ids=["none", "vec", "gyro", "both"],
)
def test_blocked_draws_equal_per_epoch_draws(sigmas, trials):
    # Two block boundaries, then a partial block. Batches drawn for a list
    # of generators hold one trial per generator on a leading axis, or one
    # measurement shared by every trial where that sensor has no noise.
    epochs = 2 * DRAW_BLOCK + DRAW_BLOCK // 2
    scn = _scenario(noise=NoiseSpec(*sigmas), count=epochs)
    truth = gen_truth(scn)
    seeds = [40 + i for i in range(trials)]
    rngs = [make_rng(seed) for seed in seeds]
    batches = gen_batches_from_truth(truth, scn, rngs[0] if trials == 1 else rngs)
    for i, seed in enumerate(seeds):
        public, plain = make_rng(seed), make_rng(seed)
        for state, batch in zip(truth, batches, strict=True):
            body = gen_vector_measurements(state, scn.refs, scn.noise, public)
            omega = gen_gyro_measurement(state.Omega, scn.noise, public)
            expected = _per_epoch_measurements(state, scn.refs, scn.noise, plain)
            got = [x[i] if x.ndim == 3 else x for x in (batch.body, batch.omega_meas)]
            for g, e, p in zip(got, expected, (body, omega), strict=True):
                assert g.shape == e.shape == p.shape
                assert g.tobytes() == e.tobytes() == p.tobytes()
        # Each generator drew what the per-epoch draws drew, nothing for a
        # sensor without noise, and no more: the streams go on alike.
        assert rngs[i].standard_normal() == public.standard_normal() == plain.standard_normal()
