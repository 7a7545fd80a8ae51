"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS line once its assertions hold, so running with
``pytest -v`` (optionally ``-s``) yields one line per criterion.
"""

import time

import numpy as np

from attkit import cli, reference_case as rc, so3, wahba
from attkit.dynamics import (
    BodyState,
    InertiaSpec,
    IntegratorConfig,
    euler_rhs,
    j_apply,
    j_solve,
    kinetic_energy,
    propagate,
    spatial_momentum,
    zero_potential,
)
from attkit.filters import (
    FilterConfig,
    FilterEstimate,
    MeasurementBatch,
    run_filter,
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

ONES7 = np.ones(7)


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


def _random_spd(rng, lo=0.2, hi=3.0):
    Q = so3.random_rotation(rng)
    return Q @ np.diag(rng.uniform(lo, hi, 3)) @ Q.T


def _random_unit_set(rng, n):
    V = rng.normal(size=(3, n))
    return V / np.linalg.norm(V, axis=0, keepdims=True)


def test_criterion_1_golden_reproduction():
    profile = wahba.build_profile(rc.REFS, ONES7, rc.BODY_MEAS)
    wahba.solve_attitude(profile)  # warm up
    t0 = time.perf_counter()
    attitude, _ = wahba.solve_attitude(profile)
    elapsed = time.perf_counter() - t0

    assert np.abs(attitude - rc.ATTITUDE_EST).max() <= 2e-3
    err = so3.attitude_error_matrix(attitude, rc.ATTITUDE_TRUE)
    assert np.abs(err).max() <= 2e-3
    assert elapsed < 1e-3
    _report(1, "golden seven-vector reproduction")


def test_criterion_2_unbiasedness():
    rng = np.random.default_rng(101)
    cases = []
    for _ in range(1000):
        C = so3.random_rotation(rng)
        E = _random_unit_set(rng, int(rng.integers(4, 9)))
        w = rng.uniform(0.1, 5.0, size=E.shape[1])
        cases.append((C, E, w))
    t0 = time.perf_counter()
    for C, E, w in cases:
        est, _ = wahba.solve_attitude(wahba.build_profile(E, w, C.T @ E))
        assert np.abs(est - C).max() <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "noise-free determination is unbiased (1000 cases)")


def _newton_polar(L):
    # Orthogonal polar factor of L by Newton's iteration X <- (X + X^-T) / 2,
    # an oracle that shares no LAPACK call with solve_attitude's SVD. The
    # iteration converges quadratically: a step of d leaves an error of
    # about d^2 / 2, so after a step of at most 1e-9 X is at rounding level.
    X = L
    while True:
        X, prev = 0.5 * (X + np.linalg.inv(X).T), X
        if np.abs(X - prev).max() <= 1e-9:
            return X


def test_criterion_3_square_root_solution_matches_procrustes():
    rng = np.random.default_rng(102)
    profiles = []
    while len(profiles) < 1000:
        E = _random_unit_set(rng, 5)
        B = _random_unit_set(rng, 5)
        w = rng.uniform(0.2, 3.0, size=5)
        L = E @ (w[:, None] * B.T)
        if np.linalg.det(L) > 1e-6:
            profiles.append(L)
    t0 = time.perf_counter()
    for L in profiles:
        C, _ = wahba.solve_attitude(wahba.profile_from_matrix(L))
        assert np.abs(C - _newton_polar(L)).max() <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, "square-root solution equals the Procrustes polar factor (1000 cases)")


def test_criterion_4_minimality_probes():
    rng = np.random.default_rng(103)
    for _ in range(100):
        C_true = so3.random_rotation(rng)
        E = _random_unit_set(rng, 6)
        B = C_true.T @ E + 0.01 * rng.normal(size=(3, 6))
        w = rng.uniform(0.3, 2.0, size=6)
        est, _ = wahba.solve_attitude(wahba.build_profile(E, w, B))
        assert wahba.check_local_minimality(
            est, E, B, w, n_probes=100, eps=1e-3, rng=rng
        )
    _report(4, "100x100 tangent probes never undercut the optimum")


def test_criterion_5_momentum_operator_isomorphism():
    rng = np.random.default_rng(104)
    I9 = np.eye(3)
    for _ in range(1000):
        K = _random_spd(rng)
        Om = so3.hat(rng.normal(size=3))
        M = j_apply(K, Om)
        back = j_solve(K, M)
        assert np.abs(back - Om).max() <= 1e-11
        A = np.kron(K, I9) + np.kron(I9, K)
        X = np.linalg.solve(A, M.ravel()).reshape(3, 3)
        assert np.abs(back - X).max() <= 1e-11
    _report(5, "momentum operator inverts exactly on so(3) (1000 cases)")


def test_criterion_6_free_body_conservation_and_order():
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    pot = zero_potential()
    init = BodyState(0.0, so3.exp_so3(so3.hat([0.3, -0.2, 0.5])), so3.hat([3.0, 24.0, 4.0]))
    E0 = kinetic_energy(spec, init.Omega)
    P0 = spatial_momentum(init, spec)
    P0_scale = np.abs(P0).max()

    def max_drifts(step):
        cfg = IntegratorConfig(step=step)
        state = init
        e_drift = 0.0
        p_drift = 0.0
        ortho = 0.0
        for k in range(1, 21):
            state = propagate(state, spec, pot, 0.5 * k, cfg)
            e_drift = max(e_drift, abs(kinetic_energy(spec, state.Omega) - E0) / E0)
            p_drift = max(
                p_drift, np.abs(spatial_momentum(state, spec) - P0).max() / P0_scale
            )
            ortho = max(ortho, np.abs(state.C.T @ state.C - np.eye(3)).max())
        return e_drift, p_drift, ortho

    t0 = time.perf_counter()
    e1, p1, o1 = max_drifts(1e-3)
    e2, _, _ = max_drifts(5e-4)
    elapsed = time.perf_counter() - t0

    assert e1 <= 1e-8
    assert p1 <= 1e-8
    assert o1 <= 1e-9
    assert e1 / e2 >= 8.0
    assert elapsed < 10.0
    _report(6, "free-body conservation over 10 s and 4th-order energy drift")


def test_criterion_7_classical_euler_cross_check():
    rng = np.random.default_rng(105)
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    K = spec.classical
    pot = zero_potential()
    for _ in range(1000):
        w = rng.normal(size=3)
        state = BodyState(0.0, so3.random_rotation(rng), so3.hat(w))
        _, Om_dot = euler_rhs(state, spec, pot)
        oracle = np.linalg.solve(K, np.cross(K @ w, w))
        assert np.abs(so3.vee(Om_dot) - oracle).max() <= 1e-12
    _report(7, "dynamics matches classical Euler equations (1000 states)")


def test_criterion_8_filter_exactness_fixed_point():
    refs = clustered_references(7, 0.25, axis=(0.3, -0.4, 0.87), rng=make_rng(41))
    scn = ScenarioSpec(
        refs=refs,
        inertia=InertiaSpec(np.diag([1.0, 2.0, 3.0])),
        potential=zero_potential(),
        init=BodyState(0.0, so3.exp_so3(so3.hat([0.4, -0.7, 1.1])), so3.hat([0.8, -0.5, 1.0])),
        schedule=0.05 * np.arange(1, 101),
        noise=NoiseSpec(),
    )
    truth, batches = simulate_scenario(scn)
    init = FilterEstimate(
        t=batches[0].t,
        C_minus=truth[0].C,
        C_plus=truth[0].C,
        Omega_minus=truth[0].Omega,
        Omega_plus=truth[0].Omega,
    )
    cfg = FilterConfig(integrator=IntegratorConfig(step=1e-3))
    for mode in ("no_gyro", "with_gyro"):
        ests = run_filter(init, batches, scn.inertia, scn.potential, cfg, mode=mode)
        assert len(ests) == 100
        for st, est in zip(truth, ests):
            assert so3.principal_angle(est.C_minus, st.C) <= 1e-6
            assert so3.principal_angle(est.C_plus, st.C) <= 1e-6
            assert np.linalg.norm(so3.vee(est.Omega_minus - st.Omega)) <= 1e-6
            assert np.linalg.norm(so3.vee(est.Omega_plus - st.Omega)) <= 1e-6
    _report(8, "zero-noise filters are exact over 100 epochs (both modes)")


def test_criterion_9_identity_weight_closed_form():
    rng = np.random.default_rng(106)
    for _ in range(1000):
        Cm = so3.random_rotation(rng)
        Cp = Cm @ so3.exp_so3(so3.hat(0.3 * rng.normal(size=3)))
        Om = so3.hat(rng.normal(size=3))
        general = update_omega_no_gyro(Cm, Cp, Om, np.eye(3))
        F = Cp.T @ Cm
        closed = 0.5 * (F @ Om + Om @ F.T)
        assert np.abs(general - closed).max() <= 1e-12
    _report(9, "identity-weight rate update equals the closed form (1000 cases)")


def test_criterion_10_gyro_update_residual_and_mean():
    rng = np.random.default_rng(107)
    for _ in range(1000):
        Om_prop = so3.hat(rng.normal(size=3))
        Om_meas = so3.hat(rng.normal(size=3))
        X = _random_spd(rng)
        G = _random_spd(rng)
        out = update_omega_with_gyro(Om_prop, Om_meas, X, G)
        KG = X + G
        resid = KG @ out + out @ KG - (
            X @ Om_meas + Om_meas @ X + G @ Om_prop + Om_prop @ G
        )
        assert np.abs(resid).max() <= 1e-10
        mean = update_omega_with_gyro(Om_prop, Om_meas, np.eye(3), np.eye(3))
        assert np.abs(mean - 0.5 * (Om_prop + Om_meas)).max() <= 1e-12
    _report(10, "gyro rate update solves its equation; equal weights average")


def test_criterion_11_statistical_error_order():
    sigma = 0.002
    refs = clustered_references(7, 0.25, axis=(0.3, -0.4, 0.87), rng=make_rng(42))
    inertia = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    init = BodyState(
        0.0, so3.exp_so3(so3.hat([0.4, -0.7, 1.1])), so3.hat([0.8, -0.5, 1.0])
    )
    schedule = 0.05 * np.arange(1, 101)
    integ = IntegratorConfig(step=5e-3)
    fcfg = FilterConfig(integrator=integ)

    def campaign(s):
        scn = ScenarioSpec(
            refs=refs,
            inertia=inertia,
            potential=zero_potential(),
            init=init,
            schedule=schedule,
            noise=NoiseSpec(sigma_vec=s),
        )
        summary = cli.montecarlo_summary(
            scn, fcfg, np.eye(3), integ, "no_gyro", trials=100, master_seed=4242
        )
        return summary["aggregate"]["err_att_post_mean"]

    t0 = time.perf_counter()
    mean_full = campaign(sigma)
    mean_half = campaign(sigma / 2.0)
    elapsed = time.perf_counter() - t0

    assert mean_full <= 3.0 * sigma
    ratio = mean_half / mean_full
    assert 0.4 <= ratio <= 0.6
    assert elapsed < 120.0
    _report(11, "Monte-Carlo error tracks the measurement noise level")
