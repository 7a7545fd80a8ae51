"""Property tests for the single implementations of the core operations.

Runs are derandomized so the suite is reproducible; each property draws a
few dozen examples.
"""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from attkit import dynamics, so3, wahba  # noqa: E402
from attkit.dynamics import (  # noqa: E402
    BodyState,
    InertiaSpec,
    IntegratorConfig,
    linear_potential,
    propagate,
    zero_potential,
)
from attkit.filters import update_omega_no_gyro, update_omega_with_gyro  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

unit = st.floats(-1.0, 1.0)
vec3 = st.tuples(unit, unit, unit)
rotation_vector = st.tuples(*[st.floats(-math.pi, math.pi)] * 3)
# log10 eigenvalues of SPD weights down to 1e-6: equal draws give repeated
# eigenvalues, small ones nearly singular weights.
log_eigs = st.tuples(*[st.floats(-6.0, 0.0)] * 3)
EPS = np.finfo(float).eps


def _rotation(r):
    return so3.exp_so3(so3.hat(r))


def _spd(r, eigs):
    Q = _rotation(r)
    W = Q @ np.diag(10.0 ** np.array(eigs)) @ Q.T
    return 0.5 * (W + W.T)


def _sylvester_cond(K):
    # Condition number of the 3-vector form tr(K) I - K of K X + X K = M.
    return np.linalg.cond(np.trace(K) * np.eye(3) - K)


@SETTINGS
@given(rotation_vector, st.tuples(*[st.floats(0.0, 6.0)] * 3), vec3)
def test_skew_sylvester_solve_matches_kronecker_oracle(r, log_eigs, m):
    Q = _rotation(r)
    K = Q @ np.diag(10.0 ** np.array(log_eigs)) @ Q.T
    K = 0.5 * (K + K.T)
    X = so3.solve_skew_sylvester(K, m)
    # vec(K X + X K) = (I kron K + K^T kron I) vec(X), column-major vec.
    op = np.kron(np.eye(3), K) + np.kron(K.T, np.eye(3))
    oracle = np.linalg.solve(op, so3.hat(m).ravel(order="F")).reshape(3, 3, order="F")
    scale = max(np.abs(oracle).max(), 1e-300)
    assert np.abs(X + X.T).max() == 0.0
    assert np.abs(X - oracle).max() <= 1e-9 * scale


@SETTINGS
@given(
    rotation_vector,
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    st.sampled_from([1e-3, 2e-3, 5e-3]),
    st.integers(0, 60),
    st.integers(0, 60),
    st.one_of(st.none(), st.tuples(*[unit] * 9)),
)
def test_propagation_composes_at_step_aligned_times(r, w, h, na, nb, coeff):
    inertia = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    pot = zero_potential() if coeff is None else linear_potential(np.reshape(coeff, (3, 3)))
    cfg = IntegratorConfig(step=h)
    a, b = na * h, (na + nb) * h
    start = BodyState(0.0, _rotation(r), so3.hat(w))
    direct = propagate(start, inertia, pot, b, cfg)
    split = propagate(propagate(start, inertia, pot, a, cfg), inertia, pot, b, cfg)
    assert np.abs(split.C - direct.C).max() <= 1e-12
    assert np.abs(split.Omega - direct.Omega).max() <= 1e-12


def _step_by_step(step, C, w, span, h):
    # Every step followed by its own attitude update C exp(th), with the span
    # split into steps as _advance splits it.
    n_full = int(math.floor(span / h + 1e-12))
    rem = span - n_full * h
    for dt in [h] * n_full + ([rem] if rem > 1e-12 * max(1.0, abs(span)) else []):
        th, w = step(C, w, dt)
        C = C @ so3._exp_vec(th)
    return C, w


@SETTINGS
@given(
    st.tuples(*[st.floats(1.0, 3.0)] * 3),
    rotation_vector,
    # One body (the first rate, as floats); B trials; or B trials whose rates
    # are stacked while their attitude is still shared, as in a campaign
    # whose noise has reached only the rates.
    st.sampled_from(["one", "stacked", "shared attitude"]),
    st.lists(st.tuples(vec3, st.floats(-8.0, 0.5)), min_size=1, max_size=4),
    st.floats(1e-4, 1e-2),
    # Blocks of 1 to 24 steps x trials in place of the module's 1,024, so
    # that a short span holds several: blocks of fewer than 5 steps are
    # folded one exponential at a time, longer ones in one stacked call.
    st.integers(1, 24),
    st.integers(1, 120),
    # No partial step, a tiny one (its increment takes the series branch of
    # the exponential beside larger ones), or an ordinary one.
    st.one_of(st.just(0.0), st.floats(1e-7, 1e-5), st.floats(0.05, 0.95)),
    st.sampled_from([None, [[0.3, -0.2, 0.1], [0.0, 0.4, -0.3], [0.2, 0.1, -0.5]]]),
)
def test_advance_equals_the_step_by_step_attitude_update(
    eigs, r, layout, rates, h, block, n, frac, coeff
):
    # Slow rates, from 1e-8 rad/s up, give increments below the series
    # branch's 1e-6 threshold in the same block as fast ones.
    inertia = InertiaSpec(np.diag(eigs))
    pot = zero_potential() if coeff is None else linear_potential(coeff)
    if coeff is not None:
        n = min(n, 40)  # C moves every step in a potential: no blocks to span
    step = dynamics._make_step(inertia, pot)
    w = np.array([np.array(v) * 10.0**m for v, m in rates])
    C, w = _rotation(r), (w[0].tolist() if layout == "one" else tuple(w.T))
    if layout == "stacked":
        C = np.array([_rotation(np.multiply(r, k + 1) / 4) for k in range(len(rates))])
    span = (n + frac) * h
    with mock.patch.object(dynamics, "_FOLD_BLOCK", block):
        C_adv, w_adv = dynamics._advance(step, C, w, span, h)
    C_ref, w_ref = _step_by_step(step, C, w, span, h)
    assert np.array_equal(C_adv, C_ref)
    assert np.array_equal(np.asarray(w_adv), np.asarray(w_ref))


@SETTINGS
@given(st.tuples(*[st.floats(-10.0, 10.0)] * 9))
def test_nearest_rotation_lands_in_so3(entries):
    R = so3.nearest_rotation(np.reshape(entries, (3, 3)))
    assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-12
    assert abs(np.linalg.det(R) - 1.0) <= 1e-12


@SETTINGS
@given(rotation_vector)
def test_nearest_rotation_fixes_rotations(r):
    C = _rotation(r)
    assert np.abs(so3.nearest_rotation(C) - C).max() <= 1e-14


@SETTINGS
@given(rotation_vector, vec3, st.floats(1e-10, math.pi - 1e-9))
def test_principal_angle_reads_back_the_rotation_angle(r, axis, theta):
    u = np.array(axis)
    n = np.linalg.norm(u)
    hypothesis.assume(n > 1e-3)
    C = _rotation(r)
    assert abs(so3.principal_angle(C, C @ _rotation(theta * u / n)) - theta) <= 1e-14


@SETTINGS
@given(rotation_vector, rotation_vector, st.floats(0.0, 5.9), st.floats(0.0, 5.9))
def test_qr_solve_matches_svd_procrustes_across_conditioning(r1, r2, a, b):
    # Singular values 1 >= s2 >= s3 down to s3 = 10**-5.9, just above the
    # SQRT_EIG_RTOL floor on s3**2 (and the DET_RTOL floor on s2 s3).
    s = np.array([1.0, 10.0 ** -min(a, b), 10.0 ** -max(a, b)])
    L = _rotation(r1) @ np.diag(s) @ _rotation(r2).T
    C, _ = wahba.solve_attitude(wahba.profile_from_matrix(L))
    U, _, Vt = np.linalg.svd(L)
    # The QR route forms R R^T, so its error grows with the square of the
    # condition number.
    assert np.abs(C - U @ Vt).max() <= 64.0 * EPS * (s[0] / s[2]) ** 2


@SETTINGS
@given(rotation_vector, rotation_vector, vec3, log_eigs)
def test_no_gyro_rate_update_fixes_the_rate_without_correction(r, q, w, eigs):
    C, Pi, Om = _rotation(r), _spd(q, eigs), so3.hat(w)
    out = update_omega_no_gyro(C, C, Om, Pi)
    assert np.abs(out - Om).max() <= 16.0 * EPS * _sylvester_cond(Pi) * np.abs(Om).max()


@SETTINGS
@given(rotation_vector, log_eigs, rotation_vector, log_eigs, vec3)
def test_gyro_rate_update_fixes_equal_rates(qx, ex, qg, eg, w):
    X, Gamma, Om = _spd(qx, ex), _spd(qg, eg), so3.hat(w)
    out = update_omega_with_gyro(Om, Om, X, Gamma)
    assert np.abs(out - Om).max() <= 16.0 * EPS * _sylvester_cond(X + Gamma) * np.abs(Om).max()
