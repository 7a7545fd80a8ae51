"""Property tests for the single implementations of the core operations.

Runs are derandomized so the suite is reproducible; each property draws a
few dozen examples.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from attkit import so3  # noqa: E402
from attkit.dynamics import (  # noqa: E402
    BodyState,
    InertiaSpec,
    IntegratorConfig,
    linear_potential,
    propagate,
    zero_potential,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

unit = st.floats(-1.0, 1.0)
vec3 = st.tuples(unit, unit, unit)
rotation_vector = st.tuples(*[st.floats(-math.pi, math.pi)] * 3)


def _rotation(r):
    return so3.exp_so3(so3.hat(r))


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
