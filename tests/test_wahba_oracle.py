"""solve_attitude against a 50-digit polar factor.

The SVD oracles elsewhere in the suite call the same LAPACK routine as the
solver; this one shares nothing with it. mpmath computes the SVD of the
rounded profile L at 50 digits, from which C* = U V^T and
S* = U diag(1/s1, 1/s2, 1/s3) U^T. A backward-stable solve is within
eps (32 + 8 kappa) of them, kappa = s1/s3; forming L L^T, as a QR plus
eigh route does, lets the error grow as eps * kappa^2. The
constant term covers LAPACK's own backward error on a 3x3 SVD, which
reaches about 25 eps * s1 (up to 21.8 eps kappa at kappa near 1 over
200,000 random profiles; above kappa = 10, at most 3.3 eps kappa). A
profile with det L < 0 has no polar factor in SO(3): the solver refuses it.
"""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from attkit import so3, wahba  # noqa: E402
from attkit.errors import ReflectionProfile  # noqa: E402

EPS = np.finfo(float).eps


def _bound(kappa):
    return EPS * (32.0 + 8.0 * kappa)


def _polar_50_digits(L):
    """(C*, S*, kappa) of a 3x3 profile, from a 50-digit SVD."""
    with mp.workdps(50):
        M = mp.matrix(L.tolist())  # every double converts exactly
        U, s, Vt = mp.svd_r(M)  # s descending
        C = U * Vt
        S = U * mp.diag([1 / s[0], 1 / s[1], 1 / s[2]]) * U.T
        kappa = float(s[0] / s[2]) if s[2] else math.inf
    return np.array(C.tolist(), dtype=float), np.array(S.tolist(), dtype=float), kappa


def _errors(L):
    """Errors of C and of S (relative to S*'s largest entry) over their
    bound."""
    C, S = wahba.solve_attitude(wahba.profile_from_matrix(L))
    so3.check_rotation(C, tol=1e-14)
    C_ref, S_ref, kappa = _polar_50_digits(L)
    bound = _bound(kappa)
    return (np.abs(C - C_ref).max() / bound,
            np.abs(S - S_ref).max() / np.abs(S_ref).max() / bound)


def _narrow_cone_profiles(seed, count):
    """Profiles like the determine benchmark's narrow-field half: 4-12
    vectors in a cone of half-angle 0.15-0.4 rad, per-axis noise
    log-uniform in 1e-4 to 1e-2, weights uniform in 0.2-2."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n, half = int(rng.integers(4, 13)), rng.uniform(0.15, 0.4)
        z = rng.uniform(math.cos(half), math.cos(0.3 * half), size=n)
        phi = 2.0 * math.pi * (np.arange(n) + rng.uniform(0.0, 0.5, size=n)) / n
        r = np.sqrt(1.0 - z * z)
        refs = so3.random_rotation(rng) @ np.vstack([r * np.cos(phi), r * np.sin(phi), z])
        body = so3.random_rotation(rng).T @ refs
        body += 10.0 ** rng.uniform(-4.0, -2.0) * rng.normal(size=body.shape)
        body /= np.linalg.norm(body, axis=0)
        out.append(wahba.build_profile(refs, rng.uniform(0.2, 2.0, size=n), body).matrix)
    return np.stack(out)


def test_narrow_cone_solves_match_the_50_digit_polar_factor():
    # kappa from about 20 to 900; an eps * kappa^2 route exceeds the bound
    # on a few of them (by up to 5x).
    profiles = _narrow_cone_profiles(41, 200)
    errors = np.array([_errors(L) for L in profiles])
    assert errors.max() <= 1.0
    # One stacked solve equals the single ones bit for bit.
    Cs, Ss = wahba.solve_attitude(wahba.profile_from_matrix(profiles))
    for L, C, S in zip(profiles, Cs, Ss):
        C1, S1 = wahba.solve_attitude(wahba.profile_from_matrix(L))
        assert np.array_equal(C, C1) and np.array_equal(S, S1)


rotation_vector = st.tuples(*[st.floats(-math.pi, math.pi)] * 3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rotation_vector, rotation_vector, st.floats(0.0, 5.9), st.floats(0.0, 5.9), st.booleans())
def test_conditioned_solves_match_the_50_digit_polar_factor(r1, r2, a, b, reflection):
    # L = R1 diag(1, s2, +-s3) R2^T with kappa up to 10**5.9, just above the
    # SQRT_EIG_RTOL floor; a reflection profile has no polar factor in SO(3).
    s3 = 10.0 ** -max(a, b) * (-1.0 if reflection else 1.0)
    L = so3.exp_so3(so3.hat(r1)) @ np.diag([1.0, 10.0 ** -min(a, b), s3]) @ so3.exp_so3(so3.hat(r2)).T
    if reflection:
        with pytest.raises(ReflectionProfile):
            wahba.solve_attitude(wahba.profile_from_matrix(L))
        return
    err_C, err_S = _errors(L)
    assert err_C <= 1.0 and err_S <= 1.0
