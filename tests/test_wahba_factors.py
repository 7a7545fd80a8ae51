"""Properties of the one SVD per Wahba problem.

profile_from_matrix factors each profile L = U diag(s) V^T once and keeps
the factors; solve_attitude reuses them. These tests check that the stored
factors give what a fresh SVD gives, that they survive a solve unchanged,
that the solve is exactly equivariant under scaling by powers of two, and
where the two singular floors draw their lines.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from attkit import so3, wahba  # noqa: E402
from attkit.errors import ReflectionProfile, SingularProfile  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

# The DET_RTOL floor of a profile with s1 = s2 = 1: s3 > DET_RTOL (2 + s3^2)^1.5.
DET_FLOOR_S3 = wahba.DET_RTOL * 2.0**1.5
# The SQRT_EIG_RTOL floor with s1 = 1: s3^2 > SQRT_EIG_RTOL.
EIG_FLOOR_S3 = math.sqrt(wahba.SQRT_EIG_RTOL)


def _profile_matrix(rng, kind):
    """One 3x3 profile with a random sign of det: well-conditioned (s in
    [0.3, 3]), or with s3 / s1 within a factor 3 of either floor."""
    if kind == "random":
        s = rng.uniform(0.3, 3.0, size=3)
    else:
        s3 = (DET_FLOOR_S3 if kind == "near_det_floor" else EIG_FLOOR_S3) * 3.0 ** rng.uniform(-1, 1)
        s = np.array([1.0, rng.uniform(s3, 1.0), s3]) * 2.0 ** rng.integers(-4, 5)
    sign = rng.choice([1.0, -1.0])
    return so3.random_rotation(rng) @ np.diag(s * [1.0, 1.0, sign]) @ so3.random_rotation(rng).T


@st.composite
def profile_matrices(draw):
    """One profile or a stack of 2 or 5, each problem random or near a floor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = draw(st.sampled_from([None, 2, 5]))
    kinds = ["random", "near_det_floor", "near_eig_floor"]
    mats = [_profile_matrix(rng, kinds[draw(st.integers(0, 2))]) for _ in range(stack or 1)]
    return mats[0] if stack is None else np.array(mats)


def _outcome(f, *args):
    try:
        return f(*args)
    except (SingularProfile, ReflectionProfile) as exc:
        return type(exc), str(exc)


def _fresh_svd_solve(matrix, det):
    # solve_attitude's arithmetic, on a fresh SVD.
    bad = so3._first_failure(det > 0.0, det)
    if bad is not None:
        raise ReflectionProfile(f"profile determinant {bad:.3e} is not positive")
    U, s, Vt = np.linalg.svd(matrix)
    st_ = s.T
    bad = so3._first_failure(st_[2] * st_[2] > wahba.SQRT_EIG_RTOL * (st_[0] * st_[0]), s)
    if bad is not None:
        raise SingularProfile(
            f"profile effectively singular (eigenvalues {(bad[::-1] ** 2).tolist()})"
        )
    S = (U / s[..., None, :]) @ U.mT
    return U @ Vt, 0.5 * (S + S.mT)


def _same(a, b):
    if isinstance(a, tuple) and isinstance(a[0], type):
        return a == b
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@SETTINGS
@given(profile_matrices())
def test_stored_factors_solve_as_a_fresh_svd_and_stay_unchanged(M):
    try:
        p = wahba.profile_from_matrix(M)
    except SingularProfile:
        return  # below the DET_RTOL floor: nothing stored
    factors = [np.copy(f) for f in p._svd]
    # det: np.linalg.det's sign, and its value within 1e-13 of norm(L)^3,
    # the floor's scale (relative to |det L| they agree only to eps times
    # the condition number).
    lu = np.linalg.det(M)
    assert np.array_equal(np.sign(p.det), np.sign(lu))
    scale = np.linalg.norm(M, axis=(-2, -1)) ** 3
    assert (abs(p.det - lu) <= 1e-13 * scale).all()
    well = np.linalg.cond(M) < 100.0
    assert (abs(p.det - lu)[well] <= 1e-13 * abs(lu)[well]).all()

    first = _outcome(wahba.solve_attitude, p)
    assert _same(first, _outcome(_fresh_svd_solve, M, p.det))
    # A profile with det < 0 is refused before the SQRT_EIG_RTOL floor.
    assert (first[0] is ReflectionProfile) == (not np.all(p.det > 0.0))
    # Solved again: the same.
    assert _same(first, _outcome(wahba.solve_attitude, p))
    assert all(np.array_equal(f, g) for f, g in zip(factors, p._svd))
    # A profile built by hand has no factors and is factored as M is.
    by_hand = wahba.AttitudeProfile(M, p.det)
    assert by_hand._svd is None
    assert _same(first, _outcome(wahba.solve_attitude, by_hand))


@st.composite
def scaled_profiles(draw):
    """A profile (one, or a stack of 3) and a power of two k in [-60, 60]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["random", "near_det_floor", "near_eig_floor"]
    mats = [_profile_matrix(rng, kinds[draw(st.integers(0, 2))])
            for _ in range(draw(st.sampled_from([1, 3])))]
    M = mats[0] if len(mats) == 1 else np.array(mats)
    return M, draw(st.integers(-60, 60))


def _verdict(M):
    # Which check decides, and its exception type; or the solve.
    try:
        p = wahba.profile_from_matrix(M)
    except SingularProfile:
        return "profile_from_matrix", SingularProfile
    try:
        return p, wahba.solve_attitude(p)
    except (SingularProfile, ReflectionProfile) as exc:
        return "solve_attitude", type(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scaled_profiles())
def test_solve_is_exactly_equivariant_under_powers_of_two(drawn):
    # C(2^k L) == C(L) and S(2^k L) == 2^-k S(L) bit for bit, and both
    # floors give the same verdict: the SVD, the floors and the solve
    # commute with exact scaling.
    M, k = drawn
    p1, r1 = _verdict(M)
    p2, r2 = _verdict(np.ldexp(M, k))
    if isinstance(p1, str) or isinstance(p2, str):
        assert (p1, r1) == (p2, r2)
        return
    assert np.array_equal(p2.det, np.ldexp(p1.det, 3 * k))
    assert np.array_equal(r2[0], r1[0])
    assert np.array_equal(r2[1], np.ldexp(r1[1], -k))


def _floor_profile(s3, seed):
    rng = np.random.default_rng(seed)
    s2 = 1.0 if s3 < 1e-9 else 0.6
    return so3.random_rotation(rng) @ np.diag([1.0, s2, s3]) @ so3.random_rotation(rng).T


FLOOR_CASES = [
    # s3 just above the DET_RTOL floor passes it, and fails SQRT_EIG_RTOL's
    (DET_FLOOR_S3 * 1.01, "solve_attitude", "profile effectively singular (eigenvalues ["),
    (DET_FLOOR_S3 * 0.99, "profile_from_matrix", "profile determinant "),
    (EIG_FLOOR_S3 * 1.001, None, None),
    (EIG_FLOOR_S3 * 0.999, "solve_attitude", "profile effectively singular (eigenvalues ["),
]


@pytest.mark.parametrize("s3, check, prefix", FLOOR_CASES)
@pytest.mark.parametrize("where", [None, 0, 3])
def test_floor_verdicts_one_profile_and_in_a_stack(s3, check, prefix, where):
    # One profile, or the same one at index `where` of a stack of 4 whose
    # other profiles are well-conditioned: the same check raises with the
    # same message prefix.
    L = _floor_profile(s3, 50)
    if where is not None:
        good = [_floor_profile(0.5, 51 + j) for j in range(4)]
        good[where] = L
        L = np.array(good)
    try:
        p = wahba.profile_from_matrix(L)
    except SingularProfile as exc:
        assert check == "profile_from_matrix" and str(exc).startswith(prefix)
        return
    assert check != "profile_from_matrix"
    if check is None:
        C, _ = wahba.solve_attitude(p)
        so3.check_rotation(C, tol=1e-12)
        return
    with pytest.raises(SingularProfile) as exc:
        wahba.solve_attitude(p)
    assert str(exc.value).startswith(prefix)
